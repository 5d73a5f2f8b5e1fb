"""Span tracing for the benchmark's traced sweeps, installed from outside.

The tracer replaces module-level functions of mimodet with wrappers that
record one span per call: (name, start_ns, end_ns, parent). Only
functions the engine reaches through a module attribute are wrapped, so
the program's own files stay untouched. Spans are kept in memory and
summarised once the sweep has returned.

A span's layer is the first component of its name (``phy``, ``detect``,
``decomp``, ``montecarlo``, ``cli``). A layer's self time is the time
its spans cover minus the time covered by their direct children, so the
self times of the layers inside a sweep add up to the root span.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

# (module attribute, span name) pairs, grouped by the module they patch.
# The decompositions and triangular solves are wrapped under the names
# ``detect`` imported them as, because that is where the engine's calls
# resolve them.
MONTECARLO_TARGETS = (
    ("run_sweep", "montecarlo.sweep"),
    ("trial_realization", "phy.realize"),
)
DETECT_TARGETS = (
    ("gramian", "detect.gramian"),
    ("matched_filter", "detect.matched_filter"),
    # exact_solve serves ZF and MMSE; no workload runs ZF.
    ("exact_solve", "detect.solve.mmse"),
    ("nsa_solve", "detect.solve.nsa"),
    ("gs_solve", "detect.solve.gs"),
    ("cg_solve", "detect.solve.cg"),
    ("admin_solve", "detect.solve.admin"),
    ("gram_schmidt_qr", "decomp.factor.qr"),
    ("cholesky", "decomp.factor.chol"),
    ("ldl", "decomp.factor.ldl"),
    ("forward_sub", "decomp.trisolve"),
    ("backward_sub", "decomp.trisolve"),
)
PHY_TARGETS = (("hard_slice", "phy.slice"),)
CLI_TARGETS = (("build_sweep", "cli.build_sweep"),)

SOLVERS = ("mmse", "admin", "nsa", "gs", "cg")
FACTORS = ("qr", "chol", "ldl")
SWEEP_LAYERS = ("phy", "detect", "decomp", "montecarlo")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.submitted_trials: list[int] = []
        self.missing: list[str] = []

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        A target the program no longer has is listed in ``missing``; its
        time then counts toward the layer that called it.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        setattr(module, attr, traced)

    def install_full(self, cli, montecarlo, detect, phy) -> None:
        """Trace every layer of an in-process (one-worker) sweep."""
        for module, targets in (
            (cli, CLI_TARGETS),
            (montecarlo, MONTECARLO_TARGETS),
            (detect, DETECT_TARGETS),
            (phy, PHY_TARGETS),
        ):
            for attr, name in targets:
                self.wrap(module, attr, name)

    def install_pool(self, montecarlo) -> None:
        """Trace only the parent side of a process-pool sweep.

        The root span, the waits for chunk results and the chunk
        submissions are recorded; workers run unwrapped code.
        """
        import concurrent.futures as cf

        self.wrap(montecarlo, "run_sweep", "montecarlo.sweep")
        self.wrap(cf, "wait", "montecarlo.pool_wait")
        submitted = self.submitted_trials

        class CountingPool(cf.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                # the engine submits _eval_trials(config, snr_db, lo, hi)
                submitted.append(args[3] - args[2])
                return super().submit(fn, *args, **kwargs)

        cf.ProcessPoolExecutor = CountingPool

    def durations_us(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append((end - start) / 1e3)
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, in seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start - inner) / 1e9
        return layers


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p99(values) -> float:
    """Nearest-rank 99th percentile (needs 1,000 samples for ten beyond it)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def sweep_figures(tracer: Tracer, sweep_s: float) -> tuple[dict, dict]:
    """Counts and self times of one fully traced sweep, plus its span
    durations by name (microseconds) for pooled percentiles.

    ``sweep_s`` is the sweep's wall time measured around the traced
    call; ``trace.uncovered_share`` is the part of it that no layer's
    self time accounts for.
    """
    dur = tracer.durations_us()
    dur["detect.gramian_mf"] = [
        a + b for a, b in zip(dur.pop("detect.gramian", []), dur.pop("detect.matched_filter", []))
    ]
    m = {
        "phy.realize_calls": len(dur.get("phy.realize", [])),
        "phy.slice_calls": len(dur.get("phy.slice", [])),
    }
    for det in SOLVERS:
        m[f"detect.solve_calls.{det}"] = len(dur.get(f"detect.solve.{det}", []))
    selfs = tracer.self_seconds()
    covered = 0.0
    for layer in SWEEP_LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        covered += selfs.get(layer, 0.0)
    m["trace.uncovered_share"] = (sweep_s - covered) / sweep_s
    return m, dur


def percentile_metrics(dur: dict[str, list[float]]) -> dict[str, float]:
    """Span-time percentiles over the durations of one or more sweeps."""
    m = {
        "phy.realize_us_p50": p50(dur.get("phy.realize", [])),
        "phy.realize_us_p99": p99(dur.get("phy.realize", [])),
        "phy.slice_us_p50": p50(dur.get("phy.slice", [])),
        "detect.gramian_mf_us_p50": p50(dur.get("detect.gramian_mf", [])),
        "detect.gramian_mf_us_p99": p99(dur.get("detect.gramian_mf", [])),
        "decomp.trisolve_us_p50": p50(dur.get("decomp.trisolve", [])),
        "cli.build_sweep_us": p50(dur.get("cli.build_sweep", [])),
    }
    for det in SOLVERS:
        m[f"detect.solve_us_p50.{det}"] = p50(dur.get(f"detect.solve.{det}", []))
        m[f"detect.solve_us_p99.{det}"] = p99(dur.get(f"detect.solve.{det}", []))
    for f in FACTORS:
        m[f"decomp.factor_us_p50.{f}"] = p50(dur.get(f"decomp.factor.{f}", []))
    return m
