"""mimodet benchmark: timed preset sweeps, a traced per-layer split, a gate.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5_decomp --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 55      # every workload, both modes

Each sweep runs in a fresh process (``perfbench/child.py``) that pins
the BLAS pools to one thread, calls ``cli.build_sweep`` and
``montecarlo.run_sweep`` on a preset with the workload's trial and
worker counts, and reports its records. Every sweep is checked by
``gate.py`` before its figures are used.

``--trace 0`` repeats the sweep until ``--seconds`` are spent and
reports the end-to-end metrics as medians over the repetitions, the
timed ones scaled by a frozen reference job run before and after every
sweep (see ``REFERENCE_S``).
``--trace 1`` alternates untraced and traced sweeps instead and reports
the per-layer metrics. Metric names and units come from
``BENCHMARK.json``; the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with provenance and every sample, is also written to
``perfbench/results/``. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child  # also pins this process's BLAS pools and puts src/ on sys.path
import tracing
from tracing import SOLVERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Why each workload was chosen is recorded in BENCHMARK.json. Sweeps
# last about a second, so that the reference runs around each one (see
# REFERENCE_S) see the machine at nearly the same speed as the sweep, and
# a run's median spans a few dozen of them.
# fig5_decomp shrinks the engine's chunk (100 trials) to 4 and its stop
# threshold (200 errors) to 50 so that MMSE and ADMIN still stop while
# SIMO runs on, within 8 trials per point; fig3_pool halves both, which
# keeps the preset's stop pattern at half the trials.
WORKLOADS = {
    "fig5_decomp": {"preset": "fig5", "trials": 8, "threads": 1, "chunk_size": 4,
                    "stop_at": 50},
    "fig2_tall": {"preset": "fig2", "trials": 60, "threads": 1},
    "fig3_pool": {"preset": "fig3", "trials": 100, "threads": 2, "chunk_size": 50,
                  "stop_at": 100},
}
# --smoke: the same shapes with a few trials per point, so every path
# (including the process pool) runs in seconds.
SMOKE_TRIALS = {"fig5_decomp": 3, "fig2_tall": 3, "fig3_pool": 50}
# Each timed end-to-end sample is scaled by REFERENCE_S over the mean
# time of the runs of reference.py just before and after its sweep: this
# machine's speed drifts by up to a factor of two over minutes, and the
# frozen job drifts with it while no change to the program moves it.
# REFERENCE_S is about the job's time on a quiet 2-vCPU guest (Xeon,
# model 143), so the figures read as seconds at that speed.
REFERENCE_S = 0.3
# The self times of the sweep's layers must add up to its wall time.
UNCOVERED_LIMIT = 0.01
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def spawn(what: str, cmd: list[str]) -> tuple[str, float]:
    """Run one child process to its end; returns its output and launch time.

    The child gets a process group of its own (pool workers included),
    which is killed when it overruns CHILD_TIMEOUT_S or when this process
    is interrupted, so that no process outlives the run.
    """
    t_launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{what} child timed out after {CHILD_TIMEOUT_S} s") from None
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{what} child exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, t_launch


def launch(mode: str, spec: dict) -> dict:
    """Run one child process; returns its report plus ``t_launch``."""
    out, t_launch = spawn(mode, [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)])
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise ChildFailed(f"{mode} child printed no report: {out[-500:]!r}") from None
    report["t_launch"] = t_launch
    if "t_done" in report:
        report["wall_s"] = report["t_done"] - t_launch
    report["setup_s"] = report["t_ready"] - t_launch
    return report


def metric_table() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def read_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mimodet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Run:
    """One invocation's sweeps, gate results and samples."""

    def __init__(self, name: str, seed: int, seconds: int, smoke: bool):
        import gate
        from mimodet import cli

        self.t0 = time.monotonic()
        self.gate = gate
        self.name, self.seed, self.seconds = name, seed, seconds
        self.spec = dict(WORKLOADS[name], seed=seed)
        if smoke:
            self.spec["trials"] = SMOKE_TRIALS[name]
        with open(HERE / "references.json") as fh:
            refs = json.load(fh)
        self.recorded_real_mul = refs["real_mul"][name]
        self.stored_digest = (
            refs["digests"][name].get(str(self.spec["trials"]), {}).get(str(seed))
        )
        self.config = child.build_config(cli, self.spec)
        self.expected = None
        self.attempted = 0
        self.failures: list[str] = []
        self.child_provenance: dict = {}

    def check_counts(self) -> dict | None:
        self.attempted += 1
        try:
            report = launch("counts", self.spec)
        except ChildFailed as exc:
            self.failures.append(str(exc))
            return None
        self.child_provenance = {k: report[k] for k in ("numpy", "blas_env")}
        problems = self.gate.check_counts(report["counts"], self.recorded_real_mul)
        self.failures.extend(f"counts: {p}" for p in problems)
        return report["counts"]

    def sweep(self, mode: str, spec: dict | None = None) -> dict | None:
        """Launch one sweep and gate it; None when it failed."""
        self.attempted += 1
        try:
            report = launch(mode, spec or self.spec)
        except ChildFailed as exc:
            self.failures.append(str(exc))
            return None
        if self.expected is None:
            self.expected = self.gate.reference_records(self.config, self.seed)
        problems = self.gate.check_rows(report["records"], self.expected, self.stored_digest)
        if problems:
            self.failures.append(f"{mode} seed {self.seed}: " + "; ".join(problems))
            return None
        return report

    def budget_left(self, per_round: float) -> bool:
        """Whether one more round fits in ``--seconds`` counted from the
        start of the run, so that a run lasts about that long in all."""
        return time.monotonic() - self.t0 + per_round <= self.seconds


def aggregated(report: dict) -> int:
    return sum(row[3] for row in report["records"])


def chunks_merged(report: dict) -> int:
    """Chunks the engine merged: per point, up to the last detector's stop."""
    size = report["chunk_size"]
    last: dict[float, int] = {}
    for row in report["records"]:
        last[row[2]] = max(last.get(row[2], 0), row[3])
    return sum(-(-trials // size) for trials in last.values())


def reference_s() -> float:
    """Wall time of one run of the frozen reference job."""
    _, t_launch = spawn("reference", [sys.executable, str(HERE / "reference.py")])
    return time.monotonic() - t_launch


def end_to_end(run: Run) -> tuple[dict, dict]:
    reps: list[dict] = []
    # refs[i] and refs[i + 1] are the reference runs just before and just
    # after sweep i
    refs: list[float] = []
    while True:
        try:
            refs.append(reference_s())
        except ChildFailed as exc:
            run.failures.append(str(exc))
            break
        if len(refs) > 1 and not run.budget_left(
                statistics.median(r["wall_s"] for r in reps) + statistics.median(refs)):
            break
        report = run.sweep("sweep")
        if report is None:
            break
        reps.append(report)
    if len(refs) <= len(reps):
        return {}, {}
    # each sweep is scaled by the mean of the reference runs around it
    scale = [2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i in range(len(reps))]
    samples = {
        "wall_s": [r["wall_s"] * k for r, k in zip(reps, scale)],
        "detections_per_s": [aggregated(r) / (r["wall_s"] * k) for r, k in zip(reps, scale)],
        "cpu_s": [r["cpu_s"] * k for r, k in zip(reps, scale)],
        "setup_s": [r["setup_s"] * k for r, k in zip(reps, scale)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    m = {k: statistics.median(v) for k, v in samples.items()}
    samples["unscaled_wall_s"] = [r["wall_s"] for r in reps]
    samples["reference_s"] = refs
    return m, samples


def per_layer(run: Run, counts: dict | None) -> tuple[dict, dict]:
    layer_spec = dict(run.spec, threads=1)
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        a = run.sweep("sweep", layer_spec)
        b = run.sweep("traced", layer_spec)
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
        if not run.budget_left(a["wall_s"] + b["wall_s"]):
            break
    pool = run.sweep("pooltraced") if run.spec["threads"] > 1 else None
    if not traced or counts is None or (run.spec["threads"] > 1 and pool is None):
        return {}, {}

    layers = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
    pooled: dict[str, list[float]] = {}
    for t in traced:
        for name, values in t["span_us"].items():
            pooled.setdefault(name, []).extend(values)
    uncovered = max(abs(t["layers"]["trace.uncovered_share"]) for t in traced)
    if uncovered > UNCOVERED_LIMIT:
        run.failures.append(f"layer self times miss {uncovered:.2%} of the traced sweep")
    m = dict(layers, **tracing.percentile_metrics(pooled))
    for key in ("gramian_mf", *SOLVERS):
        m[f"kernels.real_mul.{key}"] = counts["real_mul"].get(key, 0)
    m["kernels.calls_per_trial"] = counts["calls_per_trial"]

    own = pool or traced[0]
    ndet = own["detectors"]
    if pool is not None:
        executed = sum(pool["pool"]["submitted_trials"]) * ndet
        m["montecarlo.pool_wait_s"] = pool["pool"]["wait_s"]
        m["montecarlo.chunks_submitted"] = len(pool["pool"]["submitted_trials"])
    else:
        # every trial realized feeds the SIMO bound; the other detectors
        # count one solve per detection
        simo = any(row[0] == "simo" for row in own["records"])
        executed = sum(layers[f"detect.solve_calls.{d}"] for d in SOLVERS)
        executed += layers["phy.realize_calls"] if simo else 0
        m["montecarlo.pool_wait_s"] = 0.0
        m["montecarlo.chunks_submitted"] = chunks_merged(own)
    m["montecarlo.useful_share"] = aggregated(own) / executed
    m["montecarlo.chunks_merged"] = chunks_merged(own)
    m["montecarlo.failed_share"] = sum(r[6] for r in own["records"]) / aggregated(own)
    m["trace.overhead_share"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0
    )
    samples = {
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "untraced_targets": traced[0]["untraced_targets"],
    }
    return m, samples


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    run = Run(name, seed, seconds, smoke)
    counts = run.check_counts()
    if trace:
        metrics, samples = per_layer(run, counts)
    else:
        metrics, samples = end_to_end(run)
    units = metric_table()[trace]
    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        run.failures.append(f"metrics not produced: {missing}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            k: {"value": metrics[k], "unit": unit} for k, unit in units.items() if k in metrics
        },
    }
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "preset": run.spec["preset"], "trials": run.spec["trials"],
        "workers": run.spec["threads"], "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "machine": platform.machine(),
        **run.child_provenance,
        "commit": read_commit(), "source_sha256": source_digest(),
        "stored_digest_checked": run.stored_digest is not None,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    path.write_text(json.dumps({"result": result, "provenance": provenance,
                                "samples": samples, "problems": run.failures}, indent=1))
    print(json.dumps({"provenance": provenance}))
    for problem in run.failures:
        print(f"gate: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them, both modes, when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few trials per point; for checking the benchmark itself")
    args = parser.parse_args(argv)
    # a terminated run unwinds through spawn(), which kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "mimodet" / "__init__.py").is_file():
        print(f"no mimodet sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, args.seed, args.seconds, trace, args.smoke)
            ok &= result["correct"]
            print(json.dumps({"workload": name, "trace": trace, **result}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
