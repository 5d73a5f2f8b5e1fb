"""One benchmark process: set up a preset sweep, run it, report as JSON.

Usage: python3 perfbench/child.py MODE SETTINGS_JSON

MODE is one of
  counts      setup, then exact operation counts of the workload's shape
  sweep       setup, then ``montecarlo.run_sweep`` untraced
  traced      the same sweep with every layer traced (one worker only)
  pooltraced  the same sweep with the parent side of the pool traced

SETTINGS_JSON holds ``preset``, ``trials``, ``seed``, ``threads`` and
optionally ``stop_at`` and ``chunk_size``.
The process prints one JSON object; its clock readings are
``time.monotonic()``, which the launching process shares, so it can time
the run from its own launch.
"""

import os
import sys

# The sweep API does not pin the BLAS pools itself (only the CLI does),
# so this process pins them before numpy is imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import dataclasses
import json
import resource
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def build_config(cli, spec: dict):
    """``cli.build_sweep`` on the preset with the workload's trials, seed
    and workers, and its stop threshold and chunk size when the workload
    sets them."""
    settings = dict(cli.PRESETS[spec["preset"]])
    settings.update(trials=spec["trials"], seed=spec["seed"], threads=spec["threads"])
    if "stop_at" in spec:
        settings["stop_at"] = spec["stop_at"]
    cfg = cli.build_sweep(settings)
    if "chunk_size" in spec:
        cfg = dataclasses.replace(cfg, chunk_size=spec["chunk_size"])
    return cfg


def _exact_counts(cfg, montecarlo, detect, phy, complexity, OpCount) -> dict:
    """Real multiplications per detection of one realization, fresh tallies."""
    from mimodet.detect import Kind

    snr = cfg.snr_db[0]
    sigma2 = phy.sigma2_from_snr(snr, cfg.u)
    _, x, h, noise = montecarlo.trial_realization(cfg, sigma2, 0)
    acc = OpCount()
    g0 = detect.gramian(h, 0.0, acc)
    x_mf = detect.matched_filter(h, h @ x + noise, acc)
    real_mul = {"gramian_mf": acc.real_mul}
    box = phy.make_constellation(cfg.order).box_radius

    def reg(value):
        g = g0.copy()
        g.flat[:: cfg.u + 1] += value
        return g

    for spec in cfg.detectors:
        if spec.kind is Kind.SIMO:
            continue  # the SIMO bound runs uncounted
        acc = OpCount()
        if spec.kind in (Kind.ZF, Kind.MMSE):
            detect.exact_solve(reg(sigma2 if spec.kind is Kind.MMSE else 0.0), x_mf,
                               spec.backend, acc)
        elif spec.kind is Kind.ADMIN:
            beta = spec.admin_beta(sigma2)
            detect.admin_solve(reg(beta), x_mf, spec.iterations, beta, box, acc)
        else:
            solver = {Kind.NSA: detect.nsa_solve, Kind.GS: detect.gs_solve,
                      Kind.CG: detect.cg_solve}[spec.kind]
            solver(reg(sigma2), x_mf, spec.iterations, acc)
        real_mul[spec.name] = acc.real_mul

    factor, formula = {}, {}
    for name, fn in (("qr", detect.gram_schmidt_qr), ("chol", detect.cholesky),
                     ("ldl", detect.ldl)):
        acc = OpCount()
        fn(reg(sigma2), acc)
        factor[name] = acc.real_mul
        formula[name] = complexity.formula_rm(complexity.Algo(name), cfg.u)
    return {"real_mul": real_mul, "factor_real_mul": factor, "formula_real_mul": formula,
            "calls_per_trial": _kernel_calls_per_trial(cfg, montecarlo, snr)}


def _kernel_calls_per_trial(cfg, montecarlo, snr) -> int:
    """Python calls into ``mimodet/kernels.py`` during one trial of the sweep."""
    from mimodet import kernels

    one = dataclasses.replace(cfg, snr_db=(snr,), trials=1, workers=1)
    target = kernels.__file__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == target:
            calls += 1

    sys.setprofile(profile)
    try:
        montecarlo.run_sweep(one)
    finally:
        sys.setprofile(None)
    return calls


def _usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of this process and its reaped workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv: list[str]) -> int:
    mode, spec = argv[1], json.loads(argv[2])
    import numpy as np

    import mimodet
    from mimodet import cli, complexity, detect, montecarlo, phy
    from mimodet.kernels import OpCount

    if Path(mimodet.__file__).resolve().parent != SRC / "mimodet":
        print(f"mimodet imported from {mimodet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if mode in ("traced", "pooltraced"):
        import tracing

        tracer = tracing.Tracer()
        if mode == "traced":
            tracer.install_full(cli, montecarlo, detect, phy)
        else:
            tracer.install_pool(montecarlo)

    cfg = build_config(cli, spec)
    phy.make_constellation(cfg.order)
    out = {
        "t_ready": time.monotonic(),
        "numpy": np.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "chunk_size": cfg.chunk_size,
        "detectors": len(cfg.detectors),
    }
    if mode == "counts":
        out["counts"] = _exact_counts(cfg, montecarlo, detect, phy, complexity, OpCount)
    else:
        start = time.perf_counter()
        records = montecarlo.run_sweep(cfg)
        sweep_s = time.perf_counter() - start
        out["t_done"] = time.monotonic()
        out["cpu_s"], out["peak_rss_mb"] = _usage()
        import gate

        out["sweep_s"] = sweep_s
        out["records"] = gate.record_rows(records)
        if mode == "traced":
            out["layers"], out["span_us"] = tracing.sweep_figures(tracer, sweep_s)
        if tracer is not None:
            out["untraced_targets"] = tracer.missing
            waits = tracer.durations_us().get("montecarlo.pool_wait", [])
            out["pool"] = {"wait_s": sum(waits) / 1e6,
                           "submitted_trials": tracer.submitted_trials}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
