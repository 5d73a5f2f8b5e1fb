"""Command-line front end: BER sweeps, complexity tables, self test.

Exit codes: 0 success, 1 failed self test, 2 configuration error
(diagnostic names the offending field), 3 runtime failure (numerical,
or a sweep worker process that died; the diagnostic names its chunk).
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads so CSV output is byte-identical
# for any --threads value (worker parallelism happens at process level).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import complexity, detect, montecarlo, phy
from .decomp import DecompositionError
from .detect import Backend, DetectorSpec, Kind
from .kernels import OpCount
from .montecarlo import ConfigError, SweepConfig

_MOD_ORDERS = {"qpsk": 4, "4qam": 4, "16qam": 16, "64qam": 64}
# detector-spec option -> (DetectorSpec field, parser)
_SPEC_OPTIONS = {"t": ("iterations", int), "beta": ("beta", float), "bscale": ("beta_scale", float)}

PRESETS = {
    "fig2": dict(
        n=256, u=16, mod="64qam", snr="4:1:12",
        det=["mmse:chol", "nsa:t=3", "gs:t=3", "cg:t=3"],
    ),
    "fig3": dict(
        n=32, u=16, mod="64qam", snr="0:5:30",
        det=["mmse:chol", "nsa:t=3", "gs:t=3", "cg:t=3"],
    ),
    "fig4": dict(
        n=64, u=16, mod="64qam", snr="8:2:22",
        det=["mmse:chol", "nsa:t=3", "gs:t=3", "cg:t=3"],
    ),
    "fig5": dict(
        n=32, u=32, mod="64qam", snr="15:2.5:40",
        det=["mmse:qr", "admin:t=5:bscale=8", "simo"],
    ),
    "fig6": dict(
        n=32, u=32, mod="qpsk", snr="6:2:26",
        det=["mmse:qr", "admin:t=5:bscale=2", "simo"],
    ),
}


# settings a preset fixes; the other flags (trials, seed, stop_at, threads) override it
_PRESET_FIXED = ("n", "u", "mod", "snr", "det")


def parse_snr_range(text: str) -> tuple[float, ...]:
    """SNR grid from 'start:step:stop' (inclusive) or a comma list."""
    try:
        if ":" in text:
            start_s, step_s, stop_s = text.split(":")
            start, step, stop = float(start_s), float(step_s), float(stop_s)
            if step <= 0 or stop < start:
                raise ValueError
            points = []
            k = 0
            while start + k * step <= stop + 1e-9:
                points.append(round(start + k * step, 9))
                k += 1
            return tuple(points)
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError("snr", f"cannot parse SNR range {text!r}") from None


def parse_detector(text: str) -> DetectorSpec:
    """Detector grammar: kind[:backend][:t=K][:beta=X][:bscale=X]."""
    parts = text.lower().split(":")
    kind_name, opts = parts[0], parts[1:]
    try:
        kind = Kind(kind_name)
    except ValueError:
        raise ConfigError("det", f"unknown detector {kind_name!r}") from None
    fields: dict = {}
    for opt in opts:
        if "=" in opt:
            key, val = opt.split("=", 1)
            if key not in _SPEC_OPTIONS:
                raise ConfigError("det", f"unknown detector option {key!r}")
            field_name, cast = _SPEC_OPTIONS[key]
            try:
                fields[field_name] = cast(val)
            except ValueError:
                raise ConfigError("det", f"bad value in {opt!r}") from None
        else:
            try:
                fields["backend"] = Backend(opt)
            except ValueError:
                raise ConfigError("det", f"unknown backend {opt!r}") from None
    try:
        return DetectorSpec(kind, **fields)
    except ValueError as exc:
        raise ConfigError("det", str(exc)) from None


def _mod_order(name: str) -> int:
    try:
        return _MOD_ORDERS[name.lower()]
    except KeyError:
        raise ConfigError("mod", f"unknown modulation {name!r}") from None


def _integer(field_name: str, value, default: int | None = None) -> int:
    """An integer setting; a bool or a non-integral number is a ConfigError."""
    if value is None:
        return default
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(field_name, f"must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(field_name, f"must be an integer, got {value!r}") from None


def build_sweep(settings: dict) -> SweepConfig:
    """SweepConfig from a flat settings mapping (file and/or flags)."""
    for key in ("n", "u", "mod", "snr", "det"):
        if settings.get(key) is None:
            raise ConfigError(key, "missing required setting")
    det = settings["det"]
    if isinstance(det, str):
        det = [det]
    specs = []
    for d in det:
        for piece in str(d).split(","):
            specs.append(parse_detector(piece))
    snr = settings["snr"]
    snr_points = parse_snr_range(snr) if isinstance(snr, str) else tuple(float(s) for s in snr)
    # desk-scale default of 200 errors; 0 or "none" disables the early stop
    n, u = _integer("n", settings["n"]), _integer("u", settings["u"])
    seed = _integer("seed", settings.get("seed"), 1)
    trials = _integer("trials", settings.get("trials"), 2000)
    stop_at = settings.get("stop_at")
    stop_at = 0 if stop_at == "none" else _integer("stop_at", stop_at, 200)
    cfg = SweepConfig(
        n=n,
        u=u,
        order=_mod_order(str(settings["mod"])),
        snr_db=snr_points,
        detectors=tuple(specs),
        trials=trials,
        master_seed=seed,
        stop_at_errors=stop_at or None,
        workers=_integer("threads", settings.get("threads"), 1),
    )
    cfg.validate()
    return cfg


def ber_csv(records: list[montecarlo.BerRecord]) -> str:
    lines = ["n,u,mod,detector,params,snr_db,trials,bit_errors,bits,ber,stderr"]
    for r in records:
        mod = phy.make_constellation(r.order).name
        lines.append(
            f"{r.n},{r.u},{mod},{r.detector},{r.params},{float(r.snr_db)!r},"
            f"{r.trials_run},{r.bit_errors},{r.bits_total},{float(r.ber)!r},{float(r.stderr)!r}"
        )
    return "\n".join(lines) + "\n"


def _load_experiment_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config", "experiment file must hold a JSON object")
    return data


def cmd_ber(args) -> int:
    file_data: dict = {}
    if args.config:
        file_data = _load_experiment_file(args.config)
    out_dir = Path(args.out_dir or file_data.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    flag_settings = {
        "n": args.n, "u": args.u, "mod": args.mod, "snr": args.snr,
        "det": args.det or None, "trials": args.trials, "seed": args.seed,
        "stop_at": args.stop_at, "threads": args.threads,
    }
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {args.preset!r}"
                              + (" (fig7 is the complexity command)" if args.preset == "fig7" else ""))
        if args.seed is None:
            raise ConfigError("seed", f"--seed is required with --preset {args.preset}")
        for key in _PRESET_FIXED:
            if flag_settings[key] is not None:
                raise ConfigError(key, f"--{key} cannot change --preset {args.preset}; "
                                  "use an experiment file for another shape")
        base = dict(PRESETS[args.preset])
        base.update({k: v for k, v in flag_settings.items() if v is not None})
        sweeps = [base]
    elif "sweeps" in file_data:
        sweeps = []
        for entry in file_data["sweeps"]:
            merged = dict(entry)
            merged.update({k: v for k, v in flag_settings.items() if v is not None})
            sweeps.append(merged)
    else:
        merged = dict(file_data)
        merged.pop("complexity", None)
        merged.pop("out_dir", None)
        merged.update({k: v for k, v in flag_settings.items() if v is not None})
        sweeps = [merged]

    for settings in sweeps:
        cfg = build_sweep(settings)
        const = phy.make_constellation(cfg.order)
        print(
            f"# sweep {cfg.n}x{cfg.u} {const.name}, {len(cfg.snr_db)} SNR points, "
            f"trials={cfg.trials}, seed={cfg.master_seed}; "
            f"snr convention: sigma2 = U / 10^(snr_db/10) (per-BS-antenna receive SNR)",
            file=sys.stderr,
        )
        records = montecarlo.run_sweep(
            cfg, progress=lambda msg: print("# " + msg, file=sys.stderr)
        )
        out_path = out_dir / f"ber_{cfg.n}x{cfg.u}_{const.name}.csv"
        out_path.write_text(ber_csv(records))
        print(out_path)

    if "complexity" in file_data:
        spec = file_data["complexity"]
        rows = complexity.comparison_table(
            tuple(int(v) for v in spec.get("u", complexity.DEFAULT_U_LIST)),
            int(spec.get("t", complexity.DEFAULT_T)),
        )
        path = out_dir / str(spec.get("out", "complexity.csv"))
        path.write_text(complexity.table_csv(rows))
        print(path)
    return 0


def cmd_complexity(args) -> int:
    try:
        u_list = tuple(int(v) for v in args.u.split(","))
    except ValueError:
        raise ConfigError("u", f"cannot parse U list {args.u!r}") from None
    if any(u < 1 for u in u_list):
        raise ConfigError("u", "all U values must be positive")
    if args.t < 1:
        raise ConfigError("t", "t must be >= 1")
    rows = complexity.comparison_table(u_list, args.t)
    if args.t == 1:
        print("# warning: t=1 makes the Neumann-series model zero "
              "(its (t-1) factor)", file=sys.stderr)
    out = Path(args.out)
    out.write_text(complexity.table_csv(rows))
    print(out)
    return 0


def run_selftest(corrupt_counts: bool = False, stream=None) -> list[tuple[str, bool, str]]:
    """Fast invariant suite; ``corrupt_counts`` is a negative-control hook."""
    stream = stream or sys.stdout
    rows: list[tuple[str, bool, str]] = []
    bump = 1 if corrupt_counts else 0

    for u, expected in ((8, 392), (16, 2960), (32, 22816)):
        got = complexity.measure_rm(complexity.Algo.CHOLESKY, u).real_mul + bump
        rows.append((f"cholesky real_mul U={u}", got == expected,
                     f"expected {expected}, measured {got}"))
    for u in (2, 4, 8, 16, 32, 64):
        expected = u * u * (4 * u + 2)
        got = complexity.measure_rm(complexity.Algo.QR, u).real_mul + bump
        rows.append((f"gram-schmidt real_mul U={u}", got == expected,
                     f"expected {expected}, measured {got}"))
    for u in (8, 16, 32):
        expected = complexity.formula_rm(complexity.Algo.LDL, u)
        acc = complexity.measure_rm(complexity.Algo.LDL, u)
        got = acc.real_mul + bump
        ok = got == expected and acc.sqrt == 0 and acc.reciprocal == u
        rows.append((f"ldl real_mul U={u}", ok,
                     f"expected {expected}, measured {got}, "
                     f"sqrt={acc.sqrt}, reciprocal={acc.reciprocal}"))

    from .decomp import cholesky, gram_schmidt_qr, ldl

    for u in (8, 16):
        a = complexity.seeded_gramian(u, seed=1)
        scale = np.linalg.norm(a)
        f = gram_schmidt_qr(a, OpCount())
        qr_resid = np.linalg.norm(f.q @ f.r - a) / scale
        orth = np.abs(f.q.conj().T @ f.q - np.eye(u)).max()
        c = cholesky(a, OpCount())
        ch_resid = np.linalg.norm(c.l @ c.l.conj().T - a) / scale
        d = ldl(a, OpCount())
        ld_resid = np.linalg.norm(d.l @ np.diag(d.d) @ d.l.conj().T - a) / scale
        worst = max(qr_resid, ch_resid, ld_resid, orth)
        rows.append((f"decomposition residuals U={u}", worst <= 1e-10,
                     f"worst {worst:.2e} (bound 1e-10)"))

    for seed in (1, 2, 3):
        u = 8
        rng = np.random.Generator(np.random.Philox(key=[seed, 77]))
        g = rng.standard_normal((2, 4 * u, u))
        h = (g[0] + 1j * g[1]) / np.sqrt(2.0)
        y = (lambda gg: (gg[0] + 1j * gg[1]) / np.sqrt(2.0))(
            rng.standard_normal((2, 4 * u))
        )
        g0 = detect.gramian(h, 0.0, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        outs = [
            detect.soft_estimate(DetectorSpec(Kind.MMSE, be), g0, x_mf, 0.25, 0.0, OpCount())
            for be in Backend
        ]
        spread = max(
            np.linalg.norm(a - b) / np.linalg.norm(b)
            for a in outs for b in outs if a is not b
        )
        rows.append((f"mmse backend equivalence seed={seed}", spread <= 1e-8,
                     f"max pairwise relative diff {spread:.2e}"))

    spot = [
        (complexity.Algo.CHOLESKY, 8, 1, 392),
        (complexity.Algo.LDL, 16, 1, 3680),
        (complexity.Algo.QR, 32, 1, 133120),
        (complexity.Algo.NSA, 16, 3, 2 * (2 * 16**3 + 2 * 16**2 - 2 * 16)),
        (complexity.Algo.GS, 16, 3, 6 * 3 * 256),
        (complexity.Algo.CG, 16, 3, 4 * (4 * 256 + 20 * 16)),
    ]
    for algo, u, t, expected in spot:
        got = complexity.formula_rm(algo, u, t)
        rows.append((f"formula {algo.value} U={u} t={t}", got == expected,
                     f"expected {expected}, got {got}"))

    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}", file=stream)
    n_fail = sum(1 for _, ok, _ in rows if not ok)
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed", file=stream)
    return rows


def cmd_selftest(args) -> int:
    rows = run_selftest(corrupt_counts=args.corrupt_counts)
    return 0 if all(ok for _, ok, _ in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimodet",
        description="Massive MIMO detection simulator: BER sweeps and "
        "real-multiplication complexity tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="run a Monte-Carlo BER sweep, write CSV")
    ber.add_argument("--preset", help="named sweep: " + ", ".join(PRESETS))
    ber.add_argument("--config", help="JSON experiment file (flags override)")
    ber.add_argument("--n", type=int, help="BS antennas")
    ber.add_argument("--u", type=int, help="single-antenna users")
    ber.add_argument("--mod", help="qpsk | 16qam | 64qam")
    ber.add_argument("--snr", help="SNR grid start:step:stop in dB, or comma list")
    ber.add_argument("--det", action="append",
                     help="detector spec kind[:backend][:t=K][:beta=X][:bscale=X]; repeatable")
    ber.add_argument("--trials", type=int, help="Monte-Carlo trials per SNR point")
    ber.add_argument("--seed", type=int, help="master seed (required with --preset)")
    ber.add_argument("--stop-at", dest="stop_at", type=int,
                     help="stop a point early after this many bit errors (0 disables)")
    ber.add_argument("--threads", type=int, help="worker process cap (results unchanged)")
    ber.add_argument("--out-dir", dest="out_dir", help="output directory")
    ber.set_defaults(func=cmd_ber)

    comp = sub.add_parser("complexity", help="write the fig7 complexity table CSV")
    comp.add_argument("--u", default=",".join(str(v) for v in complexity.DEFAULT_U_LIST),
                      help="comma list of user counts")
    comp.add_argument("--t", type=int, default=complexity.DEFAULT_T,
                      help="iterations for the iterative detector models")
    comp.add_argument("--out", default="complexity.csv", help="output CSV path")
    comp.set_defaults(func=cmd_complexity)

    selftest = sub.add_parser("selftest", help="run the fast invariant suite")
    selftest.add_argument("--corrupt-counts", action="store_true",
                          help=argparse.SUPPRESS)  # negative-control hook
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DecompositionError, detect.DetectError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except montecarlo.WorkerDied as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
