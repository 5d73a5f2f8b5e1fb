"""Command-line front end: BER sweeps, complexity tables, self test.

Exit codes: 0 success, 1 failed self test, 2 configuration error
(diagnostic names the offending field; nothing has run), 3 runtime
failure (numerical, a sweep worker process that died, whose diagnostic
names its chunk, or an output that could not be written).
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads so CSV output is byte-identical
# for any --threads value (worker parallelism happens at process level).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import io
import sys
from pathlib import Path

import numpy as np

from . import complexity, detect, montecarlo, phy
from .detect import SOLVE_ERRORS, Backend, ConfigError, DetectorSpec, Kind
from .kernels import OpCount
from .montecarlo import SweepConfig, as_count

# modulation name -> constellation order: phy's names, and 4qam for qpsk
_MOD_ORDERS = {**{name: order for order, name in phy.MOD_NAMES.items()}, "4qam": 4}
# the most points an SNR range may give (the presets have 7-11)
_MAX_SNR_POINTS = 10_000
# detector-spec option -> (DetectorSpec field, parser); a bare option is the backend
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


# settings a preset fixes; the other flags override it
_PRESET_FIXED = ("n", "u", "mod", "snr", "det")
# the other sweep settings -> their SweepConfig field; left out, the field's default holds
_SWEEP_OPTIONAL = {"seed": "master_seed", "trials": "trials", "stop_at": "stop_at_errors",
                   "threads": "workers"}
# the keys a sweep entry may hold; a flat experiment file holds these and out_dir
_SWEEP_KEYS = _PRESET_FIXED + tuple(_SWEEP_OPTIONAL)


def parse_snr_range(text: str) -> tuple[float, ...]:
    """SNR grid from a comma list, or from a finite 'start:step:stop'
    (inclusive) of at most ``_MAX_SNR_POINTS`` points."""
    try:
        if ":" not in text:
            return tuple(float(v) for v in text.split(","))
        start, step, stop = (float(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError("snr", f"cannot parse SNR range {text!r}") from None
    if not np.isfinite([start, step, stop]).all():
        raise ConfigError("snr", f"SNR range {text!r} needs a finite start, step and stop")
    if step <= 0 or stop < start:
        raise ConfigError("snr", f"cannot parse SNR range {text!r}")
    points: list[float] = []
    while start + len(points) * step <= stop + 1e-9:
        if len(points) == _MAX_SNR_POINTS:
            raise ConfigError("snr", f"SNR range {text!r} has more than {_MAX_SNR_POINTS:,} points")
        points.append(round(start + len(points) * step, 9))
    return tuple(points)


def parse_detector(text: str) -> DetectorSpec:
    """Detector grammar: kind[:backend][:t=K][:beta=X][:bscale=X].

    Each option sets one ``DetectorSpec`` field, which the spec checks. An unknown
    or repeated option, or a value its type refuses, is a ConfigError naming ``det``.
    """
    kind_name, *opts = text.lower().split(":")
    try:
        kind = Kind(kind_name)
    except ValueError:
        raise ConfigError("det", f"unknown detector {kind_name!r}") from None
    fields: dict = {}
    for opt in opts:
        key, eq, val = opt.rpartition("=")  # a bare option is the key "" with no "="
        field_name, cast = _SPEC_OPTIONS.get(key, (None, None)) if eq else ("backend", Backend)
        if cast is None:
            raise ConfigError("det", f"unknown detector option {key!r}")
        if field_name in fields:
            raise ConfigError("det", f"{opt!r} sets {field_name} again in {text!r}")
        try:
            fields[field_name] = cast(val)
        except ValueError:
            raise ConfigError("det", f"unknown backend {opt!r}" if cast is Backend
                              else f"bad value in {opt!r}") from None
    return DetectorSpec(kind, **fields)


def _reject_unknown(settings: dict, known: tuple[str, ...], where: str) -> None:
    """A key outside ``known`` is a ConfigError naming it, never silently dropped."""
    for key in settings:
        if key not in known:
            raise ConfigError(str(key), f"unknown key in {where} (expected one of "
                              f"{', '.join(known)})")


def build_sweep(settings: dict) -> SweepConfig:
    """SweepConfig from a flat settings mapping (file and/or flags)."""
    _reject_unknown(settings, _SWEEP_KEYS, "a sweep")
    for key in _PRESET_FIXED:
        if settings.get(key) is None:
            raise ConfigError(key, "missing required setting")
    det = [settings["det"]] if isinstance(settings["det"], str) else settings["det"]
    if not isinstance(det, (list, tuple)):
        raise ConfigError("det", f"must be a detector spec or a list of them, got {det!r}")
    specs = tuple(parse_detector(piece) for d in det for piece in str(d).split(","))
    snr = settings["snr"]  # a range string is parsed here, a list checked by SweepConfig
    mod = str(settings["mod"])
    if mod.lower() not in _MOD_ORDERS:
        raise ConfigError("mod", f"unknown modulation {mod!r}")
    optional = {field_name: settings[key] for key, field_name in _SWEEP_OPTIONAL.items()
                if settings.get(key) is not None}
    stop_at = optional.get("stop_at_errors")
    if stop_at is not None and (stop_at == "none" or as_count("stop_at", stop_at, 0) == 0):
        optional["stop_at_errors"] = None  # a stop_at of 0 or "none" disables the early stop
    return SweepConfig(n=settings["n"], u=settings["u"], order=_MOD_ORDERS[mod.lower()],
                       snr_db=parse_snr_range(snr) if isinstance(snr, str) else snr,
                       detectors=specs, **optional)


def ber_csv(config: SweepConfig, records: list[montecarlo.BerRecord]) -> str:
    """The BER CSV of ``config``'s sweep, one row per record, each row's
    ``n,u,mod`` taken from ``config``; a field that holds a comma (ADMIN's
    ``params``) is quoted as RFC 4180 says."""
    import csv  # here, so that importing the module does not load it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow("n,u,mod,detector,params,snr_db,trials,bit_errors,bits,ber,stderr".split(","))
    for r in records:
        writer.writerow([config.n, config.u, phy.MOD_NAMES[config.order], r.detector, r.params,
                         repr(float(r.snr_db)), r.trials_run, r.bit_errors, r.bits_total,
                         repr(float(r.ber)), repr(float(r.stderr))])
    return out.getvalue()


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key, which ``json`` overwrites, is a ConfigError."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(key, "repeated key in the experiment file")
        data[key] = value
    return data


def _load_experiment_file(path: str) -> dict:
    import json  # here, so that importing the module does not load it

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except ConfigError:  # a repeated key, named by _unique_keys
        raise
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config", "experiment file must hold a JSON object")
    return data


def complexity_request(u: str | None, t: str | None) -> tuple[tuple[int, ...], int]:
    """Validated (U list, t) of a complexity table from the text of ``--u``
    (a comma list) and ``--t``; None takes the default."""
    u_list = complexity.DEFAULT_U_LIST if u is None else tuple(
        as_count("u", v) for v in u.split(","))
    if len(set(u_list)) < len(u_list):  # a repeated U would write its rows twice
        raise ConfigError("u", f"repeats a user count in {u!r}")
    t = complexity.DEFAULT_T if t is None else as_count("t", t)
    if t == 1:
        print("# warning: t=1 makes the Neumann-series model zero "
              "(its (t-1) factor)", file=sys.stderr)
    return u_list, t


def _write(path: Path, text: str) -> None:
    """The one writer: makes ``path``'s directory as needed, writes ``text``, prints ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(path)


def _check_output(path: Path, field_name: str) -> None:
    """A ConfigError naming ``field_name`` if ``path`` is a directory or lies under a file."""
    if os.path.isdir(path):
        raise ConfigError(field_name, f"{path} is a directory")
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise ConfigError(field_name, f"{parent} exists and is not a directory")
            return


def plan_ber(args) -> list[tuple[Path, SweepConfig]]:
    """Validate a ``ber`` invocation without running any of it.

    Returns one (path, config) per sweep: its BER CSV ``ber_<N>x<U>_<mod>.csv``
    in the output directory, checked to be a file of its own that can be made.
    """
    file_data = _load_experiment_file(args.config) if args.config else {}
    _reject_unknown(file_data, ("sweeps", "out_dir") if "sweeps" in file_data
                    else _SWEEP_KEYS + ("out_dir",), "the experiment file")
    for value in (file_data.get("out_dir"), args.out_dir):  # the file's, under the flag too
        if value is not None and (not isinstance(value, str) or not value):
            raise ConfigError("out_dir", f"must be a non-empty path, got {value!r}")
    out_dir = Path(args.out_dir or file_data.get("out_dir") or ".")

    flag_settings = {key: getattr(args, key) for key in _SWEEP_KEYS}
    overrides = {k: v for k, v in flag_settings.items() if v is not None}
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
        for key in file_data:
            if key != "out_dir":
                raise ConfigError(key, f"an experiment file cannot change --preset {args.preset} "
                                  "(it may hold only out_dir); use flags")
        entries = [PRESETS[args.preset]]
    elif "sweeps" in file_data:
        entries = file_data["sweeps"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ConfigError("sweeps", "must be a list of sweep objects")
        if not entries:
            raise ConfigError("sweeps", "needs at least one sweep")
    else:
        entries = [{k: v for k, v in file_data.items() if k != "out_dir"}]
    plan: list[tuple[Path, SweepConfig]] = []
    for cfg in [build_sweep({**entry, **overrides}) for entry in entries]:  # all, then paths
        path = out_dir / f"ber_{cfg.n}x{cfg.u}_{phy.MOD_NAMES[cfg.order]}.csv"
        if any(path == planned for planned, _ in plan):
            raise ConfigError("sweeps", f"two sweeps would be written to {path}")
        _check_output(path, "out_dir")
        plan.append((path, cfg))
    return plan


def cmd_ber(args) -> int:
    for path, cfg in plan_ber(args):
        print(f"# sweep {cfg.n}x{cfg.u} {phy.MOD_NAMES[cfg.order]}, {len(cfg.snr_db)} SNR points, "
              f"trials={cfg.trials}, seed={cfg.master_seed}; snr convention: "
              "sigma2 = U / 10^(snr_db/10) (per-BS-antenna receive SNR)", file=sys.stderr)
        records = montecarlo.run_sweep(cfg, progress=lambda msg: print("# " + msg, file=sys.stderr))
        _write(path, ber_csv(cfg, records))
    return 0


def cmd_complexity(args) -> int:
    table = complexity_request(args.u, args.t)
    _check_output(Path(args.out), "out")
    _write(Path(args.out), complexity.table_csv(*table))
    return 0


def run_selftest() -> list[tuple[str, bool, str]]:
    """Fast invariant suite: prints one PASS or FAIL line per check."""
    rows: list[tuple[str, bool, str]] = []

    # each decomposition's whole measured tally against its closed forms
    # (square roots and reciprocals as in ``decomp``'s docstring)
    for backend in Backend:
        for u in (2, 4, 8, 16, 32, 64):
            expected = OpCount(sqrt=0 if backend is Backend.LDL else u, reciprocal=u,
                               real_mul=complexity.formula_rm(backend, u))
            measured = complexity.measure_rm(backend, u)
            rows.append((f"{backend.value} tally U={u}", measured == expected,
                         f"expected {expected}, measured {measured}"))

    from .decomp import cholesky, gram_schmidt_qr, ldl

    for u in (8, 16):
        a = complexity.seeded_gramian(u, seed=1)
        scale = np.linalg.norm(a)
        q, r = gram_schmidt_qr(a, OpCount())
        qr_resid = np.linalg.norm(q @ r - a) / scale
        orth = np.abs(q.conj().T @ q - np.eye(u)).max()
        c = cholesky(a, OpCount())
        ch_resid = np.linalg.norm(c @ c.conj().T - a) / scale
        l, d = ldl(a, OpCount())
        ld_resid = np.linalg.norm(l @ np.diag(d) @ l.conj().T - a) / scale
        worst = max(qr_resid, ch_resid, ld_resid, orth)
        rows.append((f"decomposition residuals U={u}", worst <= 1e-10,
                     f"worst {worst:.2e} (bound 1e-10)"))

    for seed in (1, 2, 3):
        u = 8
        rng = phy.substream(seed, 77)
        h = phy.complex_gaussian((4 * u, u), rng)
        y = phy.complex_gaussian((4 * u,), rng)
        g0 = detect.gramian(h, 0.0, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        ref = np.linalg.solve(g0 + 0.25 * np.eye(u), x_mf)  # LAPACK oracle
        spread = max(
            np.linalg.norm(
                detect.soft_estimate(DetectorSpec(Kind.MMSE, be), g0, x_mf, 0.25, 0.0, OpCount())
                - ref) / np.linalg.norm(ref)
            for be in Backend
        )
        rows.append((f"mmse backend equivalence seed={seed}", spread <= 1e-8,
                     f"max relative diff to LAPACK {spread:.2e}"))

    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    n_fail = sum(1 for _, ok, _ in rows if not ok)
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return rows


def cmd_selftest(args) -> int:
    rows = run_selftest()
    return 0 if all(ok for _, ok, _ in rows) else 1


def build_parser():
    """The command line's ``argparse.ArgumentParser``."""
    import argparse  # here, so that importing the module does not load it

    parser = argparse.ArgumentParser(
        prog="mimodet",
        description="Massive MIMO detection simulator: BER sweeps and "
        "real-multiplication complexity tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="run a Monte-Carlo BER sweep, write CSV")
    ber.add_argument("--preset", help="named sweep: " + ", ".join(PRESETS))
    ber.add_argument("--config", help="JSON experiment file (flags override)")
    ber.add_argument("--n", help="BS antennas")
    ber.add_argument("--u", help="single-antenna users")
    ber.add_argument("--mod", help=" | ".join(phy.MOD_NAMES.values()))
    ber.add_argument("--snr", help="SNR grid start:step:stop in dB, or comma list")
    ber.add_argument("--det", action="append",
                     help="detector spec kind[:backend][:t=K][:beta=X][:bscale=X]; repeatable")
    ber.add_argument("--trials", help="Monte-Carlo trials per SNR point")
    ber.add_argument("--seed", help="master seed (required with --preset)")
    ber.add_argument("--stop-at", dest="stop_at",
                     help="stop a point early after this many bit errors (0 or none disables)")
    ber.add_argument("--threads", help="worker process cap, at most the usable CPUs (same output)")
    ber.add_argument("--out-dir", dest="out_dir", help="output directory")
    ber.set_defaults(func=cmd_ber)

    comp = sub.add_parser("complexity", help="write the fig7 complexity table CSV")
    comp.add_argument("--u", help="comma list of user counts")
    comp.add_argument("--t", help="iterations for the iterative detector models")
    comp.add_argument("--out", default="complexity.csv", help="output CSV path")
    comp.set_defaults(func=cmd_complexity)

    selftest = sub.add_parser("selftest", help="run the fast invariant suite")
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
    except SOLVE_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except montecarlo.WorkerDied as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an unreadable experiment file is a ConfigError already
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
