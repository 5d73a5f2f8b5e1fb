"""Monte-Carlo BER engine.

Sweeps SNR x detector over i.i.d. Rayleigh block-fading trials with
common random numbers: every detector at a given (SNR point, trial
index) sees the identical (bits, H, noise) realization, drawn from a
Philox stream keyed by (master_seed, trial_index); only the noise scale
depends on the point. Aggregation is integer bit-error counting in fixed
chunk order, so results are byte-identical regardless of worker count.

The sweep is chunk-major: chunks run in trial order, and each is drawn
once and evaluated for every SNR point still running, so a trial costs
one draw and one Gramian per sweep. Each detector runs one stacked
solve and one slice per (point, chunk); a numerical failure is a
per-trial mask, so it costs only its own trial.

Early stopping is per (SNR point, detector): once a detector has
accumulated ``stop_at_errors`` bit errors its tally is frozen at the end
of that chunk, and later chunks skip it (and a point with none left).
"""

from __future__ import annotations

import concurrent.futures as cf
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import detect, phy
from .decomp import DecompositionError
from .detect import DetectorSpec, Kind
from .kernels import OpCount


class ConfigError(ValueError):
    """Invalid sweep configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class WorkerDied(RuntimeError):
    """A pool worker died; ``chunks`` holds the (SNR points, lo, hi) lost with it."""

    def __init__(self, chunks: list[tuple[tuple[float, ...], int, int]]):
        super().__init__("a pool worker died evaluating " + "; ".join(
            f"trials [{lo}, {hi}) at SNR {', '.join(f'{s:g}' for s in snr)} dB"
            for snr, lo, hi in chunks))
        self.chunks = chunks


@dataclass(frozen=True)
class SweepConfig:
    n: int
    u: int
    order: int
    snr_db: tuple[float, ...]
    detectors: tuple[DetectorSpec, ...]
    trials: int = 2000
    master_seed: int = 1
    stop_at_errors: int | None = 200
    workers: int = 1
    chunk_size: int = 100

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError("n", "must be a positive antenna count")
        if self.u < 1 or self.u > self.n:
            raise ConfigError("u", f"must satisfy 1 <= u <= n, got u={self.u}, n={self.n}")
        if self.order not in (4, 16, 64):
            raise ConfigError("mod", f"unsupported constellation order {self.order}")
        if not self.snr_db:
            raise ConfigError("snr", "needs at least one SNR point")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("snr", "points must be strictly increasing")
        if not self.detectors:
            raise ConfigError("det", "needs at least one detector")
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if self.stop_at_errors is not None and self.stop_at_errors < 1:
            raise ConfigError("stop_at", "must be >= 1 when set")
        if self.workers < 1:
            raise ConfigError("threads", "must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("seed", "must be in [0, 2**64)")


@dataclass
class BerRecord:
    n: int
    u: int
    order: int
    detector: str
    params: str
    snr_db: float
    trials_run: int
    bit_errors: int
    bits_total: int
    failures: int
    ber: float = field(init=False)
    stderr: float = field(init=False)

    def __post_init__(self):
        self.ber = self.bit_errors / self.bits_total if self.bits_total else 0.0
        p = self.ber
        self.stderr = (
            float(np.sqrt(p * (1.0 - p) / self.bits_total)) if self.bits_total else 0.0
        )


def trial_realization(
    config: SweepConfig, sigma2: float, trial_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (bits, x, H, noise) realization every detector of a trial sees."""
    const = phy.make_constellation(config.order)
    rng = phy.substream(config.master_seed, trial_index)
    bits = rng.integers(0, 2, size=config.u * const.bits_per_symbol, dtype=np.uint8)
    x = phy.modulate(bits, const)
    h = phy.draw_channel(config.n, config.u, rng)
    noise = np.sqrt(sigma2) * phy.draw_noise_unit(config.n, rng)
    return bits, x, h, noise


def _simo_soft(h: np.ndarray, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Soft estimates of the SIMO bound on the shared realization.

    Each user k is detected as if alone: y_k = h_k x_k + noise with the
    trial's noise (sigma2 = U / snr_lin, the sweep's convention), then
    maximum-ratio combining h_k^H y_k / ||h_k||^2. Sliced, this is the
    interference-free lower bound on any multiuser detector.
    """
    y = h * x + noise[:, None]
    return np.einsum("nk,nk->k", h.conj(), y) / np.einsum("nk,nk->k", h.conj(), h).real


def _eval_trials(
    config: SweepConfig,
    snr_points: tuple[float, ...],
    lo: int,
    hi: int,
    active: tuple[tuple[int, ...], ...],
) -> list[list[list[int]]]:
    """Errors/failures per point and detector over trials [lo, hi); chunk worker.

    Each trial is drawn once with unit noise; its Gramian and H x are
    formed once (not when only SIMO runs), its matched filter or SIMO
    estimates once per point with the noise scaled to that point's
    sigma2. At point p each detector in ``active[p]`` runs one stacked
    solve and one slice; the others report zeros. A trial whose solve
    fails, or whose estimate is not finite, counts every bit as an error
    and one failure; the rest of the chunk is scored as usual.
    """
    const = phy.make_constellation(config.order)
    box = const.box_radius
    bits_per_trial = config.u * const.bits_per_symbol
    sigma2 = [phy.sigma2_from_snr(snr, config.u) for snr in snr_points]
    kinds = [{config.detectors[d].kind for d in act} for act in active]
    need_simo = [Kind.SIMO in k for k in kinds]
    need_mf = [bool(k - {Kind.SIMO}) for k in kinds]
    scratch = OpCount()
    bits, g0 = [], []
    x_mf = [[] for _ in snr_points]
    simo = [[] for _ in snr_points]
    for trial in range(lo, hi):
        b, x, h, unit = trial_realization(config, 1.0, trial)
        bits.append(b)
        if any(need_mf):
            g0.append(detect.gramian(h, 0.0, scratch))
            hx = h @ x
        for p, s2 in enumerate(sigma2):
            noise = np.sqrt(s2) * unit
            if need_mf[p]:
                x_mf[p].append(detect.matched_filter(h, hx + noise, scratch))
            if need_simo[p]:
                simo[p].append(_simo_soft(h, x, noise))
    bits, g0 = np.stack(bits), np.stack(g0) if g0 else None
    x_mf = [np.stack(v) if v else None for v in x_mf]

    out = []
    for p, act in enumerate(active):
        point = [[0, 0] for _ in config.detectors]
        for d in act:
            spec = config.detectors[d]
            failed = np.zeros(hi - lo, dtype=bool)
            if spec.kind is Kind.SIMO:
                soft = np.stack(simo[p])
            else:
                try:
                    soft = detect.soft_estimate(spec, g0, x_mf[p], sigma2[p], box, scratch,
                                                failed)
                except (DecompositionError, detect.DetectError, FloatingPointError):
                    # a solve that raises despite the mask fails the whole chunk
                    point[d] = [bits_per_trial * (hi - lo), hi - lo]
                    continue
            failed |= ~np.isfinite(soft).all(axis=1)
            _, bits_hat = phy.hard_slice(np.where(failed[:, None], 0.0, soft), const)
            errors = np.count_nonzero(bits_hat.reshape(bits.shape) != bits, axis=1)
            errors[failed] = bits_per_trial
            point[d] = [int(errors.sum()), int(failed.sum())]
        out.append(point)
    return out


def run_trial(
    config: SweepConfig, snr_db: float, detector: DetectorSpec, trial_index: int
) -> int:
    """Bit errors of one detector on one trial (common-random-number draw)."""
    config.validate()
    one = dataclasses.replace(config, detectors=(detector,))
    return _eval_trials(one, (snr_db,), trial_index, trial_index + 1, ((0,),))[0][0][0]


def run_sweep(config: SweepConfig, progress=None) -> list[BerRecord]:
    """Full SNR x detector sweep; deterministic for a fixed master seed.

    Chunks run in trial order, each drawn once for every point still
    running; ``progress`` gets one line per point when it ends. With
    ``workers`` > 1 that many chunks run ahead in a process pool and
    merge in order; a worker that dies raises ``WorkerDied``. Library
    callers must pin ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
    ``MKL_NUM_THREADS`` to 1 before they import numpy: the stacked solves
    call BLAS on small matrices, where its threads only contend.
    """
    config.validate()
    bits_per_trial = config.u * phy.make_constellation(config.order).bits_per_symbol
    npts, ndet = len(config.snr_db), len(config.detectors)
    errors = [[0] * ndet for _ in range(npts)]
    failures = [[0] * ndet for _ in range(npts)]
    trials_run = [[config.trials] * ndet for _ in range(npts)]
    stopped = [[False] * ndet for _ in range(npts)]
    records: list[list[BerRecord] | None] = [None] * npts
    chunks = [(lo, min(lo + config.chunk_size, config.trials))
              for lo in range(0, config.trials, config.chunk_size)]

    def running() -> tuple[int, ...]:
        return tuple(p for p in range(npts) if records[p] is None)

    def merge(chunk_idx: int, points: tuple[int, ...], chunk_out) -> None:
        hi = chunks[chunk_idx][1]
        for p, point_out in zip(points, chunk_out):
            if records[p] is not None:
                continue  # ended before this speculative chunk
            for d in range(ndet):
                if stopped[p][d]:
                    continue
                errors[p][d] += point_out[d][0]
                failures[p][d] += point_out[d][1]
                if config.stop_at_errors is not None and errors[p][d] >= config.stop_at_errors:
                    stopped[p][d] = True
                    trials_run[p][d] = hi
            if all(stopped[p]) or hi == config.trials:
                records[p] = [
                    BerRecord(config.n, config.u, config.order, spec.name, spec.params,
                              config.snr_db[p], trials_run[p][d], errors[p][d],
                              trials_run[p][d] * bits_per_trial, failures[p][d])
                    for d, spec in enumerate(config.detectors)
                ]
                if progress is not None:
                    progress(f"snr {config.snr_db[p]:g} dB done: "
                             + ", ".join(f"{r.detector}={r.ber:.3g}" for r in records[p]))

    pool = cf.ProcessPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    pending: dict[cf.Future, tuple[int, tuple[int, ...]]] = {}
    results: dict[int, tuple[tuple[int, ...], list]] = {}

    def submit(chunk_idx: int) -> None:
        points = running()
        lo, hi = chunks[chunk_idx]
        args = (config, tuple(config.snr_db[p] for p in points), lo, hi,
                tuple(tuple(d for d in range(ndet) if not stopped[p][d]) for p in points))
        if pool is not None:
            fut = pool.submit(_eval_trials, *args)
        else:  # one worker: the same loop with a window of one, evaluated inline
            fut = cf.Future()
            fut.set_result(_eval_trials(*args))
        pending[fut] = (chunk_idx, points)

    next_submit = next_merge = 0
    try:
        while running():
            while len(pending) < config.workers and next_submit < len(chunks):
                submit(next_submit)
                next_submit += 1
            done, _ = cf.wait(pending, return_when=cf.FIRST_COMPLETED)
            for fut in done:
                try:
                    results[pending[fut][0]] = (pending[fut][1], fut.result())
                except cf.BrokenExecutor:  # every chunk in flight is lost with it
                    raise WorkerDied([(tuple(config.snr_db[p] for p in points), *chunks[idx])
                                      for idx, points in sorted(pending.values())]) from None
                del pending[fut]
            # chunks merge in trial order; merge skips the points a chunk ran past
            while next_merge in results:
                merge(next_merge, *results.pop(next_merge))
                next_merge += 1
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [r for point in records for r in point]


def snr_at_ber(
    points: list[tuple[float, float, int]], target: float
) -> float | None:
    """SNR where the curve crosses ``target``, by log-linear interpolation.

    ``points`` are (snr_db, ber, bits_total) tuples in increasing SNR
    order. Zero BER values are floored at half an error for the
    interpolation. Returns None when the curve never crosses the target
    (the GapUndefined case).
    """
    if target <= 0:
        raise ValueError("target BER must be positive")

    def floored(ber: float, bits: int) -> float:
        return ber if ber > 0 else 0.5 / max(bits, 1)

    for (s0, b0, n0), (s1, b1, n1) in zip(points, points[1:]):
        f0, f1 = floored(b0, n0), floored(b1, n1)
        if f0 >= target >= f1:
            if f0 == f1:
                return s0
            frac = (np.log10(target) - np.log10(f0)) / (np.log10(f1) - np.log10(f0))
            return float(s0 + frac * (s1 - s0))
    return None


@dataclass
class GapRow:
    detector_a: str
    detector_b: str
    target_ber: float
    snr_a: float | None
    snr_b: float | None
    gap_db: float | None  # snr_b - snr_a; None when either side is undefined

    @property
    def undefined(self) -> bool:
        return self.gap_db is None


def curve(records: list[BerRecord], detector: str, params: str | None = None):
    """(snr, ber, bits) points of one detector, sorted by SNR."""
    pts = [
        (r.snr_db, r.ber, r.bits_total)
        for r in records
        if r.detector == detector and (params is None or r.params == params)
    ]
    return sorted(pts)


def summarize(records: list[BerRecord], target_ber: float) -> list[GapRow]:
    """Horizontal SNR gaps between every detector pair at a target BER."""
    names: list[tuple[str, str]] = []
    for r in records:
        key = (r.detector, r.params)
        if key not in names:
            names.append(key)
    crossings = {
        key: snr_at_ber(curve(records, key[0], key[1]), target_ber) for key in names
    }
    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            sa, sb = crossings[a], crossings[b]
            gap = None if sa is None or sb is None else sb - sa
            rows.append(GapRow(a[0], b[0], target_ber, sa, sb, gap))
    return rows
