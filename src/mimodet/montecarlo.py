"""Monte-Carlo BER engine.

Sweeps SNR x detector over i.i.d. Rayleigh block-fading trials with
common random numbers: every detector at a given (SNR point, trial
index) sees the identical (bits, H, noise) realization, drawn from a
Philox stream keyed by (master_seed, trial_index); only the noise scale
depends on the point. Aggregation is integer bit-error counting in fixed
chunk order, so results are byte-identical regardless of worker count.

The sweep is chunk-major: chunks run in trial order, and each is drawn
once and evaluated for every SNR point still running. A trial costs one
draw, and its Gramian G0 = H^H H, its matched filter H^H n of unit noise
and its column norms are formed once per sweep, in stacked products
over the chunk's trials, whatever the number of points. Each point's
matched filters and SIMO estimates follow by stacked arithmetic on the
chunk. Every detector then solves all the points it runs on in one
``detect.soft_estimate`` call per chunk, on a (points, trials, U)
stack: NSA and GS shift only G0's diagonal, ZF (and ADMIN with a fixed
beta) factor G0 once for every point, and MMSE, CG and ADMIN with
``beta_scale`` regularize one (points, trials, U, U) copy of G0. Every
stack is bounded by one working-set budget, ``_WORKING_SET``: where a
chunk's stack would pass it, its trials (products) or points (solves)
are split into blocks that fit, one call each, so each call's arrays
stay cache-sized. Each (chunk, detector) is sliced and scored once.
The sweep needs values only, so it calls every product and solver with
``acc=None`` and tallies nothing: an operation count depends on shapes
alone and is taken outside the sweep (``complexity``). The solvers
raise on the first system they cannot solve; a stacked solve that
raises is solved again one (point, trial) at a time, so a numerical
failure costs only its own trial.

Early stopping is per (SNR point, detector): once a detector has
accumulated ``stop_at_errors`` bit errors its tally is frozen at the end
of that chunk, and later chunks skip it (and a point with none left).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import detect, phy
from .detect import SOLVE_ERRORS, DetectorSpec, Kind
from .kernels import hermitian, matvec

# Working-set budget of one stacked call, in bytes: a block of trials'
# H and H^H (``_products``), or a group of points' regularized
# Gramians with the three copies a QR of them makes (``_eval_trials``).
# Measured on 32x32 and 256x16 sweeps: larger budgets were no faster and
# raised the peak RSS.
_WORKING_SET = 1 << 20


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
    stop_at_errors: int | None = 200  # a desk-scale early stop; None runs every trial
    workers: int = 1
    chunk_size: int = 100

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError("n", "must be a positive antenna count")
        if self.u < 1 or self.u > self.n:
            raise ConfigError("u", f"must satisfy 1 <= u <= n, got u={self.u}, n={self.n}")
        if self.order not in phy.MOD_NAMES:
            raise ConfigError("mod", f"unsupported constellation order {self.order}")
        if not self.snr_db:
            raise ConfigError("snr", "needs at least one SNR point")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("snr", "points must be strictly increasing")
        try:
            sigma2 = [phy.sigma2_from_snr(snr, self.u) for snr in self.snr_db]
        except (OverflowError, ZeroDivisionError):
            sigma2 = [np.nan]
        if not all(0 < s2 < np.inf for s2 in sigma2):
            raise ConfigError("snr", "every point must give a finite noise variance sigma2 > 0")
        if not self.detectors:
            raise ConfigError("det", "needs at least one detector")
        try:
            for spec in self.detectors:
                if spec.kind is Kind.ADMIN:
                    for s2 in sigma2:
                        spec.admin_beta(s2)
        except ValueError as exc:
            raise ConfigError("det", str(exc)) from None
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if self.stop_at_errors is not None and self.stop_at_errors < 1:
            raise ConfigError("stop_at", "must be >= 1 when set")
        if self.workers < 1:
            raise ConfigError("threads", "must be >= 1")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size", "must be >= 1")
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


def _products(
    config: SweepConfig, lo: int, hi: int, need_g0: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Bits, symbols, H^H n, column norms ||h_k||^2 and G0 = H^H H (None
    unless ``need_g0``) of trials [lo, hi), each stacked over the trials.

    Each trial is drawn once with unit noise n; the three products share
    one H^H.
    """
    draws = (trial_realization(config, 1.0, trial) for trial in range(lo, hi))
    bits, x, h, n = (np.stack(v) for v in zip(*draws))
    h_h = hermitian(h)
    return (bits, x, detect.matched_filter(h, n, None, h_h=h_h),
            np.einsum("...kn,...nk->...k", h_h, h).real,
            detect.gramian(h, 0.0, None, h_h=h_h) if need_g0 else None)


def _eval_trials(
    config: SweepConfig,
    snr_points: tuple[float, ...],
    lo: int,
    hi: int,
    active: tuple[tuple[int, ...], ...],
) -> list[list[list[int]]]:
    """Errors/failures per point and detector over trials [lo, hi); chunk worker.

    The chunk's products come from ``_products``, in blocks of trials
    whose H and H^H fit ``_WORKING_SET``; G0 only while a detector other
    than SIMO runs. With s = sqrt(sigma2), y = H x + s n, so every
    point's matched filter is the stacked sum x_mf = G0 x + s H^H n. The
    SIMO bound detects each user k as if alone, y_k = h_k x_k + s n, by
    maximum-ratio combining:
    h_k^H y_k / ||h_k||^2 = x_k + s h_k^H n / ||h_k||^2. Sliced, this is
    the interference-free lower bound on any multiuser detector.

    Each detector runs on the points whose ``active`` entry holds it, in
    one ``_solve_chunk`` call for all of them, unless it regularizes a
    copy of G0 per point (``DetectorSpec.per_point_gramian``): then in
    groups of points whose copies, four times over, fit ``_WORKING_SET``.
    The points it skips report zeros. A trial whose estimate is not
    finite counts every bit as an error and one failure; the rest of the
    chunk is scored as usual.
    """
    const = phy.make_constellation(config.order)
    need_g0 = any(config.detectors[d].kind is not Kind.SIMO for act in active for d in act)
    block = max(1, _WORKING_SET // (2 * config.n * config.u * 16))
    blocks = [_products(config, a, min(a + block, hi), need_g0) for a in range(lo, hi, block)]
    bits, x, n_mf, norms, g0 = (None if v[0] is None else np.concatenate(v) for v in zip(*blocks))
    sigma2 = np.array([phy.sigma2_from_snr(snr, config.u) for snr in snr_points])[:, None, None]
    s = np.sqrt(sigma2)
    gx = None if g0 is None else matvec(g0, x, None)

    out = [[[0, 0] for _ in config.detectors] for _ in snr_points]
    for d, spec in enumerate(config.detectors):
        points = [p for p, act in enumerate(active) if d in act]
        if not points:
            continue
        if spec.kind is Kind.SIMO:
            soft = x + s[points] * n_mf / norms
        else:
            x_mf, s2 = gx + s[points] * n_mf, sigma2[points]
            group = max(1, _WORKING_SET // (4 * g0.nbytes)) if spec.per_point_gramian else len(points)
            soft = np.concatenate([
                _solve_chunk(spec, g0, x_mf[i:i + group], s2[i:i + group], const.box_radius)
                for i in range(0, len(points), group)])
        for p, score in zip(points, _score(soft, bits, const)):
            out[p][d] = score
    return out


def _score(soft: np.ndarray, bits: np.ndarray, const: phy.Constellation) -> list[list[int]]:
    """[bit errors, failures] per point of (points, trials, U) estimates.

    A trial whose estimate is not finite counts every bit as an error and
    one failure.
    """
    failed = ~np.isfinite(soft).all(axis=-1)
    _, bits_hat = phy.hard_slice(np.where(failed[..., None], 0.0, soft), const)
    errors = np.count_nonzero(bits_hat.reshape(failed.shape + bits.shape[-1:]) != bits, axis=-1)
    errors[failed] = bits.shape[-1]
    return np.stack([errors.sum(axis=-1), failed.sum(axis=-1)], axis=-1).tolist()


def _solve_chunk(
    spec: DetectorSpec, g0: np.ndarray, x_mf: np.ndarray, sigma2: float | np.ndarray,
    box: float,
) -> np.ndarray:
    """One stacked, uncounted ``soft_estimate``; if it raises, each system
    again on its own.

    ``x_mf`` is (trials, U) with a float ``sigma2``, or (points, trials,
    U) with ``sigma2`` shaped (points, 1, 1). A (point, trial) whose own
    solve raises gets a NaN estimate, which ``_score`` counts as a
    failure.
    """
    try:
        return detect.soft_estimate(spec, g0, x_mf, sigma2, box, None)
    except SOLVE_ERRORS:
        pass
    soft = np.full(x_mf.shape, np.nan, dtype=np.complex128)
    for idx in np.ndindex(x_mf.shape[:-1]):
        s2 = np.asarray(sigma2)[idx[:-1]].item()
        try:
            soft[idx] = detect.soft_estimate(spec, g0[idx[-1]], x_mf[idx], s2, box, None)
        except SOLVE_ERRORS:
            pass
    return soft


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

    def work(chunk_idx: int) -> tuple[tuple[int, ...], tuple]:
        """The points a chunk runs on now, and ``_eval_trials``' arguments for it."""
        points = running()
        lo, hi = chunks[chunk_idx]
        return points, (config, tuple(config.snr_db[p] for p in points), lo, hi,
                        tuple(tuple(d for d in range(ndet) if not stopped[p][d]) for p in points))

    # the pool module is imported only when a pool starts; its attributes
    # are looked up at call time, so a wrapper installed on it sees them
    pool = None
    if config.workers > 1:
        import concurrent.futures as cf

        pool = cf.ProcessPoolExecutor(max_workers=config.workers)
    pending: dict = {}  # future -> (chunk index, points)
    results: dict[int, tuple[tuple[int, ...], list]] = {}
    next_submit = next_merge = 0
    try:
        while running():
            if pool is None:  # one worker: the next chunk, evaluated inline
                points, args = work(next_submit)
                results[next_submit] = (points, _eval_trials(*args))
                next_submit += 1
            else:
                while len(pending) < config.workers and next_submit < len(chunks):
                    points, args = work(next_submit)
                    pending[pool.submit(_eval_trials, *args)] = (next_submit, points)
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
    interpolation. Returns None when the curve never crosses the target.
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


def curve(records: list[BerRecord], detector: str, params: str | None = None):
    """(snr, ber, bits) points of one detector, sorted by SNR."""
    pts = [
        (r.snr_db, r.ber, r.bits_total)
        for r in records
        if r.detector == detector and (params is None or r.params == params)
    ]
    return sorted(pts)
