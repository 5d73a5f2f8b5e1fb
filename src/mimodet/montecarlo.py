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
stack and the chunk's one G0 stack: no point takes a copy of G0. In the
exact and ADMIN solves the backend gives the failure rule and the count
(taken outside the sweep), and the spectrum of G0 gives the estimate
(see ``detect``). The products are formed in blocks of trials whose H
and H^H fit ``WORKING_SET``. Each (chunk, detector) is sliced and
scored once.
The sweep needs values only, so it calls every product and solver with
``acc=None`` and tallies nothing: an operation count depends on shapes
alone and is taken outside the sweep (``complexity``). The solvers
raise on the first system they cannot solve; a stacked solve that
raises is solved again one (point, trial) at a time, so a numerical
failure costs only its own trial.

Early stopping is per (SNR point, detector) pair, and the chunk
protocol is one mask in and one array out. A chunk is sent with
``active``, a (points, detectors) bool mask of the pairs still running;
``_eval_trials`` returns one int64 (points, detectors, 2) array of
[bit errors, failures] over the chunk's trials, zero where the mask is
off. ``run_sweep`` keeps three arrays: ``tally`` of that shape, and
``trials_run`` and ``running``, both (points, detectors). Chunks run
in waves of K (see ``run_sweep``), every chunk of a wave sent with the same mask,
and each wave is sent after the previous one merged. Chunks merge in
trial order, each only where ``running`` still holds: a chunk may count
pairs that stopped in an earlier chunk of its wave, and those counts
are dropped. A pair that reaches ``stop_at_errors`` freezes at the end
of that chunk, which is its ``trials_run``, and later waves skip it; a
point ends when none of its pairs runs, or at the last chunk.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from . import detect, phy
from .detect import SOLVE_ERRORS, ConfigError, DetectorSpec, Kind
from .kernels import hermitian, matvec


# Working-set budget, in bytes, of the H and H^H of one block of trials in
# ``_products``. Measured on 32x32 and 256x16 sweeps: larger budgets were no
# faster and raised the peak RSS.
WORKING_SET = 1 << 20


class WorkerDied(RuntimeError):
    """A pool worker died; ``chunks`` holds the (SNR points, lo, hi) lost with it."""

    def __init__(self, chunks: list[tuple[tuple[float, ...], int, int]]):
        super().__init__("a pool worker died evaluating " + "; ".join(
            f"trials [{lo}, {hi}) at SNR {', '.join(f'{s:g}' for s in snr)} dB"
            for snr, lo, hi in chunks))
        self.chunks = chunks


def as_count(field_name: str, value, least: int = 1) -> int:
    """The one rule for a count: ``value`` as an int >= ``least``, where ``40.0`` and
    ``"40"`` read as 40; a bool, anything ``int()`` refuses, a value that is not
    text and not equal to its ``int()`` (2.5, ``Fraction(5, 2)``) or a value below
    ``least`` is a ConfigError naming ``field_name``."""
    try:
        count = int(value)
        if isinstance(value, (bool, np.bool_)) or (not isinstance(value, str) and count != value):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(field_name, f"must be an integer, got {value!r}") from None
    if count < least:
        raise ConfigError(field_name, f"must be >= {least}, got {count}")
    return count


# SweepConfig's counts, in the order checked: field -> (the name its ConfigError gives, least)
_COUNTS = {"n": ("n", 1), "u": ("u", 1), "order": ("mod", 1), "master_seed": ("seed", 0),
           "trials": ("trials", 1), "stop_at_errors": ("stop_at", 1), "workers": ("threads", 1),
           "chunk_size": ("chunk_size", 1)}


@dataclass(frozen=True)
class SweepConfig:
    """The settings of one BER sweep. It checks itself when it is built, storing
    counts as ints and lists as tuples, the SNR points as floats, and refusing a
    bad setting with a ConfigError naming it, so ``run_sweep`` checks nothing again."""

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

    def __post_init__(self):
        for attr, (field_name, least) in _COUNTS.items():
            value = getattr(self, attr)
            if attr != "stop_at_errors" or value is not None:  # None runs every trial
                object.__setattr__(self, attr, as_count(field_name, value, least))
        if self.u > self.n:
            raise ConfigError("u", f"must satisfy 1 <= u <= n, got u={self.u}, n={self.n}")
        if self.order not in phy.MOD_NAMES:
            raise ConfigError("mod", f"unsupported constellation order {self.order}")
        if self.master_seed >= 2**64:
            raise ConfigError("seed", "must be in [0, 2**64)")
        try:
            # an array would be read by its truth value; float(True) would be 1 dB
            if not isinstance(self.snr_db, (list, tuple)) or not self.snr_db or any(
                    isinstance(s, (bool, np.bool_)) for s in self.snr_db):
                raise TypeError
            object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        except (TypeError, ValueError):
            raise ConfigError("snr", f"must list one or more numbers, got {self.snr_db!r}") from None
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("snr", "points must be strictly increasing")
        try:
            sigma2 = [phy.sigma2_from_snr(snr, self.u) for snr in self.snr_db]
        except (OverflowError, ZeroDivisionError):
            sigma2 = [np.nan]
        if not all(0 < s2 < np.inf for s2 in sigma2):
            raise ConfigError("snr", "every point must give a finite noise variance sigma2 > 0")
        if not isinstance(self.detectors, (list, tuple)) or not self.detectors or not all(
                isinstance(spec, DetectorSpec) for spec in self.detectors):
            raise ConfigError("det", f"must list one or more DetectorSpec, got {self.detectors!r}")
        object.__setattr__(self, "detectors", tuple(self.detectors))
        for i, spec in enumerate(self.detectors):  # equal specs alone share a BER CSV row key
            if spec in self.detectors[:i]:
                raise ConfigError("det", f"two detectors are {spec.name} with {spec.params}; "
                                  "each would write the same rows")
            if spec.kind is Kind.ADMIN:
                for s2 in sigma2:  # Python floats: a beta that overflows is inf, not a warning
                    spec.admin_beta(s2)


@dataclass
class BerRecord:
    """The tally of one (SNR point, detector) pair of a sweep, with its
    BER and the BER's binomial standard error, both 0 when no bit ran.
    The sweep's shape (N, U, modulation) is its ``SweepConfig``'s alone."""

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
    config: SweepConfig, lo: int, hi: int, need_g0: bool, need_norms: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Bits, symbols, H^H n, column norms ||h_k||^2 (None unless
    ``need_norms``) and G0 = H^H H (None unless ``need_g0``) of trials
    [lo, hi), each stacked over the trials; each trial is drawn once
    with unit noise n, and the products share one H^H and are formed in
    blocks of trials whose H and H^H fit ``WORKING_SET``.
    """
    block = max(1, WORKING_SET // (2 * config.n * config.u * 16))
    parts = []
    for a in range(lo, hi, block):
        draws = (trial_realization(config, 1.0, trial) for trial in range(a, min(a + block, hi)))
        bits, x, h, n = (np.stack(v) for v in zip(*draws))
        h_h = hermitian(h)
        parts.append((bits, x, detect.matched_filter(h, n, None, h_h=h_h),
                      np.einsum("...kn,...nk->...k", h_h, h).real if need_norms else None,
                      detect.gramian(h, 0.0, None, h_h=h_h) if need_g0 else None))
    return tuple(None if v[0] is None else np.concatenate(v) for v in zip(*parts))


def _eval_trials(config: SweepConfig, active: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Chunk worker: the counts of trials [lo, hi) for the pairs ``active``
    runs (the protocol is in the module docstring).

    The chunk's products come from ``_products``: G0 only while a
    detector other than SIMO runs, the column norms only while SIMO runs.
    With s = sqrt(sigma2), y = H x + s n, so every point's matched filter
    is the stacked sum x_mf = G0 x + s H^H n. The SIMO bound detects each
    user k as if alone, y_k = h_k x_k + s n, by maximum-ratio combining:
    h_k^H y_k / ||h_k||^2 = x_k + s h_k^H n / ||h_k||^2. Sliced, this is
    the interference-free lower bound on any multiuser detector.

    Each detector runs on the points its column of ``active`` holds, in
    one ``_solve_chunk`` call for all of them. A trial whose estimate is
    not finite counts every bit as an error and one failure; the rest of
    the chunk is scored as usual.
    """
    const = phy.make_constellation(config.order)
    simo = np.array([spec.kind is Kind.SIMO for spec in config.detectors])
    bits, x, n_mf, norms, g0 = _products(config, lo, hi, active[:, ~simo].any(),
                                         active[:, simo].any())
    sigma2 = np.array([phy.sigma2_from_snr(snr, config.u) for snr in config.snr_db])[:, None, None]
    s = np.sqrt(sigma2)
    gx = None if g0 is None else matvec(g0, x, None)

    out = np.zeros(active.shape + (2,), dtype=np.int64)
    for d, spec in enumerate(config.detectors):
        points = np.flatnonzero(active[:, d])
        if not points.size:
            continue
        if spec.kind is Kind.SIMO:
            soft = x + s[points] * n_mf / norms
        else:
            soft = _solve_chunk(spec, g0, gx + s[points] * n_mf, sigma2[points], const.box_radius)
        out[points, d] = _score(soft, bits, const)
    return out


def _score(soft: np.ndarray, bits: np.ndarray, const: phy.Constellation) -> np.ndarray:
    """[bit errors, failures] per point of (points, trials, U) estimates,
    an int64 (points, 2) array.

    A trial whose estimate is not finite counts every bit as an error and
    one failure.
    """
    failed = ~np.isfinite(soft).all(axis=-1)
    bits_hat = phy.hard_slice(np.where(failed[..., None], 0.0, soft), const)
    errors = np.count_nonzero(bits_hat != bits, axis=-1)
    errors[failed] = bits.shape[-1]
    return np.stack([errors.sum(axis=-1), failed.sum(axis=-1)], axis=-1)


def _solve_chunk(
    spec: DetectorSpec, g0: np.ndarray, x_mf: np.ndarray, sigma2: np.ndarray, box: float,
) -> np.ndarray:
    """One stacked, uncounted ``soft_estimate`` of (points, trials, U)
    systems, ``sigma2`` shaped (points, 1, 1); if it raises, each system
    again on its own.

    A (point, trial) whose own solve raises gets a NaN estimate, which
    ``_score`` counts as a failure.
    """
    try:
        return detect.soft_estimate(spec, g0, x_mf, sigma2, box, None)
    except SOLVE_ERRORS:
        pass
    soft = np.full(x_mf.shape, np.nan, dtype=np.complex128)
    for p, t in np.ndindex(x_mf.shape[:-1]):
        try:
            soft[p, t] = detect.soft_estimate(spec, g0[t], x_mf[p, t], sigma2[p].item(), box, None)
        except SOLVE_ERRORS:
            pass
    return soft


def run_sweep(config: SweepConfig, progress=None) -> list[BerRecord]:
    """Full SNR x detector sweep; deterministic for a fixed master seed.

    Chunks run in trial order, each drawn once for every point still
    running; ``progress`` gets one line per point when it ends. With
    ``workers`` > 1 a process pool runs K chunks at a time, K being
    ``workers`` bounded by the usable CPUs, each wave sent after the previous
    one merged, on at most one process per chunk; the records are those of
    one worker. A worker that dies raises ``WorkerDied`` naming the chunks of its wave. Library
    callers must pin ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
    ``MKL_NUM_THREADS`` to 1 before they import numpy: the stacked solves
    call BLAS on small matrices, where its threads only contend.
    """
    bits_per_trial = config.u * phy.make_constellation(config.order).bits_per_symbol
    shape = (len(config.snr_db), len(config.detectors))
    tally = np.zeros(shape + (2,), dtype=np.int64)  # [bit errors, failures]
    trials_run = np.full(shape, config.trials)
    running = np.ones(shape, dtype=bool)
    stop_at = np.inf if config.stop_at_errors is None else config.stop_at_errors
    starts = range(0, config.trials, config.chunk_size)
    chunks = ((lo, min(lo + config.chunk_size, config.trials)) for lo in starts)

    def records(p: int) -> list[BerRecord]:
        return [BerRecord(spec.name, spec.params, config.snr_db[p], int(trials_run[p, d]),
                          int(tally[p, d, 0]), int(trials_run[p, d]) * bits_per_trial,
                          int(tally[p, d, 1]))
                for d, spec in enumerate(config.detectors)]

    def merge(hi: int, counts: np.ndarray) -> None:
        live = running.any(axis=1)
        tally[running] += counts[running]
        reached = running & (tally[..., 0] >= stop_at)
        trials_run[reached] = hi
        running[reached | (hi == config.trials)] = False
        if progress is not None:
            for p in np.flatnonzero(live & ~running.any(axis=1)):  # the points that ended
                progress(f"snr {config.snr_db[p]:g} dB done: "
                         + ", ".join(f"{r.detector}={r.ber:.3g}" for r in records(p)))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers, cpus or 1)
    # the pool module is imported only when a pool starts; its attributes
    # are looked up at call time, so a wrapper installed on it sees them
    pool = None
    if config.workers > 1:
        import concurrent.futures as cf

        # a forked pool starts every process at the first submit: one per chunk and per CPU at most
        pool = cf.ProcessPoolExecutor(max_workers=min(workers, len(starts)))
    try:
        while running.any():
            wave = list(itertools.islice(chunks, workers))
            active = running.copy()
            if pool is None:  # one worker: the chunk, evaluated inline
                counts = [_eval_trials(config, active, lo, hi) for lo, hi in wave]
            else:
                try:  # a worker may die before the wave's last chunk is sent
                    futures = [pool.submit(_eval_trials, config, active, *chunk) for chunk in wave]
                    cf.wait(futures)
                    counts = [fut.result() for fut in futures]
                except cf.BrokenExecutor:  # every chunk of the wave is lost with it
                    snr = tuple(config.snr_db[p] for p in np.flatnonzero(active.any(axis=1)))
                    raise WorkerDied([(snr, lo, hi) for lo, hi in wave]) from None
            for (_, hi), chunk_counts in zip(wave, counts):  # in trial order
                merge(hi, chunk_counts)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [r for p in range(shape[0]) for r in records(p)]
