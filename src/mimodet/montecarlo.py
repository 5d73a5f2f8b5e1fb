"""Monte-Carlo BER engine.

Sweeps SNR x detector over i.i.d. Rayleigh block-fading trials with
common random numbers: every detector at a given (SNR point, trial
index) sees the identical (bits, H, noise) realization, drawn from a
Philox stream keyed by (master_seed, trial_index). Aggregation is
integer bit-error counting in fixed chunk order, so results are
byte-identical regardless of worker count.

Early stopping is per (SNR point, detector): once a detector has
accumulated ``stop_at_errors`` bit errors its tally is frozen at the
end of that chunk, while detectors that still need trials keep running.
"""

from __future__ import annotations

import concurrent.futures
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


def _simo_errors(
    h: np.ndarray, x: np.ndarray, noise: np.ndarray, bits: np.ndarray, const
) -> int:
    """Bit errors of the SIMO bound on the shared realization.

    Each user k is detected as if alone: y_k = h_k x_k + noise with the
    trial's noise (sigma2 = U / snr_lin, the sweep's convention), then
    maximum-ratio combining h_k^H y_k / ||h_k||^2 and slicing. This is
    the interference-free lower bound on any multiuser detector.
    """
    y = h * x + noise[:, None]
    z = np.einsum("nk,nk->k", h.conj(), y) / np.einsum("nk,nk->k", h.conj(), h).real
    _, bits_hat = phy.hard_slice(z, const)
    return int(np.count_nonzero(bits_hat != bits))


def _eval_trials(
    config: SweepConfig, snr_db: float, lo: int, hi: int
) -> list[list[int]]:
    """Errors/failures per detector over trials [lo, hi); chunk worker."""
    const = phy.make_constellation(config.order)
    sigma2 = phy.sigma2_from_snr(snr_db, config.u)
    box = const.box_radius
    out = [[0, 0] for _ in config.detectors]
    bits_per_trial = config.u * const.bits_per_symbol
    scratch = OpCount()
    for trial in range(lo, hi):
        bits, x, h, noise = trial_realization(config, sigma2, trial)
        y = h @ x + noise
        g0 = detect.gramian(h, 0.0, scratch)
        x_mf = detect.matched_filter(h, y, scratch)
        for d, spec in enumerate(config.detectors):
            if spec.kind is Kind.SIMO:
                out[d][0] += _simo_errors(h, x, noise, bits, const)
                continue
            try:
                soft = detect.soft_estimate(spec, g0, x_mf, sigma2, box, scratch)
            except (DecompositionError, detect.DetectError, FloatingPointError):
                out[d][0] += bits_per_trial
                out[d][1] += 1
                continue
            _, bits_hat = phy.hard_slice(soft, const)
            out[d][0] += int(np.count_nonzero(bits_hat != bits))
    return out


def run_trial(
    config: SweepConfig, snr_db: float, detector: DetectorSpec, trial_index: int
) -> int:
    """Bit errors of one detector on one trial (common-random-number draw)."""
    config.validate()
    one = dataclasses.replace(config, detectors=(detector,))
    return _eval_trials(one, snr_db, trial_index, trial_index + 1)[0][0]


def _run_point(
    config: SweepConfig,
    snr_db: float,
    pool: concurrent.futures.Executor | None,
) -> list[BerRecord]:
    const = phy.make_constellation(config.order)
    bits_per_trial = config.u * const.bits_per_symbol
    ndet = len(config.detectors)
    errors = [0] * ndet
    failures = [0] * ndet
    trials_run = [config.trials] * ndet
    stopped = [False] * ndet

    chunks = [
        (lo, min(lo + config.chunk_size, config.trials))
        for lo in range(0, config.trials, config.chunk_size)
    ]
    results: dict[int, list[list[int]]] = {}
    next_submit = 0
    pending: dict[concurrent.futures.Future, int] = {}

    def merge(chunk_idx: int) -> bool:
        chunk_out = results.pop(chunk_idx)
        _, hi = chunks[chunk_idx]
        for d in range(ndet):
            if stopped[d]:
                continue
            errors[d] += chunk_out[d][0]
            failures[d] += chunk_out[d][1]
            if config.stop_at_errors is not None and errors[d] >= config.stop_at_errors:
                stopped[d] = True
                trials_run[d] = hi
        return all(stopped)

    if pool is None:
        for idx in range(len(chunks)):
            lo, hi = chunks[idx]
            results[idx] = _eval_trials(config, snr_db, lo, hi)
            if merge(idx):
                break
    else:
        window = config.workers
        done_all = False
        next_merge = 0
        while not done_all and next_merge < len(chunks):
            while len(pending) < window and next_submit < len(chunks):
                lo, hi = chunks[next_submit]
                fut = pool.submit(_eval_trials, config, snr_db, lo, hi)
                pending[fut] = next_submit
                next_submit += 1
            if not pending:
                break
            done, _ = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for fut in done:
                results[pending.pop(fut)] = fut.result()
            while next_merge in results:
                done_all = merge(next_merge)
                next_merge += 1
                if done_all:
                    break
        # speculative chunks beyond the stop boundary are discarded

    return [
        BerRecord(
            config.n,
            config.u,
            config.order,
            spec.name,
            spec.params,
            snr_db,
            trials_run[d],
            errors[d],
            trials_run[d] * bits_per_trial,
            failures[d],
        )
        for d, spec in enumerate(config.detectors)
    ]


def run_sweep(config: SweepConfig, progress=None) -> list[BerRecord]:
    """Full SNR x detector sweep; deterministic for a fixed master seed."""
    config.validate()
    records: list[BerRecord] = []
    pool = None
    try:
        if config.workers > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=config.workers)
        for snr in config.snr_db:
            point = _run_point(config, snr, pool)
            records.extend(point)
            if progress is not None:
                progress(
                    f"snr {snr:g} dB done: "
                    + ", ".join(f"{r.detector}={r.ber:.3g}" for r in point)
                )
    finally:
        if pool is not None:
            pool.shutdown()
    return records


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
