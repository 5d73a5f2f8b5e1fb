"""BER-curve helpers the tests gate on: a detector's curve and where it crosses a BER."""

import numpy as np


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


def curve(records, detector: str) -> list[tuple[float, float, int]]:
    """(snr, ber, bits) points of one detector's ``BerRecord``s, sorted by SNR."""
    return sorted((r.snr_db, r.ber, r.bits_total) for r in records if r.detector == detector)
