"""Modulation, channel and noise models for the uplink y = H x + n.

Square Gray-mapped QAM (QPSK, 16-QAM, 64-QAM) normalized to unit average
symbol energy, i.i.d. Rayleigh fading channel draws, circularly symmetric
complex Gaussian noise, and the SNR convention used by every simulation
in this package:

    sigma2 = U / 10**(snr_db / 10)

i.e. ``snr_db`` is the average receive SNR per BS antenna with
unit-energy symbols and unit-variance channel entries (E||Hx||^2 / N = U).

Randomness comes from counter-based Philox streams keyed by
``(master_seed, substream_index)``, so per-trial draws are independent
of execution order and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# constellation order -> modulation name, for every order this package supports
MOD_NAMES = {4: "qpsk", 16: "16qam", 64: "64qam"}


@dataclass(frozen=True)
class Constellation:
    """Gray-mapped square QAM alphabet with unit average energy.

    ``labels[i, q]`` is the uint8 label of the point at real level index
    i and imaginary level index q (levels ascending): gray(i) in the high
    half of its bits, gray(q) in the low half, with the reflected Gray
    code gray(k) = k ^ (k >> 1).
    ``points[label]`` is the symbol whose bit pattern is the binary
    expansion of ``label``, and ``bits[label]`` is that expansion, most
    significant bit first, one uint8 per bit. ``scale`` maps odd integer
    levels to normalized coordinates.
    """

    order: int
    bits_per_symbol: int
    levels_per_axis: int
    scale: float
    points: np.ndarray
    labels: np.ndarray
    bits: np.ndarray

    @property
    def box_radius(self) -> float:
        """Largest per-axis coordinate, the ADMIN clipping bound."""
        return (self.levels_per_axis - 1) * self.scale


@lru_cache(maxsize=None)
def make_constellation(order: int) -> Constellation:
    """Build the Gray-mapped constellation for order 4, 16 or 64."""
    if order not in MOD_NAMES:
        raise ValueError(f"unsupported constellation order {order}")
    b = int(np.log2(order))
    m = int(np.sqrt(order))
    scale = 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)
    k = np.arange(m)
    gray = (k ^ (k >> 1)).astype(np.uint8)
    labels = (gray[:, None] << (b // 2)) | gray
    levels = 2 * k - (m - 1)
    points = np.empty(order, dtype=np.complex128)
    points[labels] = (levels[:, None] + 1j * levels) * scale
    shifts = np.arange(b - 1, -1, -1, dtype=np.uint8)
    bits = (np.arange(order, dtype=np.uint8)[:, None] >> shifts) & 1
    return Constellation(order, b, m, scale, points, labels, bits)


def modulate(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Map a flat bit array (length U * bits_per_symbol) to symbols."""
    b = constellation.bits_per_symbol
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % b != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of {b}")
    groups = bits.reshape(-1, b)
    weights = 1 << np.arange(b - 1, -1, -1)
    labels = (groups * weights).sum(axis=1)
    return constellation.points[labels]


def _axis_index(coord: np.ndarray, constellation: Constellation) -> np.ndarray:
    # nearest level index with ties resolved toward the smaller level
    m = constellation.levels_per_axis
    u = (coord / constellation.scale + (m - 1)) / 2.0
    idx = np.ceil(u - 0.5)
    return np.clip(idx, 0, m - 1).astype(np.uint8)


def hard_slice(x_soft: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Nearest-point decision; returns the bits of the decided symbols.

    ``x_soft`` may be a stack of estimates (e.g. trials x users); the bits
    come out shaped ``x_soft.shape[:-1] + (U * bits_per_symbol,)``, each
    symbol's bits in turn, as ``modulate`` takes them.
    The QAM grid factorizes per axis, so the Euclidean-nearest point is
    the per-axis nearest level; exact midpoints are rounded toward the
    smaller coordinate (equivalently: toward the point with smaller real,
    then smaller imaginary part). A non-finite estimate has no nearest
    point and raises ``ValueError``.
    """
    x_soft = np.asarray(x_soft)
    if not np.isfinite(x_soft).all():
        raise ValueError("hard_slice needs finite estimates")
    m = constellation.levels_per_axis
    ki = _axis_index(x_soft.real, constellation)
    kq = _axis_index(x_soft.imag, constellation)
    # flat takes: fancy indexing (labels[ki, kq], bits[labels]) is slower
    labels = constellation.labels.ravel().take(ki * m + kq)
    return constellation.bits.take(labels, axis=0).reshape(x_soft.shape[:-1] + (-1,))


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent Philox stream keyed by (master_seed, index)."""
    # an explicit uint64 key: a plain list holding a seed >= 2**63 would
    # become float64 and alias neighbouring seeds
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_channel(n: int, u: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Rayleigh channel: entries (g1 + i g2) / sqrt(2), g ~ N(0,1)."""
    if n < 1 or u < 1:
        raise ValueError("channel dimensions must be positive")
    return _complex_gaussian(rng.standard_normal((2, n, u)))


def draw_noise_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian vector."""
    return _complex_gaussian(rng.standard_normal((2, n)))


def _complex_gaussian(g: np.ndarray) -> np.ndarray:
    """(g[0] + 1j g[1]) / sqrt(2), bit for bit, built in one allocation."""
    out = np.empty(g.shape[1:], dtype=np.complex128)
    out.real = g[0]
    out.imag = g[1]
    out /= np.sqrt(2.0)
    return out


def sigma2_from_snr(snr_db: float, u: int) -> float:
    """Noise variance from per-BS-antenna receive SNR in dB for U users."""
    if u < 1:
        raise ValueError("u must be positive")
    return u / 10.0 ** (snr_db / 10.0)
