"""Complex array kernels with real-multiplication accounting.

Every kernel computes one NumPy operation on whole arrays and charges
the operation's cost per output element, so a kernel applied to a stack
of B independent systems charges exactly B times what it charges for
one. Counts are computed from operand shapes, never from values.

The hardware-unit convention, per element:

* complex * complex : 4 real multiplications, 1 addition, 1 subtraction
* real * complex    : 2 real multiplications
* complex +/- complex : 2 additions / 2 subtractions
* conjugation, negation : free
* square root, reciprocal : counted on their own tally

An inner product of length n costs n complex multiplications plus the
complex accumulation additions. A squared vector norm is charged one
complex multiplication per element (4 real multiplications), not the 2
that would suffice arithmetically. This matches the accounting that
makes the decomposition counts in ``decomp`` land exactly on their
closed forms.

Every kernel takes an explicit :class:`OpCount` accumulator; there is no
global counter. ``acc=None`` computes the same values and tallies
nothing: every charge goes through :func:`charge`, the one place that
skips it, so a counted and an uncounted call run identical arithmetic.
The Monte-Carlo sweep passes None, because a count depends only on
shapes and is taken once by whoever asks for it (``complexity``, the
tests). Kernels do not check their results: a non-finite value travels
to the end of its system, where the solver that produced it raises (see
``decomp``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OpCount:
    """Tally of square roots, reciprocals, real mults, adds and subs."""

    sqrt: int = 0
    reciprocal: int = 0
    real_mul: int = 0
    add: int = 0
    sub: int = 0


def charge(
    acc: OpCount | None, *, sqrt: int = 0, reciprocal: int = 0, real_mul: int = 0,
    add: int = 0, sub: int = 0,
) -> None:
    """Add to ``acc``'s tally; with ``acc=None`` (values only) do nothing."""
    if acc is None:
        return
    acc.sqrt += sqrt
    acc.reciprocal += reciprocal
    acc.real_mul += real_mul
    acc.add += add
    acc.sub += sub


def charge_dots(acc: OpCount | None, n: int, count: int) -> None:
    """Charge ``count`` complex inner products of length ``n``."""
    charge(acc, real_mul=4 * n * count, add=count * (n + max(0, 2 * (n - 1))), sub=n * count)


def cmul(a, b, acc: OpCount | None):
    """Elementwise complex product, 4 real mults, 1 add, 1 sub each."""
    out = np.multiply(a, b)
    k = out.size
    charge(acc, real_mul=4 * k, add=k, sub=k)
    return out


def rcmul(r, b, acc: OpCount | None):
    """Elementwise real-times-complex product, 2 real mults each."""
    out = np.multiply(r, b)
    charge(acc, real_mul=2 * out.size)
    return out


def cadd(a, b, acc: OpCount | None):
    out = np.add(a, b)
    charge(acc, add=2 * out.size)
    return out


def csub(a, b, acc: OpCount | None):
    out = np.subtract(a, b)
    charge(acc, sub=2 * out.size)
    return out


def counted_sqrt(x, acc: OpCount | None):
    """Elementwise real square root on the dedicated tally."""
    out = np.sqrt(x)
    charge(acc, sqrt=out.size)
    return out


def counted_recip(x, acc: OpCount | None):
    """Elementwise reciprocal of (real or complex) pivots, one unit each."""
    out = np.divide(1.0, x)
    charge(acc, reciprocal=out.size)
    return out


def _contract(a: np.ndarray, b: np.ndarray, name: str) -> int:
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"{name}: length mismatch {a.shape} x {b.shape}")
    return a.shape[-1]


def dot_h(a: np.ndarray, b: np.ndarray, acc: OpCount | None):
    """Hermitian inner products sum_k conj(a[..., k]) * b[..., k].

    Leading axes broadcast; each output element is charged as one inner
    product of the last-axis length.
    """
    n = _contract(a, b, "dot_h")
    out = np.einsum("...k,...k->...", a.conj(), b)
    charge_dots(acc, n, out.size)
    return out


def dot_u(a: np.ndarray, b: np.ndarray, acc: OpCount | None):
    """Unconjugated inner products sum_k a[..., k] * b[..., k], as dot_h."""
    n = _contract(a, b, "dot_u")
    out = np.einsum("...k,...k->...", a, b)
    charge_dots(acc, n, out.size)
    return out


def norm_sq(a: np.ndarray, acc: OpCount | None):
    """Squared Euclidean norms over the last axis, at the complex-mult rate.

    One complex multiplication (4 real mults) per element plus the real
    accumulation additions; see the module docstring for why 2 per
    element is deliberately not used.
    """
    n = a.shape[-1]
    out = np.einsum("...k,...k->...", a.conj(), a).real
    k = out.size
    charge(acc, real_mul=4 * n * k, add=k * (n + max(0, n - 1)), sub=n * k)
    return out


def matvec(a: np.ndarray, b: np.ndarray, acc: OpCount | None) -> np.ndarray:
    """Counted (stacked) matrix-vector product of (..., m, k) and (..., k).

    ``b`` is always a vector or a stack of vectors, whatever its number
    of axes. Leading axes broadcast: one (m, k) matrix times a (B, k)
    stack gives B products, and a (T, m, k) stack times a (P, T, k)
    stack gives P x T. Each of the m outputs per product is charged as
    one inner product of length k.
    """
    if a.ndim < 2:
        raise ValueError("matvec: left operand must be a matrix")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"matvec: dimension mismatch {a.shape} x {b.shape}")
    out = (a @ b[..., None])[..., 0]
    charge_dots(acc, a.shape[-1], out.size)
    return out


def hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; free of multiplications.

    Written in one pass into a C-contiguous array, the layout BLAS reads
    without a further copy.
    """
    out = np.empty(a.shape[:-2] + a.shape[:-3:-1], dtype=a.dtype)
    return np.conjugate(np.swapaxes(a, -1, -2), out=out)
