"""Complex arithmetic kernels with real-multiplication accounting.

All counting follows the hardware-unit convention used throughout this
package:

* complex * complex : 4 real multiplications, 1 addition, 1 subtraction
* real * complex    : 2 real multiplications
* real * real       : 1 real multiplication
* complex +/- complex : 2 additions / 2 subtractions
* conjugation, negation : free
* square root, reciprocal : counted on their own tally

A squared vector norm is charged one complex multiplication per element
(4 real multiplications), not the 2 that would suffice arithmetically.
This matches the accounting that makes the decomposition counts in
``decomp`` land exactly on their closed forms.

Every counted kernel takes an explicit :class:`OpCount` accumulator;
there is no global counter. Counts depend only on operand shapes, never
on operand values. Non-finite results raise ``FloatingPointError`` when
Python runs with ``__debug__`` (i.e. not under ``-O``).
"""

from __future__ import annotations

import cmath
import math
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


def _ensure_finite(z) -> None:
    if not cmath.isfinite(z):
        raise FloatingPointError("non-finite result in counted kernel")


def _ensure_finite_real(x: float) -> None:
    if not math.isfinite(x):
        raise FloatingPointError("non-finite result in counted kernel")


def _ensure_finite_array(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite result in counted kernel")


def cmul(a: complex, b: complex, acc: OpCount) -> complex:
    """Complex-complex product, charged 4 real mults, 1 add, 1 sub."""
    acc.real_mul += 4
    acc.add += 1
    acc.sub += 1
    out = complex(a) * complex(b)
    if __debug__:
        _ensure_finite(out)
    return out


def rcmul(r: float, b: complex, acc: OpCount) -> complex:
    """Real-complex product, charged 2 real mults."""
    acc.real_mul += 2
    out = r * complex(b)
    if __debug__:
        _ensure_finite(out)
    return out


def csub(a: complex, b: complex, acc: OpCount) -> complex:
    acc.sub += 2
    return complex(a) - complex(b)


def counted_sqrt(x: float, acc: OpCount) -> float:
    """Real square root on the dedicated tally."""
    acc.sqrt += 1
    out = float(np.sqrt(x))
    if __debug__:
        _ensure_finite_real(out)
    return out


def counted_recip(x, acc: OpCount):
    """Reciprocal of a (real or complex) pivot, one reciprocal unit."""
    acc.reciprocal += 1
    out = 1.0 / x
    if __debug__:
        _ensure_finite(out)
    return out


def dot_h(a: np.ndarray, b: np.ndarray, acc: OpCount) -> complex:
    """Hermitian inner product sum(conj(a_k) * b_k).

    Charged one complex multiplication per element plus the complex
    accumulation additions.
    """
    if a.shape != b.shape:
        raise ValueError("dot_h: length mismatch")
    n = a.shape[0]
    acc.real_mul += 4 * n
    acc.add += n + max(0, 2 * (n - 1))
    acc.sub += n
    out = complex(np.vdot(a, b))
    if __debug__:
        _ensure_finite(out)
    return out


def dot_u(a: np.ndarray, b: np.ndarray, acc: OpCount) -> complex:
    """Unconjugated inner product sum(a_k * b_k), counted like dot_h."""
    if a.shape != b.shape:
        raise ValueError("dot_u: length mismatch")
    n = a.shape[0]
    acc.real_mul += 4 * n
    acc.add += n + max(0, 2 * (n - 1))
    acc.sub += n
    out = complex(np.dot(a, b))
    if __debug__:
        _ensure_finite(out)
    return out


def norm_sq(a: np.ndarray, acc: OpCount) -> float:
    """Squared Euclidean norm, charged at the complex-mult rate.

    One complex multiplication (4 real mults) per element plus the real
    accumulation additions; see the module docstring for why 2 per
    element is deliberately not used.
    """
    n = a.shape[0]
    acc.real_mul += 4 * n
    acc.add += n + max(0, n - 1)
    acc.sub += n
    out = float(np.vdot(a, a).real)
    if __debug__:
        _ensure_finite_real(out)
    return out


def matmul(a: np.ndarray, b: np.ndarray, acc: OpCount) -> np.ndarray:
    """Counted matrix (or matrix-vector) product.

    Charges 4 * rows * inner * cols real multiplications; ``b`` may be a
    vector, in which case cols is 1.
    """
    if a.ndim != 2:
        raise ValueError("matmul: left operand must be a matrix")
    cols = 1 if b.ndim == 1 else b.shape[1]
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul: dimension mismatch {a.shape} x {b.shape}"
        )
    m, k = a.shape
    acc.real_mul += 4 * m * k * cols
    acc.add += m * cols * (k + max(0, 2 * (k - 1)))
    acc.sub += m * k * cols
    out = a @ b
    if __debug__:
        _ensure_finite_array(out)
    return out


def hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; free of multiplications."""
    return np.ascontiguousarray(a.conj().T)


def cmul_vec(s: complex, x: np.ndarray, acc: OpCount) -> np.ndarray:
    """Complex scalar times vector at the complex-mult rate per element."""
    n = x.shape[0]
    acc.real_mul += 4 * n
    acc.add += n
    acc.sub += n
    out = s * x
    if __debug__:
        _ensure_finite_array(out)
    return out


def rcmul_vec(r: float, x: np.ndarray, acc: OpCount) -> np.ndarray:
    """Real scalar times complex vector, 2 real mults per element."""
    acc.real_mul += 2 * x.shape[0]
    out = r * x
    if __debug__:
        _ensure_finite_array(out)
    return out


def dscale_vec(d_inv: np.ndarray, x: np.ndarray, acc: OpCount) -> np.ndarray:
    """Elementwise real diagonal scaling, 2 real mults per element."""
    if d_inv.shape != x.shape:
        raise ValueError("dscale_vec: length mismatch")
    acc.real_mul += 2 * x.shape[0]
    out = d_inv * x
    if __debug__:
        _ensure_finite_array(out)
    return out


def add_vec(x: np.ndarray, y: np.ndarray, acc: OpCount) -> np.ndarray:
    acc.add += 2 * x.shape[0]
    return x + y


def sub_vec(x: np.ndarray, y: np.ndarray, acc: OpCount) -> np.ndarray:
    acc.sub += 2 * x.shape[0]
    return x - y
