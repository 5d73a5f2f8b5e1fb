"""Complex array kernels with real-multiplication accounting.

Every kernel computes one NumPy operation on whole arrays and charges
the operation's cost per output element, so a kernel applied to a stack
of B independent systems charges exactly B times what it charges for
one. Counts are computed from operand shapes and types, never from
values.

The paper's complexity measure is the number of real multiplications;
square roots and reciprocals are tallied on their own. Additions,
subtractions, conjugation and negation are free and are written as
plain NumPy arithmetic. The operands' types, not the kernel's name, set
the price of a product: 1 real multiplication, doubled for each complex
operand, so complex * complex costs 4, real * complex 2 and real * real
1 real multiplication. :func:`mul` charges this per output element; an
inner product of length n (:func:`dot_u`, which :func:`dot_h` calls on
conj(a), and each output of :func:`matvec`) charges it n times. A squared
norm ``dot_h(a, a, acc).real`` is thus charged 4 per element, not the 2
that would suffice. This accounting lands the counts in ``decomp``
exactly on their closed forms; the LDL
form counts each of its products as a complex multiplication (which puts
it above Cholesky's), so ``decomp.ldl`` keeps its pivots complex.

Every kernel takes an explicit :class:`OpCount` accumulator; there is no
global counter. ``acc=None`` computes the same values and tallies
nothing: every charge goes through :func:`charge`, the one place that
skips it, so a counted and an uncounted call run identical arithmetic.
The Monte-Carlo sweep passes None, because a count depends only on
shapes and types and is taken once by whoever asks for it
(``complexity``, the tests). Kernels do not check their results: a
non-finite value travels to the end of its system, where the solver that
produced it raises (``decomp.finite_result``, which every solver wears).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OpCount:
    """Tally of square roots, reciprocals and real multiplications."""

    sqrt: int = 0
    reciprocal: int = 0
    real_mul: int = 0


def charge(acc: OpCount | None, *, sqrt=0, reciprocal=0, products=0, operands=()) -> None:
    """Add to ``acc``'s tally; with ``acc=None`` (values only) do nothing.

    Each of ``products`` scalar products costs 1 real multiplication,
    doubled for each complex array or scalar among ``operands``.
    """
    if acc is None:
        return
    for x in operands:
        if np.iscomplexobj(x):
            products *= 2
    acc.sqrt += sqrt
    acc.reciprocal += reciprocal
    acc.real_mul += products


def mul(a, b, acc: OpCount | None):
    """Elementwise product, each element charged at its operands' rate."""
    out = np.multiply(a, b)
    charge(acc, products=out.size, operands=(a, b))
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


def dot_u(a: np.ndarray, b: np.ndarray, acc: OpCount | None):
    """Unconjugated inner products sum_k a[..., k] * b[..., k].

    Leading axes broadcast; each output element is charged as one inner
    product of the last-axis length, at the operands' rate. The lengths
    must match: einsum would broadcast a length-1 axis against any other.
    """
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"inner product: length mismatch {a.shape} x {b.shape}")
    out = np.einsum("...k,...k->...", a, b)
    charge(acc, products=a.shape[-1] * out.size, operands=(a, b))
    return out


def dot_h(a: np.ndarray, b: np.ndarray, acc: OpCount | None):
    """Hermitian inner products sum_k conj(a[..., k]) * b[..., k]: :func:`dot_u`
    of conj(a) and b, charged as it (conjugation is free)."""
    return dot_u(a.conj(), b, acc)


def matvec(a: np.ndarray, b: np.ndarray, acc: OpCount | None) -> np.ndarray:
    """Counted (stacked) matrix-vector product of (..., m, k) and (..., k).

    ``b`` is always a vector or a stack of vectors, whatever its number
    of axes. Leading axes broadcast: one (m, k) matrix times a (B, k)
    stack gives B products, and a (T, m, k) stack times a (P, T, k)
    stack gives P x T. Each of the m outputs per product is charged as
    one inner product of length k, at the operands' rate.
    """
    if a.ndim < 2:
        raise ValueError("matvec: left operand must be a matrix")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"matvec: dimension mismatch {a.shape} x {b.shape}")
    out = (a @ b[..., None])[..., 0]
    charge(acc, products=a.shape[-1] * out.size, operands=(a, b))
    return out


def hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; free of multiplications.

    Written in one pass into a C-contiguous array, the layout BLAS reads
    without a further copy.
    """
    out = np.empty(a.shape[:-2] + a.shape[:-3:-1], dtype=a.dtype)
    return np.conjugate(np.swapaxes(a, -1, -2), out=out)
