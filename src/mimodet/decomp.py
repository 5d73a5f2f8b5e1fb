"""Instrumented matrix decompositions and triangular solvers.

Classical Gram-Schmidt QR, Cholesky and LDL factorizations of small
dense complex matrices, each threading an :class:`~mimodet.kernels.OpCount`
so the executed real-multiplication totals can be compared against the
closed-form complexity model. Counts are structure-only: two matrices of
the same size always produce identical tallies.

Every routine takes one system (a ``U x U`` matrix, a length-``U``
vector) or a stack of them with leading axes (``B x U x U``, ``B x U``).
The Python loop runs over the ``U`` rows or columns; each step is one
array operation over every system of the stack and over the inner index,
and charges its kernels per element, so a stack of B systems charges
exactly B times the single-system tally.

Failures are per system. The pivot tolerance, the Hermitian check and a
final non-finite check each yield a mask over the stack. Given a boolean
``failed`` array of the stack's leading shape, a routine ORs its masks
into it and keeps computing; a failed system's outputs are then
meaningless but never touch the other systems. Without ``failed`` the
first failure raises, as a single-system call always has.

Measured totals (exact for every U):

* Gram-Schmidt QR : U^2 (4U + 2) real mults, U sqrts, U reciprocals
* Cholesky        : (2U^3 + 3U^2 - 5U) / 3, U sqrts, U reciprocals
* LDL             : (2U^3 + 12U^2 - 14U) / 3, no sqrts, U reciprocals

The LDL routine keeps its pivots in complex form and caches the
D-weighted columns, so every product it executes is a full complex
multiplication; that is what puts its total above Cholesky's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    OpCount,
    cmul,
    counted_recip,
    counted_sqrt,
    csub,
    dot_h,
    dot_u,
    norm_sq,
    rcmul,
)

PIVOT_RTOL = 1e-12


class DecompositionError(ValueError):
    """Base class for factorization and solver failures."""


class NearSingularError(DecompositionError):
    """A Gram-Schmidt column collapsed below the singularity tolerance."""


class NotPositiveDefiniteError(DecompositionError):
    """A Cholesky/LDL pivot was not positive."""


class SingularTriangularError(DecompositionError):
    """A triangular solve hit a (near-)zero diagonal entry."""


class SingularMatrixError(DecompositionError):
    """Gauss-Jordan elimination found no usable pivot."""


@dataclass
class QrFactors:
    q: np.ndarray
    r: np.ndarray


@dataclass
class CholFactor:
    l: np.ndarray


@dataclass
class LdlFactors:
    l: np.ndarray
    d: np.ndarray  # real positive diagonal of D


def as_stack(a: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``a`` as a (B, U, U) complex stack, plus its leading shape."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a.reshape((-1,) + a.shape[-2:]), a.shape[:-2]


def vector_stack(b: np.ndarray, n: int) -> np.ndarray:
    """Right-hand side(s) as a (B, n) complex stack."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[-1:] != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected length {n}")
    return b.reshape(-1, n)


def flat_mask(failed: np.ndarray | None) -> np.ndarray | None:
    """A (B,) view of a caller's failure mask, written through in place."""
    return None if failed is None else failed.reshape(-1)


def flag(failed: np.ndarray | None, bad: np.ndarray, error) -> None:
    """Mark the systems in ``bad`` failed; without a mask, raise ``error()``."""
    if failed is None:
        if bad.any():
            raise error()
    else:
        failed |= bad


def flag_non_finite(failed: np.ndarray | None, *outputs: np.ndarray) -> None:
    """Flag each system whose (B, ...) outputs hold a non-finite entry."""
    for out in outputs:
        bad = ~np.isfinite(out.reshape(out.shape[0], -1)).all(axis=1)
        flag(failed, bad, lambda: FloatingPointError("non-finite result in counted solver"))


def pivot_tol(a: np.ndarray) -> np.ndarray:
    """Per-system pivot tolerance: 1e-12 times the largest magnitude."""
    return PIVOT_RTOL * np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-300)


def _check_hermitian(a: np.ndarray, failed: np.ndarray | None) -> None:
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-300)
    skew = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1))
    flag(failed, skew > 1e-12 * scale,
         lambda: ValueError("matrix is not Hermitian within 1e-12 relative"))


def gram_schmidt_qr(a: np.ndarray, acc: OpCount, failed: np.ndarray | None = None) -> QrFactors:
    """Classical Gram-Schmidt QR of a square complex matrix (or a stack).

    Column i is normalized by its Euclidean norm (one square root and
    one reciprocal per column), then removed from all later columns.
    A column norm at or below 1e-12 times the largest input magnitude
    fails the system (:class:`NearSingularError`).
    """
    a, lead = as_stack(a)
    failed = flat_mask(failed)
    n = a.shape[-1]
    tol = pivot_tol(a)
    qt = np.swapaxes(a, 1, 2).copy()  # qt[:, i] is column i of Q
    r = np.zeros_like(a)
    with np.errstate(all="ignore"):
        for i in range(n):
            nrm = counted_sqrt(norm_sq(qt[:, i], acc), acc)
            flag(failed, nrm <= tol,
                 lambda: NearSingularError(f"column {i} collapsed during orthogonalization"))
            r[:, i, i] = nrm
            qi = rcmul(counted_recip(nrm, acc)[:, None], qt[:, i], acc)
            qt[:, i] = qi
            rij = dot_h(qi[:, None, :], qt[:, i + 1 :], acc)
            r[:, i, i + 1 :] = rij
            qt[:, i + 1 :] = csub(qt[:, i + 1 :], cmul(rij[:, :, None], qi[:, None, :], acc), acc)
    q = np.swapaxes(qt, 1, 2)
    flag_non_finite(failed, q, r)
    return QrFactors(q.reshape(lead + (n, n)), r.reshape(lead + (n, n)))


def cholesky(a: np.ndarray, acc: OpCount, failed: np.ndarray | None = None) -> CholFactor:
    """Cholesky factor L with A = L L^H for Hermitian positive-definite A.

    A non-Hermitian input fails with ``ValueError``, a non-positive pivot
    with :class:`NotPositiveDefiniteError`.
    """
    a, lead = as_stack(a)
    failed = flat_mask(failed)
    _check_hermitian(a, failed)
    n = a.shape[-1]
    tol = pivot_tol(a)
    l = np.zeros_like(a)
    with np.errstate(all="ignore"):
        for i in range(n):
            piv = a[:, i, i].real - norm_sq(l[:, i, :i], acc)
            acc.sub += piv.size
            flag(failed, piv <= tol,
                 lambda: NotPositiveDefiniteError(f"pivot {i} is not positive ({piv.min():.3e})"))
            lii = counted_sqrt(piv, acc)
            l[:, i, i] = lii
            inv = counted_recip(lii, acc)
            s = dot_h(l[:, i, None, :i], l[:, i + 1 :, :i], acc)
            l[:, i + 1 :, i] = rcmul(inv[:, None], csub(a[:, i + 1 :, i], s, acc), acc)
    flag_non_finite(failed, l)
    return CholFactor(l.reshape(lead + (n, n)))


def ldl(a: np.ndarray, acc: OpCount, failed: np.ndarray | None = None) -> LdlFactors:
    """LDL^H factorization with unit lower-triangular L and real D > 0.

    Pivots stay complex in the working state and the D-weighted columns
    W = L D are cached, so each inner-product term, column scaling and
    W fill is one complex multiplication. A non-Hermitian input fails
    with ``ValueError``, a non-positive pivot with
    :class:`NotPositiveDefiniteError`.
    """
    a, lead = as_stack(a)
    failed = flat_mask(failed)
    _check_hermitian(a, failed)
    n = a.shape[-1]
    tol = pivot_tol(a)
    l = np.broadcast_to(np.eye(n, dtype=np.complex128), a.shape).copy()
    w = np.zeros_like(a)
    d = np.zeros(a.shape[:-1], dtype=np.complex128)
    with np.errstate(all="ignore"):
        for j in range(n):
            # pivot j and column j below it share the inner products with w[j]
            rest = csub(a[:, j:, j], dot_h(w[:, j, None, :j], l[:, j:, :j], acc), acc)
            dj = rest[:, 0]
            flag(failed, dj.real <= tol,
                 lambda: NotPositiveDefiniteError(f"pivot {j} is not positive ({dj.real.min():.3e})"))
            d[:, j] = dj
            lkj = cmul(rest[:, 1:], counted_recip(dj, acc)[:, None], acc)
            l[:, j + 1 :, j] = lkj
            w[:, j + 1 :, j] = cmul(lkj, dj[:, None], acc)
    flag_non_finite(failed, l, d)
    return LdlFactors(l.reshape(lead + (n, n)), d.real.reshape(lead + (n,)))


def _triangular_sub(
    t: np.ndarray, b: np.ndarray, acc: OpCount, failed: np.ndarray | None, lower: bool
) -> np.ndarray:
    t, lead = as_stack(t)
    failed = flat_mask(failed)
    n = t.shape[-1]
    b = vector_stack(b, n)
    rows = range(n) if lower else range(n - 1, -1, -1)
    diag = np.diagonal(t, axis1=1, axis2=2)
    small = np.abs(diag) <= pivot_tol(t)[:, None]
    flag(failed, small.any(axis=1),
         lambda: SingularTriangularError(f"zero diagonal at row {next(i for i in rows if small[:, i].any())}"))
    x = np.zeros_like(b)
    with np.errstate(all="ignore"):
        inv = counted_recip(diag, acc)
        for i in rows:
            known = slice(0, i) if lower else slice(i + 1, n)
            s = csub(b[:, i], dot_u(t[:, i, known], x[:, known], acc), acc)
            x[:, i] = cmul(s, inv[:, i], acc)
    flag_non_finite(failed, x)
    return x.reshape(lead + (n,))


def forward_sub(
    l: np.ndarray, b: np.ndarray, acc: OpCount, failed: np.ndarray | None = None
) -> np.ndarray:
    """Solve L z = b for lower-triangular L by forward substitution."""
    return _triangular_sub(l, b, acc, failed, lower=True)


def backward_sub(
    u: np.ndarray, b: np.ndarray, acc: OpCount, failed: np.ndarray | None = None
) -> np.ndarray:
    """Solve U x = b for upper-triangular U by backward substitution."""
    return _triangular_sub(u, b, acc, failed, lower=False)


def invert_direct(a: np.ndarray, failed: np.ndarray | None = None) -> np.ndarray:
    """Uncounted Gauss-Jordan inverse with partial pivoting (test oracle)."""
    a, lead = as_stack(a)
    failed = flat_mask(failed)
    b, n = a.shape[0], a.shape[-1]
    tol = pivot_tol(a)
    trials = np.arange(b)
    aug = np.concatenate([a, np.broadcast_to(np.eye(n, dtype=np.complex128), a.shape)], axis=2)
    with np.errstate(all="ignore"):
        for col in range(n):
            p = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
            flag(failed, np.abs(aug[trials, p, col]) <= tol,
                 lambda: SingularMatrixError(f"no pivot in column {col}"))
            pivot_rows = aug[trials, p].copy()
            aug[trials, p] = aug[:, col]
            aug[:, col] = pivot_rows / pivot_rows[:, col, None]
            factors = aug[:, :, col].copy()
            factors[:, col] = 0.0
            aug -= factors[:, :, None] * aug[:, None, col]
    inv = np.ascontiguousarray(aug[:, :, n:])
    flag_non_finite(failed, inv)
    return inv.reshape(lead + (n, n))
