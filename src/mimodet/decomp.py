"""Instrumented matrix decompositions and triangular solvers.

Modified Gram-Schmidt QR, Cholesky and LDL factorizations of small
dense complex matrices, each threading an :class:`~mimodet.kernels.OpCount`
so the executed real-multiplication totals can be compared against the
closed-form complexity model. Counts are structure-only: two matrices of
the same size always produce identical tallies.

With ``acc=None`` a routine computes values only. The triangular solves
then run their counted loop with nothing tallied, so their values are
bit-identical to a counted call. The factorizations instead run the same
input checks, then factor the whole stack with one batched LAPACK call,
and apply the counted loop's pivot rule to the same quantity: QR
(Householder) to |diag(R)|, Cholesky and LDL to diag(L)^2 (LDL's pivots
are Cholesky's). A full-rank matrix has one R up to unit phases, so
|diag(R)| are Gram-Schmidt's column norms; the values path rescales R to
Gram-Schmidt's real positive diagonal. The factors agree with the
counted ones to rounding. Near singularity the two QRs keep the same
|diag(R)| to a few digits but not the same Q: modified Gram-Schmidt's
loses orthogonality in proportion to cond(A), Householder's keeps it.

Every routine follows ``np.linalg``'s conventions: it takes one system
or a stack with any leading shape (``... x U x U``, ``... x U``) and
returns plain arrays, ``(q, r)``, ``l`` or ``(l, d)`` for the factorizations.
The Python loop runs over the ``U`` rows or columns; each step is one
array operation over every system of the stack and over the inner index,
and charges its kernels per element, so a stack of B systems charges
exactly B times the single-system tally.

A routine raises on the first bad system of a stack, with the type a
call on that system alone raises: the pivot tolerance, the Hermitian
check and the non-finite check each test every system at once. The last
is :func:`finite_result`, which every solver here and in ``detect`` wears.
The sweep isolates a failed trial itself, by solving a stack that raised
again one (point, trial) at a time (see ``montecarlo``).

Measured totals (exact for every U):

* Gram-Schmidt QR : U^2 (4U + 2) real mults, U sqrts, U reciprocals
* Cholesky        : (2U^3 + 3U^2 - 5U) / 3, U sqrts, U reciprocals
* LDL             : (2U^3 + 12U^2 - 14U) / 3, no sqrts, U reciprocals
  (its pivots stay complex, see ``kernels``)
"""

from __future__ import annotations

import functools

import numpy as np

from .kernels import OpCount, counted_recip, counted_sqrt, dot_h, dot_u, hermitian, mul

PIVOT_RTOL = 1e-12


class DecompositionError(ValueError):
    """Base class for factorization and solver failures."""


class NearSingularError(DecompositionError):
    """A Gram-Schmidt column collapsed below the singularity tolerance."""


class NotPositiveDefiniteError(DecompositionError):
    """A Cholesky/LDL pivot was not positive."""


class SingularTriangularError(DecompositionError):
    """A triangular solve hit a (near-)zero diagonal entry."""


def as_stack(a: np.ndarray) -> np.ndarray:
    """``a`` as a complex square matrix or a stack of them (any leading shape)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def vector_stack(b: np.ndarray, n: int) -> np.ndarray:
    """Right-hand side(s) as a complex array whose last axis has length n."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[-1:] != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected length {n}")
    return b


def finite_result(solver):
    """The one failure rule of the solvers: run ``solver`` with floating-point
    warnings off, so a NaN or an overflow travels to its result, and raise
    ``FloatingPointError`` if an array it returns (alone or in a tuple) is
    not finite."""

    @functools.wraps(solver)
    def checked(*args, **kwargs):
        with np.errstate(all="ignore"):
            out = solver(*args, **kwargs)
        if not all(np.isfinite(a).all() for a in (out if isinstance(out, tuple) else (out,))):
            raise FloatingPointError("non-finite result in counted solver")
        return out

    return checked


def pivot_tol(a: np.ndarray) -> np.ndarray:
    """Per-system pivot tolerance: 1e-12 times the largest magnitude."""
    return PIVOT_RTOL * np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-300)


def _check_hermitian(a: np.ndarray, tol: np.ndarray) -> None:
    diff = hermitian(a)
    skew = np.abs(np.subtract(a, diff, out=diff)).max(axis=(-2, -1))
    if (skew > tol).any():
        raise ValueError("matrix is not Hermitian within 1e-12 relative")


@finite_result
def gram_schmidt_qr(a: np.ndarray, acc: OpCount | None) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt QR of a square complex matrix (or a stack): (q, r).

    Column i is normalized by its Euclidean norm (one square root and
    one reciprocal per column), then removed from all later columns,
    each already orthogonal to Q's columns 0 .. i-1.
    A column norm at or below 1e-12 times the largest input magnitude
    raises :class:`NearSingularError`. Values only (``acc=None``), the
    factors come from one batched Householder QR with the same rule on
    |diag(R)|.
    """
    a = as_stack(a)
    tol = pivot_tol(a)
    if acc is None:
        return _lapack_qr(a, tol)
    n = a.shape[-1]
    qt = np.swapaxes(a, -1, -2).copy()  # qt[..., i, :] is column i of Q
    r = np.zeros_like(a)
    for i in range(n):
        col = qt[..., i, :]
        nrm = counted_sqrt(dot_h(col, col, acc).real, acc)
        if (nrm <= tol).any():
            raise NearSingularError(f"column {i} collapsed during orthogonalization")
        r[..., i, i] = nrm
        qi = mul(counted_recip(nrm, acc)[..., None], qt[..., i, :], acc)
        qt[..., i, :] = qi
        rij = dot_h(qi[..., None, :], qt[..., i + 1 :, :], acc)
        r[..., i, i + 1 :] = rij
        qt[..., i + 1 :, :] -= mul(rij[..., None], qi[..., None, :], acc)
    return np.swapaxes(qt, -1, -2), r


def _lapack_qr(a: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uncounted Householder QR of a stack, in Gram-Schmidt's convention.

    |diag(R)| at or below ``tol`` raises as the counted loop's column-norm
    check does. Each column of Q takes the phase of R's diagonal entry and
    the matching row of R its conjugate, so diag(R) is real and positive.
    """
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    if (mag <= tol[..., None]).any():
        raise NearSingularError(f"a column collapsed during orthogonalization ({mag.min():.3e})")
    phase = diag / mag
    q *= phase[..., None, :]
    r *= phase.conj()[..., :, None]
    return q, r


def _lapack_cholesky(a: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uncounted Cholesky factor of a checked stack, and its diagonal.

    A pivot diag(L)^2 at or below ``tol`` raises as the counted loop's
    pivot check does; so does a stack LAPACK cannot factor.
    """
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if not np.isfinite(a).all():  # a NaN input fails as the counted loop fails it
            raise FloatingPointError("non-finite Gramian") from None
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    diag = np.diagonal(l, axis1=-2, axis2=-1).real
    piv = diag * diag
    if (piv <= tol[..., None]).any():
        raise NotPositiveDefiniteError(f"a pivot is not positive ({piv.min():.3e})")
    return l, diag


@finite_result
def cholesky(a: np.ndarray, acc: OpCount | None) -> np.ndarray:
    """Cholesky factor L with A = L L^H for Hermitian positive-definite A.

    A non-Hermitian input fails with ``ValueError``, a non-positive pivot
    with :class:`NotPositiveDefiniteError`.
    """
    a = as_stack(a)
    tol = pivot_tol(a)
    _check_hermitian(a, tol)
    if acc is None:
        return _lapack_cholesky(a, tol)[0]
    n = a.shape[-1]
    l = np.zeros_like(a)
    for i in range(n):
        row = l[..., i, :i]
        piv = a[..., i, i].real - dot_h(row, row, acc).real
        if (piv <= tol).any():
            raise NotPositiveDefiniteError(f"pivot {i} is not positive ({piv.min():.3e})")
        lii = counted_sqrt(piv, acc)
        l[..., i, i] = lii
        inv = counted_recip(lii, acc)
        s = dot_h(l[..., i, None, :i], l[..., i + 1 :, :i], acc)
        l[..., i + 1 :, i] = mul(inv[..., None], a[..., i + 1 :, i] - s, acc)
    return l


@finite_result
def ldl(a: np.ndarray, acc: OpCount | None) -> tuple[np.ndarray, np.ndarray]:
    """LDL^H factorization with unit lower-triangular L and real D > 0: (l, d).

    ``d`` holds the diagonal of D. Pivots stay complex in the working
    state and the D-weighted columns W = L D are cached, so each
    inner-product term, column scaling and W fill is one complex
    multiplication. A non-Hermitian input fails with ``ValueError``, a
    non-positive pivot with :class:`NotPositiveDefiniteError`. Values
    only (``acc=None``), the factors come from the Cholesky factor C:
    L = C / diag(C) column by column, and D = diag(C)^2.
    """
    a = as_stack(a)
    tol = pivot_tol(a)
    _check_hermitian(a, tol)
    if acc is None:
        c, diag = _lapack_cholesky(a, tol)
        return c / diag[..., None, :], diag * diag
    n = a.shape[-1]
    l = np.broadcast_to(np.eye(n, dtype=np.complex128), a.shape).copy()
    w = np.zeros_like(a)
    d = np.zeros(a.shape[:-1], dtype=np.complex128)
    for j in range(n):
        # pivot j and column j below it share the inner products with w[j]
        rest = a[..., j:, j] - dot_h(w[..., j, None, :j], l[..., j:, :j], acc)
        dj = rest[..., 0]
        if (dj.real <= tol).any():
            raise NotPositiveDefiniteError(f"pivot {j} is not positive ({dj.real.min():.3e})")
        d[..., j] = dj
        lkj = mul(rest[..., 1:], counted_recip(dj, acc)[..., None], acc)
        l[..., j + 1 :, j] = lkj
        w[..., j + 1 :, j] = mul(lkj, dj[..., None], acc)
    return l, d.real


@finite_result
def _triangular_sub(
    t: np.ndarray, b: np.ndarray, acc: OpCount | None, lower: bool
) -> np.ndarray:
    t = as_stack(t)
    n = t.shape[-1]
    b = vector_stack(b, n)
    rows = range(n) if lower else range(n - 1, -1, -1)
    diag = np.diagonal(t, axis1=-2, axis2=-1)
    small = np.abs(diag) <= pivot_tol(t)[..., None]
    if small.any():
        raise SingularTriangularError(f"zero diagonal at row {next(i for i in rows if small[..., i].any())}")
    x = np.zeros_like(b)
    inv = counted_recip(diag, acc)
    for i in rows:
        known = slice(0, i) if lower else slice(i + 1, n)
        s = b[..., i] - dot_u(t[..., i, known], x[..., known], acc)
        x[..., i] = mul(s, inv[..., i], acc)
    return x


def forward_sub(l: np.ndarray, b: np.ndarray, acc: OpCount | None) -> np.ndarray:
    """Solve L z = b for lower-triangular L by forward substitution."""
    return _triangular_sub(l, b, acc, lower=True)


def backward_sub(u: np.ndarray, b: np.ndarray, acc: OpCount | None) -> np.ndarray:
    """Solve U x = b for upper-triangular U by backward substitution."""
    return _triangular_sub(u, b, acc, lower=False)

