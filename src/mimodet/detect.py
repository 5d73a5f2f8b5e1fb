"""Uplink symbol detectors.

Exact-inversion linear detection (ZF and MMSE through QR, Cholesky or
LDL), the three approximate inversion-based detectors (truncated Neumann
series, Gauss-Seidel sweeps, conjugate gradient) and the ADMM
box-constrained detector.

Every detector solves a system against the regularized Gramian
G = H^H H + reg*I with right-hand side x_mf = H^H y, and reports the
operations it executed. The matched-filter product (4NU real mults) is
charged where it is computed, separately from the per-iteration work,
so inversion-only comparisons remain possible. ``soft_estimate`` is the
one dispatch from a ``DetectorSpec`` to its solver.

Like the routines in ``decomp``, every function here takes one system
or a stack with any leading shape, returns plain arrays, charges B
times the single-system tally for B systems, computed from shapes, and
raises on the first system it cannot solve; the sweep retries a raising
stack one (point, trial) at a time; ``decomp.finite_result`` is the one
place a non-finite result raises. NSA and GS also take a diagonal
shift ``reg``: they solve against G + reg*I reading G's off-diagonal
part in place, so one Gramian stack serves every SNR point at once.
``soft_estimate`` takes a per-point sigma2 for every kind (see there).

``acc=None`` computes values only, as in ``kernels`` and ``decomp``; the
sweep passes it everywhere. NSA, GS and CG then run their counted loops
with nothing tallied, bit for bit. QR, Cholesky and LDL factor through
LAPACK with the counted failure rules (see ``decomp``); exact QR takes
Q^H b through a transposed view of Q, and ADMIN inverts its regularized
Gramian once per stack, so each of its x-updates is one stacked
product, G^-1 r, instead of two looped triangular solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .decomp import (
    DecompositionError,
    SingularTriangularError,
    as_stack,
    backward_sub,
    cholesky,
    finite_result,
    forward_sub,
    gram_schmidt_qr,
    ldl,
    pivot_tol,
    vector_stack,
)
from .kernels import (
    OpCount,
    charge,
    counted_recip,
    dot_h,
    dot_u,
    hermitian,
    matvec,
    mul,
)


class DetectError(RuntimeError):
    """Raised when a detector cannot produce an estimate."""


class CgBreakdownError(DetectError):
    """Conjugate gradient met a non-positive curvature direction."""


# what a solver raises on a system it cannot solve, of any kind
SOLVE_ERRORS = (DecompositionError, DetectError, FloatingPointError)

# Working-set budget of one stacked call, in bytes, for the trial blocks of
# ``montecarlo._products`` and the point groups of ``_on_copies``. Measured
# on 32x32 and 256x16 sweeps: larger budgets were no faster and raised the peak RSS.
WORKING_SET = 1 << 20


class Kind(enum.Enum):
    ZF = "zf"
    MMSE = "mmse"
    NSA = "nsa"
    GS = "gs"
    CG = "cg"
    ADMIN = "admin"
    SIMO = "simo"


class Backend(enum.Enum):
    QR = "qr"
    CHOLESKY = "chol"
    LDL = "ldl"


_DEFAULT_ITERATIONS = {Kind.NSA: 3, Kind.GS: 3, Kind.CG: 3, Kind.ADMIN: 5}
# kind -> {DetectorSpec field it reads: the setting that field gives}; a kind
# ignores every other field, and ADMIN's beta replaces beta_scale * sigma2
_ITERATIVE = {"iterations": "iterations"}
SPEC_FIELDS = {
    Kind.ZF: {"backend": "backend"}, Kind.MMSE: {"backend": "backend"},
    Kind.NSA: _ITERATIVE, Kind.GS: _ITERATIVE, Kind.CG: _ITERATIVE,
    Kind.ADMIN: {**_ITERATIVE, "beta": "beta", "beta_scale": "beta"}, Kind.SIMO: {},
}


@dataclass(frozen=True)
class DetectorSpec:
    """Algorithm selector: kind, backend (exact kinds), iterations, beta.

    A kind ignores the fields ``SPEC_FIELDS`` does not give it. The
    backend defaults to QR and the iterations to the kind's entry in
    ``_DEFAULT_ITERATIONS``, else 1. ADMIN regularizes with ``beta`` when
    given, else ``beta_scale * sigma2``.
    """

    kind: Kind
    backend: Backend = Backend.QR
    iterations: int | None = None
    beta: float | None = None
    beta_scale: float = 1.0

    def __post_init__(self):
        if self.iterations is None:
            object.__setattr__(self, "iterations", _DEFAULT_ITERATIONS.get(self.kind, 1))
        it = self.iterations
        if isinstance(it, bool) or not isinstance(it, (int, np.integer)) or it < 1:
            raise ValueError(f"iterations must be an integer >= 1, got {it!r}")
        if self.beta is not None and not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        if not 0 < self.beta_scale < np.inf:
            raise ValueError("beta_scale must be positive and finite")

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def params(self) -> str:
        if self.kind in (Kind.ZF, Kind.MMSE):
            return f"backend={self.backend.value}"
        if self.kind is Kind.ADMIN:
            beta = "sigma2" if self.beta is None and self.beta_scale == 1.0 else (
                f"{self.beta_scale!r}*sigma2" if self.beta is None else repr(self.beta)
            )
            return f"t={self.iterations},beta={beta}"
        if self.kind is Kind.SIMO:
            return "mrc"
        return f"t={self.iterations}"

    def admin_beta(self, sigma2: float | np.ndarray) -> float | np.ndarray:
        """ADMIN's beta at ``sigma2`` (a float, or an array of them)."""
        beta = self.beta if self.beta is not None else self.beta_scale * sigma2
        if not np.all((0 < beta) & (beta < np.inf)):
            raise ValueError(f"ADMIN needs a finite beta > 0, got {beta!r} at sigma2 = {sigma2!r}")
        return beta


def matched_filter(
    h: np.ndarray, y: np.ndarray, acc: OpCount | None, h_h: np.ndarray | None = None,
) -> np.ndarray:
    """x_mf = H^H y, the right-hand side of every Gramian system.

    ``h_h`` is ``hermitian(h)`` when the caller has formed it already.
    """
    return matvec(hermitian(h) if h_h is None else h_h, y, acc)


def gramian(
    h: np.ndarray, reg: float, acc: OpCount | None, h_h: np.ndarray | None = None,
) -> np.ndarray:
    """G = H^H H + reg*I, formed in one product and mirrored from its upper triangle.

    Charged as the U(U+1)/2 inner products of the upper triangle. The
    diagonal is forced real, so the result is exactly Hermitian and
    positive definite whenever reg > 0.
    ``h_h`` is as in :func:`matched_filter`.
    """
    n, u = h.shape[-2:]
    if n < u:
        raise ValueError(f"gramian needs N >= U, got {n} < {u}")
    if reg < 0:
        raise ValueError("regularization must be non-negative")
    product = (hermitian(h) if h_h is None else h_h) @ h
    upper = np.triu(product, 1)
    g = upper + hermitian(upper)
    idx = np.arange(u)
    g[..., idx, idx] = product[..., idx, idx].real + reg
    systems = g.size // (u * u)
    charge(acc, products=n * systems * u * (u + 1) // 2, operands=(h, h))
    return g


@finite_result
def exact_solve(
    g: np.ndarray, b: np.ndarray, backend: Backend, acc: OpCount | None
) -> np.ndarray:
    """Solve G x = b through the chosen decomposition backend."""
    if backend is Backend.QR:
        q, r = gram_schmidt_qr(g, acc)
        # Q^H b = conj(Q^T conj(b)), through a view of Q: no copy of Q^H
        return backward_sub(r, matvec(np.swapaxes(q, -1, -2), b.conj(), acc).conj(), acc)
    if backend is Backend.CHOLESKY:
        l = cholesky(g, acc)
        return backward_sub(hermitian(l), forward_sub(l, b, acc), acc)
    if backend is Backend.LDL:
        return _ldl_solve(*ldl(g, acc), b, acc)
    raise ValueError(f"unknown backend {backend}")


def _ldl_solve(l: np.ndarray, d: np.ndarray, b: np.ndarray, acc: OpCount | None) -> np.ndarray:
    """Solve L D L^H x = b from the factors ``ldl`` returns."""
    z = mul(counted_recip(d, acc), forward_sub(l, b, acc), acc)
    return backward_sub(hermitian(l), z, acc)


@finite_result
def nsa_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount | None,
    reg: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Neumann series on (G + reg*I) x = x_mf, terms 0 .. t-1.

    Splits G + reg*I into its diagonal X = diag(G) + reg and its
    off-diagonal E, which is G's own, and accumulates
    u_{k+1} = -X^-1 (E u_k) starting from u_0 = X^-1 x_mf. ``reg`` is a
    scalar or an array that broadcasts against diag(G), shape (..., U):
    a (P, 1, 1) shift on a (T, U, U) stack gives P x T systems, each
    G[t] shifted by reg[p], without a copy of G per shift.
    The divergence flag (one per system of a stack, False at t = 1) is set
    when the last term outgrew the one before it; the estimate is still returned.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g = as_stack(g)
    x_mf = vector_stack(x_mf, g.shape[-1])
    diag = np.diagonal(g, axis1=-2, axis2=-1) + reg
    d_inv = counted_recip(diag.real, acc)
    e = g.copy()
    idx = np.arange(g.shape[-1])
    e[..., idx, idx] = 0.0
    term = mul(d_inv, x_mf, acc)
    prev = total = term
    for _ in range(1, t):
        prev, term = term, -mul(d_inv, matvec(e, term, acc), acc)
        total = total + term
    return total, np.linalg.norm(term, axis=-1) > np.linalg.norm(prev, axis=-1)


@finite_result
def gs_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount | None,
    reg: float | np.ndarray = 0.0,
) -> np.ndarray:
    """t Gauss-Seidel sweeps on (G + reg*I) x = x_mf.

    (D + L) is applied by forward substitution inside each sweep, never
    formed. The start is x = 0, so sweep 1 returns (D + L)^-1 x_mf. The
    off-diagonal entries are read from G itself and D is diag(G) + reg,
    with ``reg`` as in :func:`nsa_solve`; the pivot tolerance is
    ``pivot_tol(G + reg*I)``.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g = as_stack(g)
    u = g.shape[-1]
    x_mf = vector_stack(x_mf, u)
    diag = np.diagonal(g, axis1=-2, axis2=-1) + reg
    # pivot_tol(G + reg*I): the largest of |G|'s off-diagonal and |diag|
    off = np.abs(g)
    idx = np.arange(u)
    off[..., idx, idx] = 0.0
    largest = np.maximum(off.max(axis=(-2, -1)), np.abs(diag).max(axis=-1))
    small = np.abs(diag) <= pivot_tol(largest[..., None, None])[..., None]
    if small.any():
        raise SingularTriangularError(f"zero Gramian diagonal at {np.nonzero(small)[-1].min()}")
    x = np.zeros(np.broadcast_shapes(diag.shape, x_mf.shape), dtype=np.complex128)
    d_inv = counted_recip(diag.real, acc)
    for _ in range(t):
        for i in range(u):
            s = x_mf[..., i] - dot_u(g[..., i, :i], x[..., :i], acc)
            s = s - dot_u(g[..., i, i + 1 :], x[..., i + 1 :], acc)
            x[..., i] = mul(d_inv[..., i], s, acc)
    return x


@finite_result
def cg_solve(g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount | None) -> np.ndarray:
    """t conjugate-gradient steps on G x = x_mf from x = 0, r = p = x_mf.

    A system whose residual is exactly zero keeps its estimate for the
    remaining steps; every step is charged regardless, so the tally
    depends on shapes only. Non-positive curvature raises
    :class:`CgBreakdownError`.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g = as_stack(g)
    x_mf = vector_stack(x_mf, g.shape[-1])
    x = np.zeros_like(x_mf)
    r = x_mf.copy()
    p = x_mf.copy()
    rs = dot_h(r, r, acc).real
    for _ in range(t):
        live = rs != 0.0
        gp = matvec(g, p, acc)
        curvature = dot_h(p, gp, acc).real
        if (live & (curvature <= 0.0)).any():
            raise CgBreakdownError("p^H G p <= 0; Gramian is not positive definite")
        alpha = mul(rs, counted_recip(np.where(live, curvature, 1.0), acc), acc)
        x = x + mul(alpha[..., None], p, acc)
        r = r - mul(alpha[..., None], gp, acc)
        rs_new = dot_h(r, r, acc).real
        beta = mul(rs_new, counted_recip(np.where(live, rs, 1.0), acc), acc)
        p = r + mul(beta[..., None], p, acc)
        rs = rs_new
    return x


def _clip_box(v: np.ndarray, box: float) -> np.ndarray:
    return np.clip(v.real, -box, box) + 1j * np.clip(v.imag, -box, box)


@finite_result
def admin_solve(
    g_admin: np.ndarray,
    x_mf: np.ndarray,
    t: int,
    beta: float | np.ndarray,
    box: float,
    acc: OpCount | None,
) -> np.ndarray:
    """ADMM loop for the box-constrained detector.

    Factors G = H^H H + beta*I once with LDL and reuses the factors for
    every x-solve. Scaled updates with unit step: z clips x + lambda to
    the per-axis box, lambda accumulates x - z. With z and lambda
    starting at zero the first solve consumes x_mf unchanged, which is
    exactly the MMSE estimate with sigma2 replaced by beta. Values only
    (``acc=None``), the LDL factorization still runs, for its failure
    rule, and its factors are dropped; G^-1 is formed once and every
    x-solve is one stacked product G^-1 r. ``beta`` is a float, or an
    array that broadcasts against the stack's leading axes, such as
    (P, 1, 1) for one beta per SNR point of a (P, T, U, U) stack; a beta
    that is not positive and finite raises ``ValueError``, as
    ``DetectorSpec.admin_beta``.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not np.all((0 < beta) & (beta < np.inf)):
        raise ValueError("beta must be positive and finite")
    if acc is None:
        ldl(g_admin, None)  # the counted failure rule; its factors go before the inverse
        g_inv = np.linalg.inv(g_admin)

        def solve(rhs):
            return matvec(g_inv, rhs, None)
    else:
        l, d = ldl(g_admin, acc)

        def solve(rhs):
            return _ldl_solve(l, d, rhs, acc)
    x_mf = vector_stack(x_mf, g_admin.shape[-1])
    x = solve(x_mf)
    z = _clip_box(x, box)
    lam = x - z
    for _ in range(1, t):
        x = solve(x_mf + mul(beta, z - lam, acc))
        z = _clip_box(x + lam, box)
        lam = lam + (x - z)
    return x


def soft_estimate(
    spec: DetectorSpec, g0: np.ndarray, x_mf: np.ndarray, sigma2: float | np.ndarray,
    box: float, acc: OpCount | None,
) -> np.ndarray:
    """Soft symbol estimates of one detector from the shared products.

    ``g0`` is the unregularized Gramian H^H H (or a stack of them),
    ``x_mf`` = H^H y and ``box`` the per-axis ADMIN clipping bound.
    ``sigma2`` is a float, or an array shaped (P, 1, 1) for every kind:
    with ``g0`` shaped (T, U, U) and ``x_mf`` (P, T, U), one call solves
    P SNR points x T trials, each system as a call on its own would. NSA
    and GS read ``g0`` in place and shift only its diagonal. ZF, and
    ADMIN with a fixed beta, factor ``g0`` (regularized by beta) once for
    every point. MMSE, CG and ADMIN with ``beta_scale`` regularize a copy
    of ``g0`` per point, made and solved in groups of points by
    ``_on_copies``. A system that cannot be solved raises, as in every
    counted solver. The solvers are looked up as module globals at call
    time, so a wrapper installed on this module sees every call.
    """
    if spec.kind is Kind.ZF:
        return exact_solve(g0, x_mf, spec.backend, acc)
    if spec.kind is Kind.MMSE:
        return _on_copies(lambda g, b, _: exact_solve(g, b, spec.backend, acc), g0, x_mf, sigma2)
    if spec.kind is Kind.NSA:
        x, _ = nsa_solve(g0, x_mf, spec.iterations, acc, reg=sigma2)
        return x
    if spec.kind is Kind.GS:
        return gs_solve(g0, x_mf, spec.iterations, acc, reg=sigma2)
    if spec.kind is Kind.CG:
        return _on_copies(lambda g, b, _: cg_solve(g, b, spec.iterations, acc), g0, x_mf, sigma2)
    if spec.kind is Kind.ADMIN:
        return _on_copies(lambda g, b, beta: admin_solve(g, b, spec.iterations, beta, box, acc),
                          g0, x_mf, spec.admin_beta(sigma2))
    raise ValueError(f"no soft estimate for {spec.kind}")


def _on_copies(solve, g0: np.ndarray, x_mf: np.ndarray, reg: float | np.ndarray) -> np.ndarray:
    """``solve(G0 + reg*I, x_mf, reg)``, on copies of G0 made here.

    A shared ``reg`` (a float) makes one copy for every point, solved in
    one call. A per-point ``reg``, shaped (P, 1, 1) against ``x_mf``
    shaped (P, T, U), makes one copy per point, and the points are
    solved in groups whose copies, four times over, fit ``WORKING_SET``:
    four copies are the peak of a values-only QR solve, the most of any
    kind. A group holds at least one point, whose copies may alone pass
    the budget.
    """
    idx = np.arange(g0.shape[-1])
    group = max(1, WORKING_SET // (4 * g0.nbytes)) if np.ndim(reg) else len(x_mf)
    estimates = []
    for i in range(0, len(x_mf), group):
        r = reg[i:i + group] if np.ndim(reg) else reg
        diag = g0[..., idx, idx] + r
        g = np.broadcast_to(g0, diag.shape + diag.shape[-1:]).copy()
        g[..., idx, idx] = diag
        estimates.append(solve(g, x_mf[i:i + group], r))
    return np.concatenate(estimates)
