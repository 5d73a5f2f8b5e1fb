"""Uplink symbol detectors.

Exact-inversion linear detection (ZF and MMSE through QR, Cholesky, LDL
or a direct-inverse oracle), the three approximate inversion-based
detectors (truncated Neumann series, Gauss-Seidel sweeps, conjugate
gradient) and the ADMM box-constrained detector.

Every detector solves a system against the regularized Gramian
G = H^H H + reg*I with right-hand side x_mf = H^H y, and reports the
operations it executed. The matched-filter product (4NU real mults) is
charged where it is computed, separately from the per-iteration work,
so inversion-only comparisons remain possible. ``soft_estimate`` is the
one dispatch from a ``DetectorSpec`` to its solver.

Like the routines in ``decomp``, every function here takes one system
or a stack of them with a leading trial axis (``B x U x U`` Gramians,
``B x U`` right-hand sides), charges B times the single-system tally
computed from shapes, and either ORs its per-trial failures into a
``failed`` mask or, without one, raises on the first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .decomp import (
    SingularTriangularError,
    as_stack,
    backward_sub,
    cholesky,
    flag,
    flag_non_finite,
    flat_mask,
    forward_sub,
    gram_schmidt_qr,
    invert_direct,
    ldl,
    pivot_tol,
    vector_stack,
)
from .kernels import (
    OpCount,
    cadd,
    charge_dots,
    counted_recip,
    csub,
    dot_h,
    dot_u,
    hermitian,
    matmul,
    norm_sq,
    rcmul,
)


class DetectError(RuntimeError):
    """Raised when a detector cannot produce an estimate."""


class CgBreakdownError(DetectError):
    """Conjugate gradient met a non-positive curvature direction."""


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
    DIRECT = "direct"


_EXACT = (Kind.ZF, Kind.MMSE)
_DEFAULT_ITERATIONS = {Kind.NSA: 3, Kind.GS: 3, Kind.CG: 3, Kind.ADMIN: 5}


@dataclass(frozen=True)
class DetectorSpec:
    """Algorithm selector: kind, backend (exact kinds), iterations, beta.

    ``backend`` is ignored for NSA/GS/CG/ADMIN, ``iterations`` for
    ZF/MMSE. Defaults depend on the kind: backend QR, and t=3 for
    NSA/GS/CG, t=5 for ADMIN, 1 otherwise. ADMIN regularizes with
    ``beta`` when given, else ``beta_scale * sigma2``.
    """

    kind: Kind
    backend: Backend = Backend.QR
    iterations: int | None = None
    beta: float | None = None
    beta_scale: float = 1.0

    def __post_init__(self):
        if self.iterations is None:
            object.__setattr__(self, "iterations", _DEFAULT_ITERATIONS.get(self.kind, 1))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.beta_scale <= 0:
            raise ValueError("beta_scale must be positive")

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def params(self) -> str:
        if self.kind in _EXACT:
            return f"backend={self.backend.value}"
        if self.kind is Kind.ADMIN:
            beta = "sigma2" if self.beta is None and self.beta_scale == 1.0 else (
                f"{self.beta_scale!r}*sigma2" if self.beta is None else repr(self.beta)
            )
            return f"t={self.iterations},beta={beta}"
        if self.kind is Kind.SIMO:
            return "mrc"
        return f"t={self.iterations}"

    def admin_beta(self, sigma2: float) -> float:
        beta = self.beta if self.beta is not None else self.beta_scale * sigma2
        if beta <= 0:
            raise ValueError("ADMIN needs beta > 0 (sigma2 = 0 with no explicit beta)")
        return beta


def matched_filter(h: np.ndarray, y: np.ndarray, acc: OpCount) -> np.ndarray:
    """x_mf = H^H y, the right-hand side of every Gramian system."""
    if y.shape[-1] != h.shape[-2]:
        raise ValueError(f"matched_filter: H is {h.shape} but y has length {y.shape[-1]}")
    return matmul(hermitian(h), y, acc)


def gramian(h: np.ndarray, reg: float, acc: OpCount) -> np.ndarray:
    """G = H^H H + reg*I, formed in one product and mirrored from its upper triangle.

    Charged as the U(U+1)/2 inner products of the upper triangle plus one
    addition per diagonal entry. The diagonal is forced real, so the
    result is exactly Hermitian and positive definite whenever reg > 0.
    """
    n, u = h.shape[-2:]
    if n < u:
        raise ValueError(f"gramian needs N >= U, got {n} < {u}")
    if reg < 0:
        raise ValueError("regularization must be non-negative")
    product = hermitian(h) @ h
    upper = np.triu(product, 1)
    g = upper + hermitian(upper)
    idx = np.arange(u)
    g[..., idx, idx] = product[..., idx, idx].real + reg
    systems = g.size // (u * u)
    charge_dots(acc, n, systems * u * (u + 1) // 2)
    acc.add += systems * u
    return g


def exact_solve(
    g: np.ndarray,
    b: np.ndarray,
    backend: Backend,
    acc: OpCount,
    failed: np.ndarray | None = None,
) -> np.ndarray:
    """Solve G x = b through the chosen decomposition backend."""
    if backend is Backend.QR:
        f = gram_schmidt_qr(g, acc, failed)
        return backward_sub(f.r, matmul(hermitian(f.q), b, acc), acc, failed)
    if backend is Backend.CHOLESKY:
        f = cholesky(g, acc, failed)
        return backward_sub(hermitian(f.l), forward_sub(f.l, b, acc, failed), acc, failed)
    if backend is Backend.LDL:
        f = ldl(g, acc, failed)
        z = forward_sub(f.l, b, acc, failed)
        z = _apply_d_inverse(f.d, z, acc)
        return backward_sub(hermitian(f.l), z, acc, failed)
    if backend is Backend.DIRECT:
        # oracle path, deliberately uncounted
        x = (invert_direct(g, failed) @ np.asarray(b)[..., None])[..., 0]
        flag_non_finite(flat_mask(failed), x.reshape(-1, x.shape[-1]))
        return x
    raise ValueError(f"unknown backend {backend}")


def _apply_d_inverse(d: np.ndarray, z: np.ndarray, acc: OpCount) -> np.ndarray:
    with np.errstate(all="ignore"):  # a failed system's zero pivot
        return rcmul(counted_recip(d, acc), z, acc)


def _diagonal(g: np.ndarray) -> np.ndarray:
    return np.diagonal(g, axis1=-2, axis2=-1)


def nsa_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount, failed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Neumann series applied to x_mf, terms 0 .. t-1.

    Splits G into its diagonal X and off-diagonal E and accumulates
    u_{k+1} = -X^-1 (E u_k) starting from u_0 = X^-1 x_mf. The
    divergence flag (one per system of a stack) is set when the final
    term outgrew the previous one; the estimate is still returned.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g, lead = as_stack(g)
    x_mf = vector_stack(x_mf, g.shape[-1])
    with np.errstate(all="ignore"):
        d_inv = counted_recip(_diagonal(g).real, acc)
        e = g.copy()
        idx = np.arange(g.shape[-1])
        e[:, idx, idx] = 0.0
        term = rcmul(d_inv, x_mf, acc)
        total = term
        diverged = np.zeros(g.shape[0], dtype=bool)
        for k in range(1, t):
            prev = np.linalg.norm(term, axis=1)
            term = -rcmul(d_inv, matmul(e, term, acc), acc)
            total = cadd(total, term, acc)
            if k == t - 1:
                diverged = np.linalg.norm(term, axis=1) > prev
    flag_non_finite(flat_mask(failed), total)
    return total.reshape(lead + total.shape[1:]), diverged.reshape(lead)


def gs_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount, failed: np.ndarray | None = None
) -> np.ndarray:
    """t Gauss-Seidel sweeps on G x = x_mf.

    (D + L) is applied by forward substitution inside each sweep, never
    formed. The start is x = 0, so sweep 1 returns (D + L)^-1 x_mf.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g, lead = as_stack(g)
    failed = flat_mask(failed)
    u = g.shape[-1]
    x_mf = vector_stack(x_mf, u)
    diag = _diagonal(g)
    small = np.abs(diag) <= pivot_tol(g)[:, None]
    flag(failed, small.any(axis=1),
         lambda: SingularTriangularError(f"zero Gramian diagonal at {int(np.argmax(small.any(axis=0)))}"))
    x = np.zeros_like(x_mf)
    with np.errstate(all="ignore"):
        d_inv = counted_recip(diag.real, acc)
        for _ in range(t):
            for i in range(u):
                s = csub(x_mf[:, i], dot_u(g[:, i, :i], x[:, :i], acc), acc)
                s = csub(s, dot_u(g[:, i, i + 1 :], x[:, i + 1 :], acc), acc)
                x[:, i] = rcmul(d_inv[:, i], s, acc)
    flag_non_finite(failed, x)
    return x.reshape(lead + (u,))


def cg_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount, failed: np.ndarray | None = None
) -> np.ndarray:
    """t conjugate-gradient steps on G x = x_mf from x = 0, r = p = x_mf.

    A system whose residual is exactly zero keeps its estimate for the
    remaining steps; every step is charged regardless, so the tally
    depends on shapes only. Non-positive curvature fails the system
    (:class:`CgBreakdownError`).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g, lead = as_stack(g)
    failed = flat_mask(failed)
    x_mf = vector_stack(x_mf, g.shape[-1])
    x = np.zeros_like(x_mf)
    r = x_mf.copy()
    p = x_mf.copy()
    with np.errstate(all="ignore"):
        rs = norm_sq(r, acc)
        for _ in range(t):
            live = rs != 0.0
            gp = matmul(g, p, acc)
            curvature = dot_h(p, gp, acc).real
            flag(failed, live & (curvature <= 0.0),
                 lambda: CgBreakdownError("p^H G p <= 0; Gramian is not positive definite"))
            alpha = rs * counted_recip(np.where(live, curvature, 1.0), acc)
            acc.real_mul += alpha.size
            x = cadd(x, rcmul(alpha[:, None], p, acc), acc)
            r = csub(r, rcmul(alpha[:, None], gp, acc), acc)
            rs_new = norm_sq(r, acc)
            beta = rs_new * counted_recip(np.where(live, rs, 1.0), acc)
            acc.real_mul += beta.size
            p = cadd(r, rcmul(beta[:, None], p, acc), acc)
            rs = rs_new
    flag_non_finite(failed, x)
    return x.reshape(lead + x.shape[1:])


def _clip_box(v: np.ndarray, box: float) -> np.ndarray:
    return np.clip(v.real, -box, box) + 1j * np.clip(v.imag, -box, box)


def admin_solve(
    g_admin: np.ndarray,
    x_mf: np.ndarray,
    t: int,
    beta: float,
    box: float,
    acc: OpCount,
    trace: list | None = None,
    failed: np.ndarray | None = None,
) -> np.ndarray:
    """ADMM loop for the box-constrained detector.

    Factors G = H^H H + beta*I once with LDL and reuses the factors for
    every x-solve. Scaled updates with unit step: z clips x + lambda to
    the per-axis box, lambda accumulates x - z. With z and lambda
    starting at zero the first solve consumes x_mf unchanged, which is
    exactly the MMSE estimate with sigma2 replaced by beta. ``trace``,
    when given, collects (x, z, lambda) after each iteration.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    f = ldl(g_admin, acc, failed)
    lh = hermitian(f.l)

    def solve(rhs: np.ndarray) -> np.ndarray:
        z = forward_sub(f.l, rhs, acc, failed)
        z = _apply_d_inverse(f.d, z, acc)
        return backward_sub(lh, z, acc, failed)

    x = solve(x_mf)
    z = _clip_box(x, box)
    lam = csub(x, z, acc)
    if trace is not None:
        trace.append((x.copy(), z.copy(), lam.copy()))
    for _ in range(1, t):
        rhs = cadd(x_mf, rcmul(beta, csub(z, lam, acc), acc), acc)
        x = solve(rhs)
        z = _clip_box(cadd(x, lam, acc), box)
        lam = cadd(lam, csub(x, z, acc), acc)
        if trace is not None:
            trace.append((x.copy(), z.copy(), lam.copy()))
    return x


def soft_estimate(
    spec: DetectorSpec,
    g0: np.ndarray,
    x_mf: np.ndarray,
    sigma2: float,
    box: float,
    acc: OpCount,
    failed: np.ndarray | None = None,
) -> np.ndarray:
    """Soft symbol estimates of one detector from the shared products.

    ``g0`` is the unregularized Gramian H^H H (or a stack of them),
    ``x_mf`` = H^H y and ``box`` the per-axis ADMIN clipping bound. Each
    kind regularizes its own copy of ``g0``: ZF with 0, MMSE/NSA/GS/CG
    with sigma2, ADMIN with its beta. ``failed`` collects the systems
    that could not be solved. The solvers are looked up as module
    globals at call time, so a wrapper installed on this module sees
    every call.
    """
    if spec.kind in _EXACT:
        reg = sigma2 if spec.kind is Kind.MMSE else 0.0
        return exact_solve(_regularize(g0, reg), x_mf, spec.backend, acc, failed)
    if spec.kind is Kind.NSA:
        x, _ = nsa_solve(_regularize(g0, sigma2), x_mf, spec.iterations, acc, failed)
        return x
    if spec.kind is Kind.GS:
        return gs_solve(_regularize(g0, sigma2), x_mf, spec.iterations, acc, failed)
    if spec.kind is Kind.CG:
        return cg_solve(_regularize(g0, sigma2), x_mf, spec.iterations, acc, failed)
    if spec.kind is Kind.ADMIN:
        beta = spec.admin_beta(sigma2)
        return admin_solve(_regularize(g0, beta), x_mf, spec.iterations, beta, box, acc,
                           failed=failed)
    raise ValueError(f"no soft estimate for {spec.kind}")


def _regularize(g0: np.ndarray, reg: float) -> np.ndarray:
    g = g0.copy()
    idx = np.arange(g.shape[-1])
    g[..., idx, idx] += reg
    return g
