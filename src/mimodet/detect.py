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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .decomp import (
    SingularTriangularError,
    backward_sub,
    cholesky,
    forward_sub,
    gram_schmidt_qr,
    invert_direct,
    ldl,
)
from .kernels import (
    OpCount,
    add_vec,
    counted_recip,
    csub,
    dot_h,
    dot_u,
    dscale_vec,
    hermitian,
    matmul,
    norm_sq,
    rcmul,
    rcmul_vec,
    sub_vec,
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
    n, u = h.shape
    if y.shape[0] != n:
        raise ValueError(f"matched_filter: H is {h.shape} but y has length {y.shape[0]}")
    out = np.empty(u, dtype=np.complex128)
    for i in range(u):
        out[i] = dot_h(h[:, i], y, acc)
    return out


def gramian(h: np.ndarray, reg: float, acc: OpCount) -> np.ndarray:
    """G = H^H H + reg*I, computed on the upper triangle and mirrored.

    The diagonal is forced real, so the result is Hermitian to machine
    precision and positive definite whenever reg > 0.
    """
    n, u = h.shape
    if n < u:
        raise ValueError(f"gramian needs N >= U, got {n} < {u}")
    if reg < 0:
        raise ValueError("regularization must be non-negative")
    g = np.empty((u, u), dtype=np.complex128)
    for i in range(u):
        g[i, i] = dot_h(h[:, i], h[:, i], acc).real + reg
        acc.add += 1
        for j in range(i + 1, u):
            v = dot_h(h[:, i], h[:, j], acc)
            g[i, j] = v
            g[j, i] = v.conjugate()
    return g


def exact_solve(g: np.ndarray, b: np.ndarray, backend: Backend, acc: OpCount) -> np.ndarray:
    """Solve G x = b through the chosen decomposition backend."""
    if backend is Backend.QR:
        f = gram_schmidt_qr(g, acc)
        return backward_sub(f.r, matmul(hermitian(f.q), b, acc), acc)
    if backend is Backend.CHOLESKY:
        f = cholesky(g, acc)
        return backward_sub(hermitian(f.l), forward_sub(f.l, b, acc), acc)
    if backend is Backend.LDL:
        f = ldl(g, acc)
        z = forward_sub(f.l, b, acc)
        z = _apply_d_inverse(f.d, z, acc)
        return backward_sub(hermitian(f.l), z, acc)
    if backend is Backend.DIRECT:
        return invert_direct(g) @ b  # oracle path, deliberately uncounted
    raise ValueError(f"unknown backend {backend}")


def _apply_d_inverse(d: np.ndarray, z: np.ndarray, acc: OpCount) -> np.ndarray:
    d_inv = np.empty_like(d)
    for i in range(d.shape[0]):
        d_inv[i] = counted_recip(d[i], acc)
    return dscale_vec(d_inv, z, acc)


def nsa_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount
) -> tuple[np.ndarray, bool]:
    """Truncated Neumann series applied to x_mf, terms 0 .. t-1.

    Splits G into its diagonal X and off-diagonal E and accumulates
    u_{k+1} = -X^-1 (E u_k) starting from u_0 = X^-1 x_mf. Sets the
    divergence flag when the final term outgrew the previous one; the
    estimate is still returned.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    u = g.shape[0]
    d_inv = np.empty(u)
    for i in range(u):
        d_inv[i] = counted_recip(g[i, i].real, acc)
    e = g.copy()
    np.fill_diagonal(e, 0.0)
    term = dscale_vec(d_inv, x_mf, acc)
    total = term.copy()
    diverged = False
    for k in range(1, t):
        prev = float(np.linalg.norm(term))
        term = -dscale_vec(d_inv, matmul(e, term, acc), acc)
        total = add_vec(total, term, acc)
        if k == t - 1 and float(np.linalg.norm(term)) > prev:
            diverged = True
    return total, diverged


def gs_solve(g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount) -> np.ndarray:
    """t Gauss-Seidel sweeps on G x = x_mf.

    (D + L) is applied by forward substitution inside each sweep, never
    formed. The start is x = 0, so sweep 1 returns (D + L)^-1 x_mf.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    u = g.shape[0]
    tol = 1e-12 * max(np.abs(g).max(), 1e-300)
    d_inv = np.empty(u)
    for i in range(u):
        if abs(g[i, i]) <= tol:
            raise SingularTriangularError(f"zero Gramian diagonal at {i}")
        d_inv[i] = counted_recip(g[i, i].real, acc)
    x = np.zeros(u, dtype=np.complex128)
    for _ in range(t):
        for i in range(u):
            s = csub(x_mf[i], dot_u(g[i, :i], x[:i], acc), acc)
            s = csub(s, dot_u(g[i, i + 1 :], x[i + 1 :], acc), acc)
            x[i] = rcmul(d_inv[i], s, acc)
    return x


def cg_solve(g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount) -> np.ndarray:
    """t conjugate-gradient steps on G x = x_mf from x = 0, r = p = x_mf."""
    if t < 1:
        raise ValueError("t must be >= 1")
    u = g.shape[0]
    x = np.zeros(u, dtype=np.complex128)
    r = x_mf.copy()
    p = x_mf.copy()
    rs = norm_sq(r, acc)
    for _ in range(t):
        if rs == 0.0:
            break
        gp = matmul(g, p, acc)
        curvature = dot_h(p, gp, acc).real
        if curvature <= 0.0:
            raise CgBreakdownError("p^H G p <= 0; Gramian is not positive definite")
        alpha = rs * counted_recip(curvature, acc)
        acc.real_mul += 1
        x = add_vec(x, rcmul_vec(alpha, p, acc), acc)
        r = sub_vec(r, rcmul_vec(alpha, gp, acc), acc)
        rs_new = norm_sq(r, acc)
        beta = rs_new * counted_recip(rs, acc)
        acc.real_mul += 1
        p = add_vec(r, rcmul_vec(beta, p, acc), acc)
        rs = rs_new
    return x


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
    f = ldl(g_admin, acc)
    lh = hermitian(f.l)

    def solve(rhs: np.ndarray) -> np.ndarray:
        z = forward_sub(f.l, rhs, acc)
        z = _apply_d_inverse(f.d, z, acc)
        return backward_sub(lh, z, acc)

    x = solve(x_mf)
    z = _clip_box(x, box)
    lam = sub_vec(x, z, acc)
    if trace is not None:
        trace.append((x.copy(), z.copy(), lam.copy()))
    for _ in range(1, t):
        rhs = add_vec(x_mf, rcmul_vec(beta, sub_vec(z, lam, acc), acc), acc)
        x = solve(rhs)
        z = _clip_box(add_vec(x, lam, acc), box)
        lam = add_vec(lam, sub_vec(x, z, acc), acc)
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
) -> np.ndarray:
    """Soft symbol estimate of one detector from the shared products.

    ``g0`` is the unregularized Gramian H^H H, ``x_mf`` = H^H y and
    ``box`` the per-axis ADMIN clipping bound. Each kind regularizes
    its own copy of ``g0``: ZF with 0, MMSE/NSA/GS/CG with sigma2,
    ADMIN with its beta. The solvers are looked up as module globals
    at call time, so a wrapper installed on this module sees every call.
    """
    if spec.kind in _EXACT:
        reg = sigma2 if spec.kind is Kind.MMSE else 0.0
        return exact_solve(_regularize(g0, reg), x_mf, spec.backend, acc)
    if spec.kind is Kind.NSA:
        x, _ = nsa_solve(_regularize(g0, sigma2), x_mf, spec.iterations, acc)
        return x
    if spec.kind is Kind.GS:
        return gs_solve(_regularize(g0, sigma2), x_mf, spec.iterations, acc)
    if spec.kind is Kind.CG:
        return cg_solve(_regularize(g0, sigma2), x_mf, spec.iterations, acc)
    if spec.kind is Kind.ADMIN:
        beta = spec.admin_beta(sigma2)
        return admin_solve(_regularize(g0, beta), x_mf, spec.iterations, beta, box, acc)
    raise ValueError(f"no soft estimate for {spec.kind}")


def _regularize(g0: np.ndarray, reg: float) -> np.ndarray:
    g = g0.copy()
    g.flat[:: g.shape[0] + 1] += reg
    return g
