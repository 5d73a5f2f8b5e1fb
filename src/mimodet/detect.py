"""Uplink symbol detectors.

Exact-inversion linear detection (ZF and MMSE through QR, Cholesky or
LDL), the three approximate inversion-based detectors (truncated Neumann
series, Gauss-Seidel sweeps, conjugate gradient) and the ADMM
box-constrained detector.

Every detector solves a system against the regularized Gramian
G = H^H H + reg*I with right-hand side x_mf = H^H y, and reports the
operations it executed. The matched-filter product (4NU real mults) is
charged where it is computed, separately from the per-iteration work,
so inversion-only comparisons remain possible. ``SPEC_DEFAULTS`` is the
one table of what a ``DetectorSpec`` of each kind reads, and
``soft_estimate`` the one dispatch from a spec to its solver.

Like the routines in ``decomp``, every function here takes one system
or a stack with any leading shape, returns plain arrays, charges B
times the single-system tally for B systems, computed from shapes, and
raises on the first system it cannot solve; the sweep retries a raising
stack one (point, trial) at a time; ``decomp.finite_result`` is the one
place a non-finite result raises. Every solver takes a shift ``reg`` as
a trailing keyword (default 0) and solves against G + reg*I; a shift is
a multiple of the identity per system, read by :func:`solver_param`, as
is every iteration count: a (P, 1, 1) shift on a (T, U, U) stack gives
P x T systems, so one Gramian stack serves every SNR point at once. NSA,
GS and CG read G in place and shift only its diagonal; the counted exact
and ADMIN solves factor one copy of G + reg*I. ``soft_estimate`` passes
each kind its shift: 0 for ZF, beta for ADMIN, sigma2 for the rest.

``acc=None`` computes values only, as in ``kernels`` and ``decomp``; the
sweep passes it everywhere. NSA, GS and CG then run their counted loops
with nothing tallied, bit for bit. The exact and ADMIN solves come from
one builder, ``_solver``, which refuses a non-Hermitian G with
``ValueError`` (values only, in ``spectrum_of``, once per chunk in the
sweep). Values only, every estimate comes from the spectrum
G = V diag(lam) V^H, as x = V (lam + reg)^-1 V^H b, the many-shift
Tikhonov solve (Hansen, *Rank-Deficient and Discrete Ill-Posed
Problems*, 1998); it agrees with the counted solve to rounding. The
sweep forms one spectrum per chunk (``spectrum_of``) and passes it to
every exact and ADMIN solve of the chunk; a call given none forms its own.

Which systems fail is still the backend's decision; the spectrum only
proves where the backend cannot fail. The failure rule is the backend's
factor of G + s*I, s = min(reg), and its solve of one right-hand side b
per system of G, run untallied, the result dropped. One shift suffices:
the Cholesky pivots and |diag(R)| of G + s*I never decrease as s grows
(Schur complements are monotone), while the pivot tolerance grows by
1e-12 per unit of s. One right-hand side suffices: a triangular solve
raises only on its factor's diagonal, and a non-finite right-hand side
anywhere makes the estimate non-finite, so ``finite_result`` raises the
``FloatingPointError`` a counted solve raises. ``screen`` clears a
system when lam_min(G) + s > theta(U) M, where M = max|G| + |s| is at
least max|G + s*I|, when 1e-100 <= M <= 1e100, and when
||b||_2 <= 1e100 (lam_min(G) + s). A NaN or an infinity fails every
test, and a system holding one never reaches ``eigh`` (``spectrum_of``).
The backend factors and solves only the systems the screen does not
clear, called through this module's names. So it raises on exactly the
stacks it raised on before, with the same types, and the sweep retries
the same trials.

theta(U) = 2 sqrt(U) 1e-12 + 32 U^3 u, with u = 2^-53, follows from
backward-error bounds, not from data. Let F = G + s*I, lam = lam_min(F)
and gamma_k = k u / (1 - k u); complex arithmetic at most doubles gamma
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
2002, sec. 3.6), and ||F||_2 <= U M.

* eigh: the computed spectrum is the exact one of G + E with
  ||E||_2 <= p(U) u ||G||_2 (LAPACK Users' Guide, 3rd ed., sec. 4.7),
  p(U) taken as 8U. By Weyl's inequality the computed lam_min(G) + s
  exceeds lam by at most 8 U^2 u M.
* Cholesky (Higham, ch. 10, Thm 10.3): the computed factor is the exact
  one of F + dF with |dF| <= gamma_{U+1} |R^H| |R|, and by
  Cauchy-Schwarz (|R^H| |R|)_ij <= ||r_i|| ||r_j|| <= M (1 + O(u)), so
  ||dF||_2 <= 4 U^2 u M. Pivot j is the exact pivot of F + dF, at least
  its least eigenvalue, so at least lam - 4 U^2 u M; this holds column
  by column while the loop runs, as in the proof of Thm 10.7.
* LDL: the same, with |L| |D| |L^H| in place of |R^H| |R| (Higham,
  Thm 9.3 with U = D L^H), bounded alike by Cauchy-Schwarz.
* MGS: on F it computes the R that Householder QR computes on [0; F]
  (Björck & Paige, SIAM J. Matrix Anal. Appl. 13, 1992), whose backward
  error (Higham, ch. 19, Thm 19.4, its small constant taken as 8) is
  ||dF||_F <= 16 U^2 u ||F||_F <= 16 U^3 u M. So
  |r_jj| >= sigma_min(F + dF) >= lam - 16 U^3 u M.

The backend raises on a pivot or an |r_jj| at or below 1e-12 max|F|,
and QR's backward substitution on an |r_jj| at or below 1e-12 max|R|,
where max|R| <= sqrt(U) M (1 + O(u)); the diagonal tests of the
Cholesky and LDL solves ask far less (1e-24 M). A cleared system has
lam > (theta(U) - 8 U^2 u) M, which clears each of these tests by more
than the factor's own error. Each factor T then has
gamma_U sqrt(U) kappa_2(T) < 1/2, so each triangular solve is within a
factor 2 of the exact one (Higham, Thm 8.5). With the range bounds,
every number a factor or a solve forms stays below 1e215 U^2, and the
errors of underflow stay far below u M.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .decomp import (
    PIVOT_RTOL,
    DecompositionError,
    SingularTriangularError,
    as_stack,
    as_system,
    backward_sub,
    check_hermitian,
    cholesky,
    finite_result,
    forward_sub,
    gram_schmidt_qr,
    ldl,
    pivot_tol,
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


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class DetectError(RuntimeError):
    """Raised when a detector cannot produce an estimate."""


class CgBreakdownError(DetectError):
    """Conjugate gradient met a non-positive curvature direction."""


# what a solver raises on a system it cannot solve, of any kind
SOLVE_ERRORS = (DecompositionError, DetectError, FloatingPointError)


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


# kind -> {each DetectorSpec field it reads: its default}; ADMIN reads beta or beta_scale
SPEC_DEFAULTS = {
    Kind.ZF: {"backend": Backend.QR}, Kind.MMSE: {"backend": Backend.QR},
    Kind.NSA: {"iterations": 3}, Kind.GS: {"iterations": 3}, Kind.CG: {"iterations": 3},
    Kind.ADMIN: {"iterations": 5, "beta": None, "beta_scale": 1.0}, Kind.SIMO: {},
}
# the kinds whose values-only solves read G0's spectrum (``spectrum_of``)
SPECTRAL_KINDS = frozenset({Kind.ZF, Kind.MMSE, Kind.ADMIN})


@dataclass(frozen=True)
class DetectorSpec:
    """Algorithm selector: kind, backend (exact kinds), iterations, beta.

    A field left None is unset. Built, a spec refuses with a ConfigError
    naming ``det`` a kind that is not a ``Kind``, a set field its kind does
    not read (``SPEC_DEFAULTS``), both of ADMIN's beta and beta_scale, or a
    bad value. It fills the unset fields its kind reads with their defaults
    and stores numbers as int and float, so specs of one detector are equal.
    ADMIN regularizes with ``beta`` when given, else ``beta_scale * sigma2``.
    """

    kind: Kind
    backend: Backend | None = None
    iterations: int | None = None
    beta: float | None = None
    beta_scale: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, Kind) or not isinstance(self.backend, (Backend, type(None))):
            raise ConfigError("det", "kind and backend must be a detect.Kind and a detect.Backend, "
                              f"got {self.kind!r} and {self.backend!r}")
        reads = SPEC_DEFAULTS[self.kind]
        for name in ("backend", "iterations", "beta", "beta_scale"):
            v = getattr(self, name)
            if v is not None and name not in reads:
                raise ConfigError("det", f"{self.name} reads no {name}, got {v!r}")
            if v is None and (name != "beta_scale" or self.beta is None):  # no default beside beta
                object.__setattr__(self, name, reads.get(name))
        if self.beta is not None and self.beta_scale is not None:
            raise ConfigError("det", f"{self.name} reads beta or beta_scale, not both")
        t = self.iterations
        if t is not None and (isinstance(t, bool) or not isinstance(t, numbers.Integral) or t < 1):
            raise ConfigError("det", f"iterations must be an integer >= 1, got {t!r}")
        object.__setattr__(self, "iterations", None if t is None else int(t))
        for name in [n for n in ("beta", "beta_scale") if getattr(self, n) is not None]:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0 < v < np.inf:
                raise ConfigError("det", f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def params(self) -> str:
        if self.kind in (Kind.ZF, Kind.MMSE):
            return f"backend={self.backend.value}"
        if self.kind is Kind.ADMIN:
            beta = repr(self.beta) if self.beta is not None else (
                "sigma2" if self.beta_scale == 1.0 else f"{self.beta_scale!r}*sigma2")
            return f"t={self.iterations},beta={beta}"
        if self.kind is Kind.SIMO:
            return "mrc"
        return f"t={self.iterations}"

    def admin_beta(self, sigma2: float | np.ndarray) -> float | np.ndarray:
        """ADMIN's beta at ``sigma2`` (a float, or an array of them)."""
        beta = self.beta if self.beta is not None else self.beta_scale * sigma2
        if not np.all((0 < beta) & (beta < np.inf)):
            raise ConfigError("det", f"ADMIN needs a finite beta > 0, got {beta!r} "
                              f"at sigma2 = {sigma2!r}")
        return beta


def solver_param(name: str, value):
    """``value`` as a solver reads its parameter ``name``, or a ``ValueError``
    naming ``name``, raised before the solver does any work.

    ``t`` is an integer >= 1, not a bool. Any other name is a shift s, s*I
    per system: a real number, or a real array whose last axis has length 1
    (not bool, str, complex or object), read by ``np.asarray`` as float64
    without copying a float64 array. ``beta`` must be > 0 and any other
    shift (``reg``, ``sigma2``) >= 0, both finite.
    """
    if name == "t":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"t must be >= 1, an integer, got {value!r}")
        return int(value)
    s = np.asarray(value)
    if s.dtype.kind not in "iuf" or s.shape[-1:] not in ((), (1,)):
        raise ValueError(f"{name} must be a real number or array with last axis 1, got {value!r}")
    if not np.all((s > 0 if name == "beta" else s >= 0) & (s < np.inf)):
        rule = "beta must be positive" if name == "beta" else "regularization must be non-negative"
        raise ValueError(f"{rule} and finite, got {name} = {value!r}")
    return s.astype(np.float64, copy=False)


def _floating(a) -> np.ndarray:
    """``a`` as an array in float64, or as it is (no copy) if it holds real or complex floats."""
    return np.asarray(a, np.result_type(np.asarray(a), 1.0))


def matched_filter(
    h: np.ndarray, y: np.ndarray, acc: OpCount | None, h_h: np.ndarray | None = None,
) -> np.ndarray:
    """x_mf = H^H y, the right-hand side of every Gramian system.

    ``h_h`` is ``hermitian(h)`` when the caller has formed it already.
    """
    return matvec(hermitian(_floating(h)) if h_h is None else h_h, _floating(y), acc)


def gramian(
    h: np.ndarray, reg: float | np.ndarray, acc: OpCount | None, h_h: np.ndarray | None = None,
) -> np.ndarray:
    """G = H^H H + reg*I, formed in one product and mirrored from its upper triangle.

    Charged as the U(U+1)/2 inner products of the upper triangle of each
    product formed. The diagonal is forced real, so the result is exactly
    Hermitian and positive definite whenever reg > 0. ``reg`` is a shift
    (:func:`solver_param`); ``h_h`` is as in :func:`matched_filter`.
    """
    reg = solver_param("reg", reg)
    h = _floating(h)  # an integer H would drop a fractional reg
    n, u = h.shape[-2:]
    if n < u:
        raise ValueError(f"gramian needs N >= U, got {n} < {u}")
    product = (hermitian(h) if h_h is None else h_h) @ h
    upper = np.triu(product, 1)
    idx = np.arange(u)
    g = _shifted(upper + hermitian(upper), product[..., idx, idx].real + reg)
    systems = product.size // (u * u)
    charge(acc, products=n * systems * u * (u + 1) // 2, operands=(h, h))
    return g


@finite_result
def exact_solve(
    g: np.ndarray, b: np.ndarray, backend: Backend, acc: OpCount | None,
    reg: float | np.ndarray = 0.0, spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Solve (G + reg*I) x = b through the chosen decomposition backend.

    ``reg`` is a shift (:func:`solver_param`); ``spectrum`` is G's, as
    :func:`spectrum_of` gives it, or None; see :func:`_solver`.
    """
    reg = solver_param("reg", reg)
    g, b = as_system(g, b)
    return _solver(g, b, backend, acc, reg, spectrum)(b)


def spectrum_of(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with G = V diag(lam) V^H for each system of the Hermitian
    stack G, from one ``np.linalg.eigh``, which reads G's lower triangle.

    So a system not Hermitian within ``pivot_tol`` raises ``ValueError``
    first. A system with a non-finite entry, which no check could refuse
    (its tolerance is not finite), is zeroed first, so nothing warns: its
    lam is NaN, which :func:`screen` never clears, so it goes to the backend.
    """
    g = as_stack(g)
    finite = np.isfinite(g).all(axis=(-2, -1))
    g = g if finite.all() else np.where(finite[..., None, None], g, 0.0)
    check_hermitian(g, pivot_tol(g))
    lam, v = np.linalg.eigh(g)
    lam[~finite] = np.nan
    return lam, v


# the range of max|G + s*I| and of ||b||_2 / (lam_min + s) that ``screen``
# clears: far enough inside the doubles that no factor or solve of a
# cleared system overflows, or loses accuracy to underflow
SCREEN_RANGE = 1e100


def screen_theta(u: int) -> float:
    """theta(U) = 2 sqrt(U) 1e-12 + 32 U^3 2^-53, derived in the module docstring."""
    return 2.0 * np.sqrt(u) * PIVOT_RTOL + 32.0 * u**3 * 2.0**-53


def screen(g: np.ndarray, lam: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Which systems (G + shift*I) x = rhs every backend factors and solves
    without raising, one bool per system of the stack ``g``.

    ``lam`` is G's spectrum (:func:`spectrum_of`) and ``rhs`` one
    right-hand side per system; the rule is derived in the module docstring.
    """
    top = np.abs(g).max(axis=(-2, -1)) + abs(shift)  # >= max|G + shift*I|
    low = lam.min(axis=-1) + shift
    return ((low > screen_theta(g.shape[-1]) * top) & (top >= 1.0 / SCREEN_RANGE)
            & (top <= SCREEN_RANGE) & (np.linalg.norm(rhs, axis=-1) / SCREEN_RANGE <= low))


def _solver(g: np.ndarray, b: np.ndarray, backend: Backend, acc: OpCount | None,
            reg: float | np.ndarray, spectrum: tuple[np.ndarray, np.ndarray] | None = None):
    """The solve of (G + reg*I) x = rhs as a function of ``rhs``, rhs shaped as
    ``b``, with G, ``b`` and ``reg`` as its two callers have taken them in.

    Counted, a non-Hermitian G raises ``ValueError`` here, the backend
    factors one copy of G + reg*I and each solve is that factor's
    triangular solves. Values only, every solve comes from G's spectrum,
    ``spectrum`` or else :func:`spectrum_of` G, which owns that check. The
    failure rule is the backend's solve of G + min(reg)*I for the first of
    ``b``'s right-hand sides, run untallied, and only on the systems
    :func:`screen` does not clear; its result is dropped (see the module
    docstring).
    """
    if not isinstance(backend, Backend):
        raise ValueError(f"unknown backend {backend}")
    if acc is not None:
        check_hermitian(g, pivot_tol(g))
        return _factored(_shifted(g, reg), backend, acc)
    lam, v = spectrum_of(g) if spectrum is None else spectrum
    first = np.broadcast_to(b[(0,) * (b.ndim - g.ndim + 1)], g.shape[:-1])
    shift = np.min(reg)
    left = ~screen(g, lam, shift, first)
    if left.any():
        _factored(_shifted(g[left], shift), backend, None)(first[left])
    vh, scale = hermitian(v), 1.0 / (lam + reg)
    return lambda rhs: matvec(v, scale * matvec(vh, rhs, None), None)


def _factored(f: np.ndarray, backend: Backend, acc: OpCount | None):
    """The backend's factor of the stack F, as the solve of F x = rhs as a
    function of ``rhs``; the factor and each solve are charged to ``acc``."""
    if backend is Backend.QR:
        q, r = gram_schmidt_qr(f, acc)
        qt = np.swapaxes(q, -1, -2)

        def solve(rhs):  # Q^H rhs = conj(Q^T conj(rhs)), through a view of Q
            return backward_sub(r, matvec(qt, rhs.conj(), acc).conj(), acc)
    elif backend is Backend.CHOLESKY:
        l = cholesky(f, acc)
        lh = hermitian(l)

        def solve(rhs):
            return backward_sub(lh, forward_sub(l, rhs, acc), acc)
    else:
        l, d = ldl(f, acc)
        lh = hermitian(l)

        def solve(rhs):  # D^-1 is charged per solve
            return backward_sub(lh, mul(counted_recip(d, acc), forward_sub(l, rhs, acc), acc), acc)
    return solve


def _shifted(g: np.ndarray, reg: float | np.ndarray) -> np.ndarray:
    """G + reg*I in one copy of the stack G, broadcast against the shift ``reg``."""
    idx = np.arange(g.shape[-1])
    diag = g[..., idx, idx] + reg
    out = np.broadcast_to(g, diag.shape + diag.shape[-1:]).copy()
    out[..., idx, idx] = diag
    return out


@finite_result
def nsa_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount | None,
    reg: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Neumann series on (G + reg*I) x = x_mf, terms 0 .. t-1.

    Splits G + reg*I into its diagonal X = diag(G) + reg and its
    off-diagonal E, which is G's own, and accumulates
    u_{k+1} = -X^-1 (E u_k) starting from u_0 = X^-1 x_mf. ``t`` and the
    shift ``reg`` are read by :func:`solver_param`: a (P, 1, 1) shift on a
    (T, U, U) stack gives P x T systems, each G[t] shifted by reg[p],
    without a copy of G per shift.
    The divergence flag (one per system of a stack, False at t = 1) is set
    when the last term outgrew the one before it; the estimate is still returned.
    """
    t, reg = solver_param("t", t), solver_param("reg", reg)
    g, x_mf = as_system(g, x_mf)
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
    with ``t`` and ``reg`` read by :func:`solver_param`; the pivot
    tolerance is ``pivot_tol(G + reg*I)``.
    """
    t, reg = solver_param("t", t), solver_param("reg", reg)
    g, x_mf = as_system(g, x_mf)
    u = g.shape[-1]
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
def cg_solve(
    g: np.ndarray, x_mf: np.ndarray, t: int, acc: OpCount | None,
    reg: float | np.ndarray = 0.0,
) -> np.ndarray:
    """t conjugate-gradient steps on (G + reg*I) x = x_mf from x = 0, r = p = x_mf.

    ``t`` and ``reg`` are read by :func:`solver_param`; (G + reg*I) p is
    formed as G p + reg p and charged as the one product. A system whose
    residual is exactly zero keeps its estimate for the remaining steps;
    every step is charged regardless, so the tally depends on shapes only.
    Non-positive curvature raises :class:`CgBreakdownError`.
    """
    t, reg = solver_param("t", t), solver_param("reg", reg)
    g, x_mf = as_system(g, x_mf)
    x = np.zeros_like(x_mf)
    r = x_mf.copy()
    p = x_mf.copy()
    rs = dot_h(r, r, acc).real
    for _ in range(t):
        live = rs != 0.0
        gp = matvec(g, p, acc) + reg * p
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
    reg: float | np.ndarray = 0.0,
    spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """ADMM loop for the box-constrained detector.

    ``g_admin`` and ``x_mf`` are taken in by ``as_system``, and ``t``,
    ``beta`` and ``reg`` by :func:`solver_param`, before anything reads
    them. Every x-solve is against G = g_admin + reg*I: the detector's G
    is H^H H + beta*I, so a caller passes either that Gramian, or H^H H
    with ``reg=beta``. Every x-solve is one solve of :func:`_solver` with
    LDL as the backend, given ``spectrum`` as :func:`exact_solve` is.
    Scaled updates with unit step: z clips x + lambda to the per-axis box,
    lambda accumulates x - z. With z and lambda starting at zero the first
    solve consumes x_mf unchanged, which is exactly the MMSE estimate with
    sigma2 replaced by beta. ``beta`` is a shift, such as (P, 1, 1) for
    one beta per SNR point of a (P, T, U) stack of right-hand sides.
    """
    t, beta, reg = solver_param("t", t), solver_param("beta", beta), solver_param("reg", reg)
    g_admin, x_mf = as_system(g_admin, x_mf)
    solve = _solver(g_admin, x_mf, Backend.LDL, acc, reg, spectrum)
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
    box: float, acc: OpCount | None, spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Soft symbol estimates of one detector from the shared products.

    ``g0`` is the unregularized Gramian H^H H (or a stack of them),
    ``x_mf`` = H^H y and ``box`` the per-axis ADMIN clipping bound.
    ``sigma2`` is a shift (:func:`solver_param`) for every kind, such as
    (P, 1, 1): with ``g0`` shaped (T, U, U) and ``x_mf`` (P, T, U), one
    call solves P SNR points x T trials, each system as a call on its own
    would. Every solver gets ``g0`` and the detector's shift, ``reg``: 0
    for ZF, beta for ADMIN and sigma2 for the rest. ``spectrum`` is G0's
    (:func:`spectrum_of`), or None; the exact and ADMIN solves take it,
    the other kinds do not read it. A system that cannot be solved
    raises, as in every counted solver. The solvers are looked up as
    module globals at call time, so a wrapper installed on this module
    sees every call.
    """
    kind, t, sigma2 = spec.kind, spec.iterations, solver_param("sigma2", sigma2)
    reg = 0.0 if kind is Kind.ZF else spec.admin_beta(sigma2) if kind is Kind.ADMIN else sigma2
    if kind in (Kind.ZF, Kind.MMSE):
        return exact_solve(g0, x_mf, spec.backend, acc, reg=reg, spectrum=spectrum)
    if kind is Kind.NSA:
        return nsa_solve(g0, x_mf, t, acc, reg=reg)[0]
    if kind is Kind.GS:
        return gs_solve(g0, x_mf, t, acc, reg=reg)
    if kind is Kind.CG:
        return cg_solve(g0, x_mf, t, acc, reg=reg)
    if kind is Kind.ADMIN:
        return admin_solve(g0, x_mf, t, reg, box, acc, reg=reg, spectrum=spectrum)
    raise ValueError(f"no soft estimate for {kind}")
