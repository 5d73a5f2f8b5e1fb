"""Closed-form real-multiplication model and its measured counterpart.

The model's rows are ``detect``'s three backends plus its three AID
kinds (NSA, GS, CG). ``formula_rm`` evaluates the published expressions
exactly in integer arithmetic. ``measure_rm`` runs a backend's
instrumented decomposition on a seeded Gramian and reports what it
executed; measured and modeled counts coincide for every U. The AID
detectors are modeled only (their closed forms assume the explicit
matrix-power evaluation that a per-vector implementation avoids), so
the table leaves their measured column empty.

Known model discrepancies, preserved rather than reconciled:

* The Gram-Schmidt spot values published alongside the formulas fit
  U^2(4U + 6); the derivation text and the formula table give
  U^2(4U + 2), which is what both ``formula_rm`` and the implementation
  produce (2176 at U = 8, not 2432).
* The LDL prose claims 4U(U-1) extra real mults over Cholesky while the
  tabulated values imply 3U(U-1); the implementation lands exactly on
  the tabulated value.
"""

from __future__ import annotations

import numpy as np

from . import phy
from .detect import Backend, Kind, _factored, gramian
from .kernels import OpCount

# the model's rows, in table order
METHODS = (Backend.QR, Backend.CHOLESKY, Backend.LDL, Kind.NSA, Kind.GS, Kind.CG)
# the one caller of this name is perfbench/child.py's counts mode, as
# complexity.Algo("qr"); a change to the benchmark drops it
Algo = Backend


def formula_rm(method: Backend | Kind, u: int, t: int = 1) -> int:
    """Exact real-multiplication count from the closed-form model."""
    if u < 1:
        raise ValueError("u must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    if method is Backend.QR:
        return u * u * (4 * u + 2)
    if method is Backend.CHOLESKY:
        num = 2 * u**3 + 3 * u**2 - 5 * u
        assert num % 3 == 0
        return num // 3
    if method is Backend.LDL:
        num = 2 * u**3 + 12 * u**2 - 14 * u
        assert num % 3 == 0
        return num // 3
    if method is Kind.NSA:
        return (t - 1) * (2 * u**3 + 2 * u**2 - 2 * u)
    if method is Kind.GS:
        return 6 * t * u * u
    if method is Kind.CG:
        return (t + 1) * (4 * u**2 + 20 * u)
    raise ValueError(f"no complexity model for {method}")


def seeded_gramian(u: int, seed: int) -> np.ndarray:
    """Well-conditioned Hermitian PD test matrix H^H H + 0.5 I of a 4U x U channel."""
    return gramian(phy.complex_gaussian((4 * u, u), phy.substream(seed, u)), 0.5, None)


def measure_rm(backend: Backend, u: int) -> OpCount:
    """Operation tally of a backend's instrumented decomposition on a seeded input.

    Counts are structure-only, so the input's values do not matter. Only
    the decomposition backends have a measurable factorization cost
    here; the AID detectors count their full detection path in
    ``detect`` instead.
    """
    if not isinstance(backend, Backend):  # _factored would count any other value as LDL
        raise ValueError(f"{backend!r} is not a detect.Backend; the AID kinds are modeled only")
    acc = OpCount()
    _factored(seeded_gramian(u, 0), backend, acc)  # factors here; the solve it returns is dropped
    return acc


DEFAULT_U_LIST = (4, 8, 16, 32, 64, 128)
DEFAULT_T = 3


def table_csv(u_list: tuple[int, ...], t: int) -> str:
    """The fig7 CSV: model and measured counts for the six ``METHODS`` over ``u_list``."""
    lines = ["U,algorithm,t,formula_rm,measured_rm"]
    for u in u_list:
        for method in METHODS:
            measured = measure_rm(method, u).real_mul if isinstance(method, Backend) else ""
            lines.append(f"{u},{method.value},{t},{formula_rm(method, u, t)},{measured}")
    return "\n".join(lines) + "\n"
