"""Closed-form real-multiplication model and its measured counterpart.

``formula_rm`` evaluates the published complexity expressions exactly in
integer arithmetic. ``measure_rm`` runs the instrumented decomposition
on a seeded Gramian and reports what it actually executed; for the three
decompositions measured and modeled counts coincide for every U. The
iterative detectors are modeled only (their closed forms assume the
explicit matrix-power evaluation that a per-vector implementation
avoids), so comparison rows leave their measured column empty.

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

import enum
from dataclasses import dataclass

import numpy as np

from . import decomp
from .kernels import OpCount


class Algo(enum.Enum):
    QR = "qr"
    CHOLESKY = "chol"
    LDL = "ldl"
    NSA = "nsa"
    GS = "gs"
    CG = "cg"


_DECOMPOSITIONS = (Algo.QR, Algo.CHOLESKY, Algo.LDL)


def formula_rm(algo: Algo, u: int, t: int = 1) -> int:
    """Exact real-multiplication count from the closed-form model."""
    if u < 1:
        raise ValueError("u must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    if algo is Algo.QR:
        return u * u * (4 * u + 2)
    if algo is Algo.CHOLESKY:
        num = 2 * u**3 + 3 * u**2 - 5 * u
        assert num % 3 == 0
        return num // 3
    if algo is Algo.LDL:
        num = 2 * u**3 + 12 * u**2 - 14 * u
        assert num % 3 == 0
        return num // 3
    if algo is Algo.NSA:
        return (t - 1) * (2 * u**3 + 2 * u**2 - 2 * u)
    if algo is Algo.GS:
        return 6 * t * u * u
    if algo is Algo.CG:
        return (t + 1) * (4 * u**2 + 20 * u)
    raise ValueError(f"unknown algorithm {algo}")


def seeded_gramian(u: int, seed: int, n_ratio: int = 4, reg: float = 0.5) -> np.ndarray:
    """Well-conditioned Hermitian PD test matrix H^H H + reg*I."""
    rng = np.random.Generator(np.random.Philox(key=[seed, u]))
    n = n_ratio * u
    g = rng.standard_normal((2, n, u))
    h = (g[0] + 1j * g[1]) / np.sqrt(2.0)
    a = h.conj().T @ h + reg * np.eye(u)
    return (a + a.conj().T) / 2.0


def measure_rm(algo: Algo, u: int) -> OpCount:
    """Operation tally of the instrumented decomposition on a seeded input.

    Counts are structure-only, so the input's values do not matter. Only
    the decomposition algorithms have a measurable factorization cost
    here; the iterative detectors count their full detection path in
    ``detect`` instead.
    """
    if algo not in _DECOMPOSITIONS:
        raise ValueError(f"{algo.value} is modeled only; no factorization to measure")
    a = seeded_gramian(u, 0)
    acc = OpCount()
    if algo is Algo.QR:
        decomp.gram_schmidt_qr(a, acc)
    elif algo is Algo.CHOLESKY:
        decomp.cholesky(a, acc)
    else:
        decomp.ldl(a, acc)
    return acc


@dataclass(frozen=True)
class ComparisonRow:
    u: int
    algo: Algo
    t: int
    formula_rm: int
    measured_rm: int | None


DEFAULT_U_LIST = (4, 8, 16, 32, 64, 128)
DEFAULT_T = 3


def comparison_table(u_list=DEFAULT_U_LIST, t: int = DEFAULT_T) -> list[ComparisonRow]:
    """Model and measured counts for all six algorithms over ``u_list``."""
    rows = []
    for u in u_list:
        for algo in Algo:
            measured = measure_rm(algo, u).real_mul if algo in _DECOMPOSITIONS else None
            rows.append(ComparisonRow(u, algo, t, formula_rm(algo, u, t), measured))
    return rows


def table_csv(rows: list[ComparisonRow]) -> str:
    lines = ["U,algorithm,t,formula_rm,measured_rm"]
    for r in rows:
        measured = "" if r.measured_rm is None else str(r.measured_rm)
        lines.append(f"{r.u},{r.algo.value},{r.t},{r.formula_rm},{measured}")
    return "\n".join(lines) + "\n"
