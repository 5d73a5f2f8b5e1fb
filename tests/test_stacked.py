"""Stacked solves: pinned exact tallies, stack equals singles, failures raise,
and the values-only calls (``acc=None``) agree with the counted ones.

``opcounts.json`` holds the full tally (sqrt, reciprocal, real_mul, add,
sub) of every counted function, taken from the one-system-at-a-time
implementation that preceded the stacked one. Keys are ``name/U`` or
``name/U/t``; the Gramian is regularized with 0.5, the channel is
2U x U, ADMIN uses beta = 0.5 and box = 1.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mimodet import decomp, detect
from mimodet.complexity import seeded_gramian
from mimodet.detect import Backend, DetectorSpec, Kind
from mimodet.kernels import OpCount

COUNTS = json.loads(Path(__file__).with_name("opcounts.json").read_text())
FIELDS = ("sqrt", "reciprocal", "real_mul", "add", "sub")


def tally(acc: OpCount) -> list[int]:
    return [getattr(acc, f) for f in FIELDS]


def system(u: int, seed: int) -> dict:
    """One instance of every operand the counted functions take."""
    rng = np.random.Generator(np.random.Philox(key=[seed, u]))
    n = 2 * u
    h = (rng.standard_normal((n, u)) + 1j * rng.standard_normal((n, u))) / np.sqrt(2)
    g = seeded_gramian(u, seed)
    l = np.linalg.cholesky(g)
    return {
        "h": h,
        "y": rng.standard_normal(n) + 1j * rng.standard_normal(n),
        "g": g,
        "b": rng.standard_normal(u) + 1j * rng.standard_normal(u),
        "l": l,
        "lh": np.ascontiguousarray(l.conj().T),
    }


def stack(systems: list[dict]) -> dict:
    return {key: np.stack([s[key] for s in systems]) for key in systems[0]}


def outputs(result) -> list[np.ndarray]:
    if isinstance(result, tuple):
        return [np.asarray(v) for v in result]
    return [np.asarray(result)]


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    if want.dtype == bool:  # the NSA divergence flag
        assert np.array_equal(got, want)
    else:
        assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)


# name -> call(operands, t, acc); t is ignored by the direct functions
CALLS = {
    "gramian": lambda s, t, acc: detect.gramian(s["h"], 0.5, acc),
    "matched_filter": lambda s, t, acc: detect.matched_filter(s["h"], s["y"], acc),
    "gram_schmidt_qr": lambda s, t, acc: detect.gram_schmidt_qr(s["g"], acc),
    "cholesky": lambda s, t, acc: detect.cholesky(s["g"], acc),
    "ldl": lambda s, t, acc: detect.ldl(s["g"], acc),
    "forward_sub": lambda s, t, acc: detect.forward_sub(s["l"], s["b"], acc),
    "backward_sub": lambda s, t, acc: detect.backward_sub(s["lh"], s["b"], acc),
    **{
        f"exact_solve.{be.value}": (
            lambda s, t, acc, be=be: detect.exact_solve(s["g"], s["b"], be, acc)
        )
        for be in Backend
    },
    "nsa_solve": lambda s, t, acc: detect.nsa_solve(s["g"], s["b"], t, acc),
    "gs_solve": lambda s, t, acc: detect.gs_solve(s["g"], s["b"], t, acc),
    "cg_solve": lambda s, t, acc: detect.cg_solve(s["g"], s["b"], t, acc),
    "admin_solve": lambda s, t, acc: detect.admin_solve(s["g"], s["b"], t, 0.5, 1.0, acc),
}


def parse(key: str) -> tuple[str, int, int]:
    name, u, *t = key.split("/")
    return name, int(u), int(t[0]) if t else 1


def test_pinned_table_covers_every_function():
    assert {parse(key)[0] for key in COUNTS} == set(CALLS)


@pytest.mark.parametrize("key", sorted(COUNTS))
def test_single_system_tally_is_pinned(key):
    name, u, t = parse(key)
    acc = OpCount()
    CALLS[name](system(u, 0), t, acc)
    assert tally(acc) == COUNTS[key]


@pytest.mark.parametrize("key", sorted(COUNTS))
def test_stack_equals_singles_and_charges_b_times(key):
    name, u, t = parse(key)
    systems = [system(u, seed) for seed in range(3)]
    single_acc = OpCount()
    singles = [outputs(CALLS[name](s, t, single_acc)) for s in systems]
    acc = OpCount()
    stacked = outputs(CALLS[name](stack(systems), t, acc))
    assert tally(acc) == [3 * v for v in COUNTS[key]] == tally(single_acc)
    for k, one in enumerate(singles):
        for got, want in zip(stacked, one):
            assert_close(got[k], want)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_leading_axes(name):
    # a (2, 3) leading shape is kept as given, gives the flat 6-stack's
    # outputs bit for bit and charges 6 times the single-system tally
    flat = stack([system(4, seed) for seed in range(6)])
    grid = {key: v.reshape((2, 3) + v.shape[1:]) for key, v in flat.items()}
    single_acc, flat_acc, grid_acc = OpCount(), OpCount(), OpCount()
    CALLS[name](system(4, 0), 3, single_acc)
    want = outputs(CALLS[name](flat, 3, flat_acc))
    got = outputs(CALLS[name](grid, 3, grid_acc))
    assert tally(grid_acc) == tally(flat_acc) == [6 * v for v in tally(single_acc)]
    for g, w in zip(got, want):
        assert g.shape == (2, 3) + w.shape[1:]
        assert np.array_equal(g.reshape(w.shape), w)


def _rank_one(g):
    g[:] = 1.0


def _indefinite(g):
    g[1, 1] = -abs(g[1, 1])


def _skew(g):
    g[0, 1] += 1.0


def _zero_diagonal(g):
    g[2, 2] = 0.0


def _nan(g):
    g[4, 2] = np.nan


# (call(g, b, acc), corruption of system 1's Gramian or the non-finite
# value put into its right-hand side, exception type a single-system call
# raises)
FAILURES = [
    pytest.param(lambda g, b, acc: detect.gram_schmidt_qr(g, acc), _rank_one,
                 decomp.NearSingularError, id="qr-rank-one"),
    pytest.param(lambda g, b, acc: detect.gram_schmidt_qr(g, acc), _nan,
                 FloatingPointError, id="qr-non-finite"),
    pytest.param(lambda g, b, acc: detect.exact_solve(g, b, Backend.QR, acc), _nan,
                 FloatingPointError, id="exact-qr-non-finite-gramian"),
    pytest.param(lambda g, b, acc: detect.cholesky(g, acc), _indefinite,
                 decomp.NotPositiveDefiniteError, id="chol-indefinite"),
    pytest.param(lambda g, b, acc: detect.cholesky(g, acc), _skew, ValueError,
                 id="chol-not-hermitian"),
    pytest.param(lambda g, b, acc: detect.ldl(g, acc), _indefinite,
                 decomp.NotPositiveDefiniteError, id="ldl-indefinite"),
    pytest.param(lambda g, b, acc: detect.ldl(g, acc), _skew, ValueError,
                 id="ldl-not-hermitian"),
    pytest.param(lambda g, b, acc: detect.forward_sub(np.tril(g), b, acc), _zero_diagonal,
                 decomp.SingularTriangularError, id="forward-zero-diagonal"),
    pytest.param(lambda g, b, acc: detect.backward_sub(np.triu(g), b, acc), _zero_diagonal,
                 decomp.SingularTriangularError, id="backward-zero-diagonal"),
    pytest.param(lambda g, b, acc: detect.gs_solve(g, b, 3, acc), _zero_diagonal,
                 decomp.SingularTriangularError, id="gs-zero-diagonal"),
    pytest.param(lambda g, b, acc: detect.cg_solve(g, b, 3, acc), _indefinite,
                 detect.CgBreakdownError, id="cg-indefinite"),
    *[
        pytest.param(call, value, FloatingPointError, id=f"{name}-{tag}")
        for name, call in (
            *[(f"exact-{be.value}", lambda g, b, acc, be=be: detect.exact_solve(g, b, be, acc))
              for be in Backend],
            ("nsa", lambda g, b, acc: detect.nsa_solve(g, b, 3, acc)),
            ("gs", lambda g, b, acc: detect.gs_solve(g, b, 3, acc)),
            ("cg", lambda g, b, acc: detect.cg_solve(g, b, 3, acc)),
            ("admin", lambda g, b, acc: detect.admin_solve(g, b, 3, 0.5, 1.0, acc)),
        )
        for value, tag in ((np.nan, "non-finite"), (np.inf, "inf"))
    ],
    pytest.param(lambda g, b, acc: detect.admin_solve(g, b, 3, 0.5, 1.0, acc), _indefinite,
                 decomp.NotPositiveDefiniteError, id="admin-indefinite"),
]


def one_bad_stack(corrupt) -> tuple[dict, dict, dict]:
    """Three 8 x 8 systems, system 1 corrupted: (system 1, the stack, the good two)."""
    systems = [system(8, seed) for seed in range(3)]
    if callable(corrupt):
        corrupt(systems[1]["g"])
    else:
        systems[1]["b"][3] = corrupt
    return systems[1], stack(systems), stack([systems[0], systems[2]])


@pytest.mark.parametrize("call,corrupt,error", FAILURES)
def test_one_bad_system_fails_alone(call, corrupt, error):
    # the stack raises what a call on its bad system alone raises, and the
    # good systems solve without it (the sweep isolates a failed trial by
    # solving its chunk again one trial at a time)
    bad, operands, good = one_bad_stack(corrupt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a failure is the solver's exception, never a warning
        with pytest.raises(error) as stacked:
            call(operands["g"], operands["b"], OpCount())
        with pytest.raises(error) as single:
            call(bad["g"], bad["b"], OpCount())
        call(good["g"], good["b"], OpCount())
    assert type(stacked.value) is type(single.value)


@pytest.mark.parametrize("call,corrupt,error", FAILURES)
def test_values_only_fails_as_counted(call, corrupt, error):
    # acc=None raises, on the same bad system, the type the counted call raises
    _, operands, good = one_bad_stack(corrupt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as values:
            call(operands["g"], operands["b"], None)
        with pytest.raises(error) as counted:
            call(operands["g"], operands["b"], OpCount())
        call(good["g"], good["b"], None)
    assert type(values.value) is type(counted.value)


# QR, Cholesky and LDL factor through LAPACK when uncounted, so they (and
# the solvers built on them) agree with the counted loop to rounding; every
# other routine runs its counted loop with nothing tallied, bit for bit
LAPACK = {"gram_schmidt_qr", "cholesky", "ldl", "exact_solve.qr", "exact_solve.chol",
          "exact_solve.ldl", "admin_solve"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_values_only_equals_counted(name):
    operands = stack([system(8, seed) for seed in range(3)])
    got = outputs(CALLS[name](operands, 3, None))
    want = outputs(CALLS[name](operands, 3, OpCount()))
    for g, w in zip(got, want):
        if name in LAPACK:
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
        else:
            assert np.array_equal(g, w)


SPECS = [DetectorSpec(kind, be) for kind in (Kind.ZF, Kind.MMSE) for be in Backend] + [
    DetectorSpec(kind) for kind in (Kind.NSA, Kind.GS, Kind.CG, Kind.ADMIN)]


@pytest.mark.parametrize("b,n,u", [(4, 32, 32), (60, 256, 16)])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.name}-{spec.params}")
def test_sweep_shaped_values_only_estimate(b, n, u, spec):
    # the stacks a sweep chunk solves: fig5/fig6 (32 x 32) and fig2 (256 x 16)
    rng = np.random.Generator(np.random.Philox(key=[b, u]))
    h = (rng.standard_normal((b, n, u)) + 1j * rng.standard_normal((b, n, u))) / np.sqrt(2)
    y = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    g0 = detect.gramian(h, 0.0, OpCount())
    x_mf = detect.matched_filter(h, y, OpCount())
    got = detect.soft_estimate(spec, g0, x_mf, 0.5, 1.0, None)
    want = detect.soft_estimate(spec, g0, x_mf, 0.5, 1.0, OpCount())
    if spec.kind in (Kind.NSA, Kind.GS, Kind.CG):
        assert np.array_equal(got, want)
    else:
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("b,u", [(4, 32), (100, 32), (60, 16)])
def test_values_only_qr_convention(b, u):
    # the Householder factors in Gram-Schmidt's convention: R upper
    # triangular with a real positive diagonal, Q unitary, QR = A
    rng = np.random.Generator(np.random.Philox(key=[b, u]))
    h = (rng.standard_normal((b, 2 * u, u)) + 1j * rng.standard_normal((b, 2 * u, u))) / np.sqrt(2)
    a = detect.gramian(h, 0.0, None)
    q, r = detect.gram_schmidt_qr(a, None)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.array_equal(r, np.triu(r))
    assert np.all(diag.imag == 0) and np.all(diag.real > 0)
    qh = np.swapaxes(q, -1, -2).conj()
    assert np.abs(qh @ q - np.eye(u)).max() <= 1e-12
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
