"""Stacked solves: pinned exact tallies, stack equals singles, per-system failures.

``opcounts.json`` holds the full tally (sqrt, reciprocal, real_mul, add,
sub) of every counted function, taken from the one-system-at-a-time
implementation that preceded the stacked one. Keys are ``name/U`` or
``name/U/t``; the Gramian is regularized with 0.5, the channel is
2U x U, ADMIN uses beta = 0.5 and box = 1.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mimodet import decomp, detect
from mimodet.complexity import seeded_gramian
from mimodet.detect import Backend
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
    if dataclasses.is_dataclass(result):
        return [np.asarray(v) for v in dataclasses.astuple(result)]
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


def test_leading_axes_and_failure_mask_shape():
    systems = stack([system(4, seed) for seed in range(6)])
    g = systems["g"].reshape(2, 3, 4, 4)
    failed = np.zeros((2, 3), dtype=bool)
    x = detect.exact_solve(g, systems["b"].reshape(2, 3, 4), Backend.CHOLESKY, OpCount(), failed)
    assert x.shape == (2, 3, 4) and not failed.any()
    flat = detect.exact_solve(systems["g"], systems["b"], Backend.CHOLESKY, OpCount())
    assert np.array_equal(x.reshape(6, 4), flat)


def _rank_one(g):
    g[:] = 1.0


def _indefinite(g):
    g[1, 1] = -abs(g[1, 1])


def _skew(g):
    g[0, 1] += 1.0


def _zero_diagonal(g):
    g[2, 2] = 0.0


# (call(g, b, acc, failed), corruption of system 1's Gramian or None for a NaN
# right-hand side, exception type a single-system call raises)
FAILURES = [
    pytest.param(lambda g, b, acc, f: detect.gram_schmidt_qr(g, acc, f), _rank_one,
                 decomp.NearSingularError, id="qr-rank-one"),
    pytest.param(lambda g, b, acc, f: detect.cholesky(g, acc, f), _indefinite,
                 decomp.NotPositiveDefiniteError, id="chol-indefinite"),
    pytest.param(lambda g, b, acc, f: detect.cholesky(g, acc, f), _skew, ValueError,
                 id="chol-not-hermitian"),
    pytest.param(lambda g, b, acc, f: detect.ldl(g, acc, f), _indefinite,
                 decomp.NotPositiveDefiniteError, id="ldl-indefinite"),
    pytest.param(lambda g, b, acc, f: detect.ldl(g, acc, f), _skew, ValueError,
                 id="ldl-not-hermitian"),
    pytest.param(lambda g, b, acc, f: detect.forward_sub(np.tril(g), b, acc, f), _zero_diagonal,
                 decomp.SingularTriangularError, id="forward-zero-diagonal"),
    pytest.param(lambda g, b, acc, f: detect.backward_sub(np.triu(g), b, acc, f), _zero_diagonal,
                 decomp.SingularTriangularError, id="backward-zero-diagonal"),
    pytest.param(lambda g, b, acc, f: detect.gs_solve(g, b, 3, acc, f), _zero_diagonal,
                 decomp.SingularTriangularError, id="gs-zero-diagonal"),
    pytest.param(lambda g, b, acc, f: detect.cg_solve(g, b, 3, acc, f), _indefinite,
                 detect.CgBreakdownError, id="cg-indefinite"),
    pytest.param(lambda g, b, acc, f: decomp.invert_direct(g, f), _rank_one,
                 decomp.SingularMatrixError, id="direct-rank-one"),
    *[
        pytest.param(lambda g, b, acc, f, be=be: detect.exact_solve(g, b, be, acc, f), None,
                     FloatingPointError, id=f"exact-{be.value}-non-finite")
        for be in Backend
    ],
    pytest.param(lambda g, b, acc, f: detect.nsa_solve(g, b, 3, acc, f), None,
                 FloatingPointError, id="nsa-non-finite"),
    pytest.param(lambda g, b, acc, f: detect.gs_solve(g, b, 3, acc, f), None,
                 FloatingPointError, id="gs-non-finite"),
    pytest.param(lambda g, b, acc, f: detect.cg_solve(g, b, 3, acc, f), None,
                 FloatingPointError, id="cg-non-finite"),
    pytest.param(lambda g, b, acc, f: detect.admin_solve(g, b, 3, 0.5, 1.0, acc, failed=f),
                 None, FloatingPointError, id="admin-non-finite"),
]


@pytest.mark.parametrize("call,corrupt,error", FAILURES)
def test_one_bad_system_fails_alone(call, corrupt, error):
    systems = [system(8, seed) for seed in range(3)]
    if corrupt is None:
        systems[1]["b"][3] = np.nan
    else:
        corrupt(systems[1]["g"])
    operands = stack(systems)
    failed = np.zeros(3, dtype=bool)
    with np.errstate(all="raise"):  # failed systems must not warn either
        stacked = outputs(call(operands["g"], operands["b"], OpCount(), failed))
    assert failed.tolist() == [False, True, False]
    for k in (0, 2):
        one = outputs(call(systems[k]["g"], systems[k]["b"], OpCount(), None))
        for got, want in zip(stacked, one):
            assert_close(got[k], want)
    with pytest.raises(error):
        call(systems[1]["g"], systems[1]["b"], OpCount(), None)
