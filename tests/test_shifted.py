"""Every SNR point of a chunk in one call, on a shared Gramian.

``nsa_solve(g0, x_mf, t, acc, reg=sigma2)`` with ``sigma2`` shaped
(P, 1, 1), ``g0`` (T, U, U) and ``x_mf`` (P, T, U) must be the P calls
the sweep made before, each on its own copy G0 + sigma2[p] I, bit for
bit, with P times their tallies and the same failure types; so must
``soft_estimate`` with that ``sigma2``, for every kind and backend.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet import decomp, detect
from mimodet.kernels import OpCount

SOLVERS = ("nsa_solve", "gs_solve")
FIELDS = ("sqrt", "reciprocal", "real_mul")


def regularized(g0: np.ndarray, s2: float) -> np.ndarray:
    """G0 + s2 I, formed as ``detect.soft_estimate`` forms it for the other kinds."""
    g = g0.copy()
    idx = np.arange(g.shape[-1])
    g[..., idx, idx] += s2
    return g


def outcome(call):
    """The outputs of ``call()`` as a tuple, or the type of the error it raised."""
    try:
        out = call()
    except detect.SOLVE_ERRORS as exc:
        return type(exc)
    return out if isinstance(out, tuple) else (out,)


@st.composite
def shifted_systems(draw):
    """(g0 (T, U, U), x_mf (P, T, U), sigma2 (P, 1, 1), t) from a random channel."""
    u = draw(st.integers(1, 24))
    n = u + draw(st.integers(0, 8))
    points, trials = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    t = draw(st.integers(1, 4))
    sigma2 = draw(st.lists(st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
                           min_size=points, max_size=points))
    rng = np.random.Generator(np.random.Philox(key=[draw(st.integers(0, 2**32 - 1)), u]))
    h = (rng.standard_normal((trials, n, u)) + 1j * rng.standard_normal((trials, n, u)))
    g0 = detect.gramian(h / np.sqrt(2.0), 0.0, None)
    x_mf = rng.standard_normal((points, trials, u)) + 1j * rng.standard_normal((points, trials, u))
    return g0, x_mf, np.array(sigma2)[:, None, None], t


def assert_same_as_per_point(name, g0, x_mf, sigma2, t):
    solver = getattr(detect, name)
    for counted in (False, True):
        each_acc, acc = (OpCount(), OpCount()) if counted else (None, None)
        each = [outcome(lambda: solver(regularized(g0, s2), x_mf[p], t, each_acc))
                for p, s2 in enumerate(sigma2.ravel().tolist())]
        shifted = outcome(lambda: solver(g0, x_mf, t, acc, reg=sigma2))
        raised = {o for o in each if isinstance(o, type)}
        if raised:
            assert shifted in raised
            continue
        assert isinstance(shifted, tuple) and len(shifted) == len(each[0])
        for k, got in enumerate(shifted):  # NSA: the estimate and the divergence flag
            assert got.shape == (len(each),) + each[0][k].shape
            for p, want in enumerate(each):
                assert np.array_equal(got[p], want[k])
        if counted:
            one = OpCount()
            solver(regularized(g0, float(sigma2[0, 0, 0])), x_mf[0], t, one)
            assert acc == each_acc == OpCount(*(len(each) * getattr(one, f) for f in FIELDS))


@pytest.mark.parametrize("name", SOLVERS)
@settings(max_examples=150)
@given(case=shifted_systems())
def test_shift_equals_per_point_calls(name, case):
    assert_same_as_per_point(name, *case)


@pytest.mark.parametrize("name", SOLVERS)
@settings(max_examples=80)
@given(case=shifted_systems(), where=st.tuples(*[st.integers(0, 23)] * 3),
       how=st.sampled_from(["nan", "inf", "zero_pivot"]))
def test_one_corrupted_system_raises_its_own_type(name, case, where, how):
    # one (point, trial) is made unsolvable: a non-finite right-hand side,
    # or a Gramian diagonal entry that the point's shift turns into 0
    g0, x_mf, sigma2, t = case
    g0, x_mf = g0.copy(), x_mf.copy()
    p, trial, k = (w % size for w, size in zip(where, x_mf.shape))
    if how == "zero_pivot":
        g0[trial, k, k] = -sigma2[p, 0, 0]
    else:
        x_mf[p, trial, k] = np.nan if how == "nan" else np.inf
    solver = getattr(detect, name)
    alone = outcome(lambda: solver(regularized(g0[trial], float(sigma2[p, 0, 0])),
                                   x_mf[p, trial], t, None))
    assert isinstance(alone, type)
    for acc in (None, OpCount()):
        assert outcome(lambda: solver(g0, x_mf, t, acc, reg=sigma2)) is alone


@settings(max_examples=80)
@given(case=shifted_systems(), where=st.tuples(st.integers(0, 23), st.integers(0, 23)),
       pivot=st.floats(min_value=0.0, max_value=1e-9))
def test_gs_near_zero_pivot_as_per_point(case, where, pivot):
    # a shifted pivot near the tolerance: the stack raises exactly when
    # one of its per-point calls does
    g0, x_mf, sigma2, t = case
    g0 = g0.copy()
    trial, k = where[0] % g0.shape[0], where[1] % g0.shape[-1]
    g0[trial, k, k] = pivot - sigma2[0, 0, 0]
    assert_same_as_per_point("gs_solve", g0, x_mf, sigma2, t)


@pytest.mark.parametrize("pivot, raises", [(2.0**-39, True), (2.0**-38, False)])
def test_gs_tolerance_is_that_of_the_shifted_matrix(pivot, raises):
    # G0 + I = [[2, 0.5], [0.5, pivot]], so the tolerance is 2e-12:
    # 2**-39 (1.8e-12) is below it, 2**-38 (3.6e-12) above. G0's own
    # largest entry, 1, would give 1e-12 and accept both
    g0 = np.array([[1.0, 0.5], [0.5, pivot - 1.0]], dtype=complex)
    assert decomp.pivot_tol(regularized(g0, 1.0)) == 2e-12
    for g, reg in ((regularized(g0, 1.0), 0.0), (g0, 1.0), (g0[None], np.ones((3, 1, 1)))):
        got = outcome(lambda: detect.gs_solve(g, np.ones(2, dtype=complex), 2, None, reg=reg))
        assert (got is decomp.SingularTriangularError) if raises else isinstance(got, tuple)


# Every kind through ``soft_estimate``: a (P, 1, 1) sigma2 against the P
# per-point calls. ZF and ADMIN with a fixed beta factor G0 once for all
# points; for the others (``shares_no_factor``) the stacked tally is the
# per-point tallies, since no factor serves more than one point.
SPECS = [
    *(detect.DetectorSpec(kind, backend) for kind in (detect.Kind.ZF, detect.Kind.MMSE)
      for backend in detect.Backend),
    detect.DetectorSpec(detect.Kind.CG),
    detect.DetectorSpec(detect.Kind.ADMIN, beta=0.5),
    detect.DetectorSpec(detect.Kind.ADMIN, beta_scale=2.0),
]
SPEC_IDS = [f"{s.name}-{s.params}" for s in SPECS]


def shares_no_factor(spec):
    """Whether no factor of ``soft_estimate`` for ``spec`` serves more than one
    point: MMSE and ADMIN with beta_scale factor G0 + reg*I per point, CG factors none."""
    return spec.kind in (detect.Kind.MMSE, detect.Kind.CG) or (
        spec.kind is detect.Kind.ADMIN and spec.beta is None)
BOX = 1.0


def per_point(spec, g0, x_mf, sigma2, acc):
    return [outcome(lambda: detect.soft_estimate(spec, g0, x_mf[p], s2, BOX, acc))
            for p, s2 in enumerate(sigma2.ravel().tolist())]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=40)
@given(case=shifted_systems())
def test_point_stack_equals_per_point_calls(spec, case):
    g0, x_mf, sigma2, t = case
    if spec.iterations is not None:  # the kinds that read iterations, here ADMIN and CG
        spec = dataclasses.replace(spec, iterations=t)
    for counted in (False, True):
        each_acc, acc = (OpCount(), OpCount()) if counted else (None, None)
        each = per_point(spec, g0, x_mf, sigma2, each_acc)
        stacked = outcome(lambda: detect.soft_estimate(spec, g0, x_mf, sigma2, BOX, acc))
        raised = {o for o in each if isinstance(o, type)}
        if raised:
            assert stacked in raised
            continue
        (got,) = stacked
        assert got.shape == x_mf.shape
        for p, (want,) in enumerate(each):
            assert np.array_equal(got[p], want)
        if counted and shares_no_factor(spec):
            assert acc == each_acc  # one regularized system per (point, trial)
        elif counted:  # G0 factored once for every point, with U reciprocals per trial
            assert all(getattr(acc, f) <= getattr(each_acc, f) for f in FIELDS)
            assert acc.reciprocal < each_acc.reciprocal or len(each) == 1


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=25)
@given(case=shifted_systems(), where=st.tuples(*[st.integers(0, 23)] * 3),
       value=st.sampled_from([np.nan, np.inf]))
def test_point_stack_with_one_corrupted_system_raises_its_own_type(spec, case, where, value):
    g0, x_mf, sigma2, t = case
    x_mf = x_mf.copy()
    p, trial, k = (w % size for w, size in zip(where, x_mf.shape))
    x_mf[p, trial, k] = value
    alone = outcome(lambda: detect.soft_estimate(
        spec, g0[trial], x_mf[p, trial], float(sigma2[p, 0, 0]), BOX, None))
    assert isinstance(alone, type)
    for acc in (None, OpCount()):
        assert outcome(lambda: detect.soft_estimate(spec, g0, x_mf, sigma2, BOX, acc)) is alone


def test_admin_beta_per_point():
    sigma2 = np.array([0.5, 2.0])[:, None, None]
    assert np.array_equal(detect.DetectorSpec(detect.Kind.ADMIN, beta_scale=4.0)
                          .admin_beta(sigma2), 4.0 * sigma2)
    assert detect.DetectorSpec(detect.Kind.ADMIN, beta=0.5).admin_beta(sigma2) == 0.5
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            detect.DetectorSpec(detect.Kind.ADMIN).admin_beta(np.array([1.0, bad])[:, None, None])
    # admin_solve refuses what admin_beta refuses, counted or not, as a
    # ValueError rather than as a numerical failure of the solve
    for bad in (-1.0, np.nan, np.inf):
        for acc in (None, OpCount()):
            with pytest.raises(ValueError, match="beta"):
                detect.admin_solve(np.eye(2, dtype=complex), np.ones((2, 1, 2), dtype=complex),
                                   2, np.array([1.0, bad])[:, None, None], 1.0, acc)
            with pytest.raises(ValueError, match="beta"):
                detect.admin_solve(np.eye(2, dtype=complex), np.ones(2, dtype=complex), 2, bad,
                                   1.0, acc)
