"""Stacked solves: pinned exact tallies, stack equals singles, failures raise,
and the values-only calls (``acc=None``) agree with the counted ones.

``opcounts.json`` holds the full tally (sqrt, reciprocal, real_mul) of
every counted function, taken from the one-system-at-a-time
implementation that preceded the stacked one. Keys are ``name/U`` or
``name/U/t``; the Gramian is regularized with 0.5, the channel is
2U x U, ADMIN uses beta = 0.5 and box = 1.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mimodet import decomp, detect
from mimodet.complexity import seeded_gramian
from mimodet.detect import Backend, DetectorSpec, Kind
from mimodet.kernels import OpCount

COUNTS = json.loads(Path(__file__).with_name("opcounts.json").read_text())
FIELDS = ("sqrt", "reciprocal", "real_mul")


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
@settings(max_examples=25)
@given(u=st.integers(1, 24), t=st.integers(1, 4),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_stack_is_its_singles_whatever_the_values(name, u, t, seeds):
    # a stack of B = len(seeds) systems gives each system's own outputs and
    # charges B times the single-system tally, at any U and on any values
    systems = [system(u, seed) for seed in seeds]
    tallies = [OpCount() for _ in systems]
    singles = [outputs(CALLS[name](s, t, one)) for s, one in zip(systems, tallies)]
    acc = OpCount()
    stacked = outputs(CALLS[name](stack(systems), t, acc))
    assert all(one == tallies[0] for one in tallies)  # a tally depends on shapes only
    assert tally(acc) == [len(seeds) * v for v in tally(tallies[0])]
    for k, single in enumerate(singles):
        for got, want in zip(stacked, single):
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


# (id, call(g, b, acc)) of the exact and ADMIN solves
EXACT_AND_ADMIN = [
    *[(f"exact-{be.value}", lambda g, b, acc, be=be: detect.exact_solve(g, b, be, acc))
      for be in Backend],
    ("admin", lambda g, b, acc: detect.admin_solve(g, b, 3, 0.5, 1.0, acc)),
]

# (call(g, b, acc), corruption of system 1's Gramian or the non-finite
# value put into its right-hand side, exception type a single-system call
# raises); every routine that wears decomp.finite_result has a non-finite case
FAILURES = [
    pytest.param(lambda g, b, acc: detect.gram_schmidt_qr(g, acc), _rank_one,
                 decomp.NearSingularError, id="qr-rank-one"),
    pytest.param(lambda g, b, acc: detect.gram_schmidt_qr(g, acc), _nan,
                 FloatingPointError, id="qr-non-finite"),
    pytest.param(lambda g, b, acc: detect.cholesky(g, acc), _nan,
                 FloatingPointError, id="chol-non-finite"),
    pytest.param(lambda g, b, acc: detect.ldl(g, acc), _nan,
                 FloatingPointError, id="ldl-non-finite"),
    pytest.param(lambda g, b, acc: detect.forward_sub(np.tril(g), b, acc), _nan,
                 FloatingPointError, id="forward-non-finite-matrix"),
    *[
        pytest.param(call, value, FloatingPointError, id=f"{name}-{tag}")
        for name, call in (
            ("forward", lambda g, b, acc: detect.forward_sub(np.tril(g), b, acc)),
            ("backward", lambda g, b, acc: detect.backward_sub(np.triu(g), b, acc)),
        )
        for value, tag in ((np.nan, "non-finite"), (np.inf, "inf"))
    ],
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
            *EXACT_AND_ADMIN,
            ("nsa", lambda g, b, acc: detect.nsa_solve(g, b, 3, acc)),
            ("gs", lambda g, b, acc: detect.gs_solve(g, b, 3, acc)),
            ("cg", lambda g, b, acc: detect.cg_solve(g, b, 3, acc)),
        )
        for value, tag in ((np.nan, "non-finite"), (np.inf, "inf"), (_nan, "non-finite-gramian"))
    ],
    pytest.param(lambda g, b, acc: detect.admin_solve(g, b, 3, 0.5, 1.0, acc), _indefinite,
                 decomp.NotPositiveDefiniteError, id="admin-indefinite"),
    # every exact and ADMIN solve refuses a non-Hermitian Gramian, QR's included
    *[pytest.param(call, _skew, ValueError, id=f"{name}-not-hermitian")
      for name, call in EXACT_AND_ADMIN],
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


@pytest.mark.parametrize("call", [call for _, call in EXACT_AND_ADMIN],
                         ids=[name for name, _ in EXACT_AND_ADMIN])
def test_spectrum_of_refuses_what_the_solvers_refuse(call):
    # spectrum_of owns the values path's Hermitian check: a non-Hermitian
    # stack raises the ValueError, and the message, of a counted solve
    _, operands, _ = one_bad_stack(_skew)
    with pytest.raises(ValueError) as spectrum:
        detect.spectrum_of(operands["g"])
    with pytest.raises(ValueError) as counted:
        call(operands["g"], operands["b"], OpCount())
    assert type(spectrum.value) is type(counted.value)
    assert str(spectrum.value) == str(counted.value)


def _mirrored_inf(g):
    g[0, 1] = g[1, 0] = np.inf  # as gramian mirrors an overflowed upper triangle


@pytest.mark.parametrize("corrupt", [_mirrored_inf, _nan], ids=["mirrored-inf", "nan"])
def test_spectrum_of_a_non_finite_system_is_nan_without_a_warning(corrupt):
    # checked as it stands, a mirrored inf gives inf - inf, which warns;
    # nothing may warn, the bad system's lam is NaN, and the others'
    # spectrum is eigh's of them alone
    _, operands, good = one_bad_stack(corrupt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, v = detect.spectrum_of(operands["g"])
    assert np.isnan(lam[1]).all()
    want_lam, want_v = np.linalg.eigh(good["g"])
    assert np.array_equal(lam[[0, 2]], want_lam) and np.array_equal(v[[0, 2]], want_v)


# the exact and ADMIN solves take their values-only estimates from the
# Gramian's spectrum, so they agree with the counted solves to rounding;
# every other routine, the three factorizations included, runs its counted
# loop with nothing tallied, bit for bit
SPECTRAL = {"exact_solve.qr", "exact_solve.chol", "exact_solve.ldl", "admin_solve"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_values_only_equals_counted(name):
    operands = stack([system(8, seed) for seed in range(3)])
    got = outputs(CALLS[name](operands, 3, None))
    want = outputs(CALLS[name](operands, 3, OpCount()))
    for g, w in zip(got, want):
        if name in SPECTRAL:
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
        else:
            assert np.array_equal(g, w)


@settings(max_examples=200)
@given(u=st.integers(1, 12), extra=st.integers(0, 4), trials=st.integers(1, 3),
       eps=st.sampled_from([None, 0.0, 1e-9, 1e-7, 1e-6, 1e-4]),
       s1=st.just(0.0) | st.floats(-16.0, 1.0).map(lambda e: 10.0 ** e),
       step=st.floats(-17.0, 1.0).map(lambda e: 10.0 ** e), seed=st.integers(0, 2**32 - 1))
def test_a_shift_that_solves_makes_every_larger_one_solve(u, extra, trials, eps, s1, step, seed):
    # the values-only failure rule solves only the least regularized system:
    # where a backend solves G0 + s1*I, it solves G0 + s2*I for s2 > s1, on
    # random Gramian stacks and on stacks whose first system has column 1 =
    # column 0 + eps * w (eps = 0: rank deficient)
    rng = np.random.Generator(np.random.Philox(key=[seed, u]))
    shape = (trials, u + extra, u)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    if eps is not None and u > 1:
        h[0, :, 1] = h[0, :, 0] + eps * h[-1, :, -1]
    g0 = detect.gramian(h, 0.0, None)
    b = rng.standard_normal((trials, u)) + 1j * rng.standard_normal((trials, u))
    s2 = s1 + step
    assume(s2 > s1)
    for be in Backend:
        try:
            detect.exact_solve(g0, b, be, OpCount(), reg=s1)
        except detect.SOLVE_ERRORS:
            continue
        detect.exact_solve(g0, b, be, OpCount(), reg=s2)


@settings(max_examples=150)
@given(u=st.integers(1, 64), extra=st.integers(0, 8), trials=st.integers(1, 3),
       eps=st.sampled_from([None, 0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4]),
       rel=st.just(0.0) | st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       scale=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e), seed=st.integers(0, 2**32 - 1))
def test_every_system_the_screen_clears_every_backend_solves(u, extra, trials, eps, rel, scale,
                                                             seed):
    # the systems G0 + shift*I the spectrum clears, each backend factors
    # and solves, counted, without raising: on random Gramian stacks and
    # on stacks whose every system has column 1 = column 0 + eps * w
    # (eps = 0: rank deficient), scaled by 1e-6 .. 1e6, at shifts of 0
    # and of 1e-3 .. 1e3 times the screen's bound theta(U) max|G0|, which
    # put the near-singular systems on both sides of it
    rng = np.random.Generator(np.random.Philox(key=[seed, u]))
    shape = (trials, u + extra, u)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    if eps is not None and u > 1:
        h[:, :, 1] = h[:, :, 0] + eps * h[::-1, :, -1]
    g0 = scale * detect.gramian(h, 0.0, None)
    b = np.sqrt(scale) * (rng.standard_normal((trials, u)) + 1j * rng.standard_normal((trials, u)))
    shift = rel * detect.screen_theta(u) * np.abs(g0).max()
    cleared = detect.screen(g0, detect.spectrum_of(g0)[0], shift, b)
    if cleared.any():
        for be in Backend:
            detect.exact_solve(g0[cleared], b[cleared], be, OpCount(), reg=shift)


# every detector soft_estimate takes: each exact kind on each backend, the
# iterative kinds at t = 1..4, and ADMIN with a fixed beta or beta_scale
ANY_SPEC = st.one_of(
    st.builds(DetectorSpec, st.sampled_from([Kind.ZF, Kind.MMSE]), st.sampled_from(list(Backend))),
    st.builds(lambda kind, t: DetectorSpec(kind, iterations=t),
              st.sampled_from([Kind.NSA, Kind.GS, Kind.CG]), st.integers(1, 4)),
    st.builds(lambda t, beta: DetectorSpec(Kind.ADMIN, iterations=t, beta=beta),
              st.integers(1, 6), st.floats(1e-3, 10.0)),
    st.builds(lambda t, scale: DetectorSpec(Kind.ADMIN, iterations=t, beta_scale=scale),
              st.integers(1, 6), st.floats(0.1, 10.0)))


@settings(max_examples=120)
@given(spec=ANY_SPEC, u=st.integers(1, 24), extra=st.integers(0, 24),
       lead=st.lists(st.integers(1, 3), max_size=2), points=st.none() | st.integers(1, 3),
       sigma2=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_values_only_estimate_equals_counted(spec, u, extra, lead, points, sigma2, seed):
    # any U, N = U + extra antennas, any leading shape with a float sigma2,
    # or P points x T trials with sigma2 shaped (P, 1, 1): the uncounted
    # estimate is the counted one, bit for bit where no spectrum is
    # taken, and raises what the counted call raises
    rng = np.random.Generator(np.random.Philox(key=[seed, u]))
    n, trials = u + extra, (lead[:1] or [1]) if points else lead
    h = (rng.standard_normal((*trials, n, u)) + 1j * rng.standard_normal((*trials, n, u))) / np.sqrt(2)
    g0 = detect.gramian(h, 0.0, None)
    x_shape = (points, *trials, u) if points else (*trials, u)
    x_mf = np.sqrt(n) * (rng.standard_normal(x_shape) + 1j * rng.standard_normal(x_shape))
    if points:
        sigma2 = sigma2 * rng.uniform(0.1, 1.0, (points, 1, 1))
    try:
        want = detect.soft_estimate(spec, g0, x_mf, sigma2, 1.0, OpCount())
    except detect.SOLVE_ERRORS as err:
        with pytest.raises(type(err)):
            detect.soft_estimate(spec, g0, x_mf, sigma2, 1.0, None)
        return
    got = detect.soft_estimate(spec, g0, x_mf, sigma2, 1.0, None)
    assert got.shape == want.shape == x_shape
    if spec.kind in (Kind.NSA, Kind.GS, Kind.CG):
        assert np.array_equal(got, want)
    else:
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


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
    # the values-only factors are the counted modified Gram-Schmidt's, bit
    # for bit: R upper triangular with a real positive diagonal, Q unitary
    # to 1e-12 on these well-conditioned Gramians, QR = A
    rng = np.random.Generator(np.random.Philox(key=[b, u]))
    h = (rng.standard_normal((b, 2 * u, u)) + 1j * rng.standard_normal((b, 2 * u, u))) / np.sqrt(2)
    a = detect.gramian(h, 0.0, None)
    q, r = detect.gram_schmidt_qr(a, None)
    assert all(np.array_equal(v, c) for v, c in zip((q, r), detect.gram_schmidt_qr(a, OpCount())))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.array_equal(r, np.triu(r))
    assert np.all(diag.imag == 0) and np.all(diag.real > 0)
    qh = np.swapaxes(q, -1, -2).conj()
    assert np.abs(qh @ q - np.eye(u)).max() <= 1e-12
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)


# name -> solve(G, b, acc) for every public solver, and for the soft
# estimate of every kind but SIMO (which solves no system)
INTAKE = {
    **{f"exact_solve.{be.value}": (lambda g, b, acc, be=be: detect.exact_solve(g, b, be, acc))
       for be in Backend},
    "nsa_solve": lambda g, b, acc: detect.nsa_solve(g, b, 3, acc),
    "gs_solve": lambda g, b, acc: detect.gs_solve(g, b, 3, acc),
    "cg_solve": lambda g, b, acc: detect.cg_solve(g, b, 3, acc),
    "admin_solve": lambda g, b, acc: detect.admin_solve(g, b, 3, 0.5, 1.0, acc),
    "forward_sub": lambda g, b, acc: detect.forward_sub(g, b, acc),
    "backward_sub": lambda g, b, acc: detect.backward_sub(g, b, acc),
    **{f"soft_estimate.{spec.name}-{spec.params}": (
        lambda g, b, acc, spec=spec: detect.soft_estimate(spec, g, b, 0.5, 1.0, acc))
       for spec in SPECS},
}
# each way a caller may write G = [[4, 1, 0], [1, 3, 1], [0, 1, 2]] and b = [1, -2, 3]
INTAKE_FORMS = {
    "list": lambda a: a,
    "tuple": lambda a: tuple(tuple(row) if isinstance(row, list) else row for row in a),
    "int64": lambda a: np.array(a, dtype=np.int64),
    "float64": lambda a: np.array(a, dtype=np.float64),
}


@pytest.mark.parametrize("counted", [True, False], ids=["counted", "values-only"])
@pytest.mark.parametrize("form", sorted(INTAKE_FORMS))
@pytest.mark.parametrize("name", sorted(INTAKE))
def test_every_solver_takes_what_np_linalg_takes(name, form, counted):
    # as np.linalg.solve does, a solver takes G and b as any array-like, in
    # complex128: the result is the complex128 call's, bit for bit, and so
    # is the tally
    g, b = [[4, 1, 0], [1, 3, 1], [0, 1, 2]], [1, -2, 3]
    acc, want_acc = (OpCount(), OpCount()) if counted else (None, None)
    want = outputs(INTAKE[name](np.array(g, dtype=complex), np.array(b, dtype=complex), want_acc))
    got = outputs(INTAKE[name](INTAKE_FORMS[form](g), INTAKE_FORMS[form](b), acc))
    assert [(v.dtype, v.shape, v.tobytes()) for v in got] == [
        (v.dtype, v.shape, v.tobytes()) for v in want]
    assert acc == want_acc
