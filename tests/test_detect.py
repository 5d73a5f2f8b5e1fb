"""Detector correctness against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from mimodet import cli, detect, montecarlo as mc, phy
from mimodet.detect import Backend, ConfigError, DetectorSpec, Kind
from mimodet.kernels import OpCount
from test_montecarlo import trial_errors


def seeded_instance(n, u, snr_db, order=64, seed=0):
    rng = phy.substream(seed, 1000)
    const = phy.make_constellation(order)
    bits = rng.integers(0, 2, size=u * const.bits_per_symbol, dtype=np.uint8)
    x = phy.modulate(bits, const)
    h = phy.complex_gaussian((n, u), rng)
    sigma2 = phy.sigma2_from_snr(snr_db, u)
    y = h @ x + np.sqrt(sigma2) * phy.complex_gaussian((n,), rng)
    return h, y, x, sigma2, const


def estimate(spec, h, y, sigma2, box=1.0):
    """Soft estimate of ``spec`` through the dispatch the sweep uses."""
    acc = OpCount()
    g0 = detect.gramian(h, 0.0, acc)
    x_mf = detect.matched_filter(h, y, acc)
    return detect.soft_estimate(spec, g0, x_mf, sigma2, box, acc)


class TestMatchedFilter:
    def test_identity_channel(self):
        y = np.array([1 + 1j, 2.0, -3j])
        out = detect.matched_filter(np.eye(3, dtype=complex), y, OpCount())
        assert np.allclose(out, y)

    def test_column_of_ones(self):
        h = np.ones((2, 1), dtype=complex)
        out = detect.matched_filter(h, np.array([1.0, 1.0], dtype=complex), OpCount())
        assert out[0] == pytest.approx(2.0)

    def test_matches_direct_product(self):
        rng = phy.substream(2, 0)
        h = phy.complex_gaussian((8, 4), rng)
        y = phy.complex_gaussian((8,), rng)
        out = detect.matched_filter(h, y, OpCount())
        assert np.allclose(out, h.conj().T @ y, atol=1e-14)

    def test_count(self):
        acc = OpCount()
        detect.matched_filter(np.ones((8, 4), dtype=complex), np.ones(8, dtype=complex), acc)
        assert acc.real_mul == 4 * 8 * 4

    def test_takes_lists_as_float64(self):
        acc, want = OpCount(), OpCount()
        out = detect.matched_filter([[1, 2], [3, 4], [5, 6]], [1, 0, 2], acc)
        ref = detect.matched_filter(np.array([[1.0, 2], [3, 4], [5, 6]]), np.array([1.0, 0, 2]),
                                    want)
        assert out.dtype == np.float64 and np.array_equal(out, ref) and acc == want


class TestGramian:
    def test_orthonormal_columns(self):
        h = np.eye(4, dtype=complex)
        g = detect.gramian(h, 0.0, OpCount())
        assert np.allclose(g, np.eye(4))

    def test_regularized_column(self):
        g = detect.gramian(np.ones((2, 1), dtype=complex), 0.5, OpCount())
        assert g[0, 0] == pytest.approx(2.5)

    def test_matches_full_product_oracle(self):
        h = phy.complex_gaussian((64, 16), phy.substream(3, 0))
        g = detect.gramian(h, 0.3, OpCount())
        oracle = h.conj().T @ h + 0.3 * np.eye(16)
        assert np.abs(g - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_exactly_hermitian(self):
        h = phy.complex_gaussian((32, 8), phy.substream(4, 0))
        g = detect.gramian(h, 0.1, OpCount())
        assert np.array_equal(g, g.conj().T)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            detect.gramian(np.ones((2, 3), dtype=complex), 0.0, OpCount())

    @pytest.mark.parametrize("h", [[[1, 2], [3, 4], [5, 6]], np.array([[1, 2], [3, 4], [5, 6]])],
                             ids=["list", "int64"])
    def test_integer_channel_keeps_the_regularization(self, h):
        # H^T H + 0.5 I, formed in float64: an integer G would drop the 0.5
        acc, want = OpCount(), OpCount()
        g = detect.gramian(h, 0.5, acc)
        ref = detect.gramian(np.array([[1.0, 2], [3, 4], [5, 6]]), 0.5, want)
        assert np.array_equal(g, [[35.5, 44], [44, 56.5]]) and np.array_equal(g, ref)
        assert g.dtype == np.float64 and acc == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    def test_a_floating_channel_is_not_copied(self, dtype, monkeypatch):
        # the sweep's H reaches the product as it is, not as a copy per block
        h, y = np.ones((3, 2), dtype=dtype), np.ones(3, dtype=dtype)
        seen = []
        hermitian, matvec = detect.hermitian, detect.matvec
        monkeypatch.setattr(detect, "hermitian", lambda a: seen.append(a) or hermitian(a))
        monkeypatch.setattr(detect, "matvec", lambda a, b, acc: seen.append(b) or matvec(a, b, acc))
        detect.gramian(h, 0.5, None)
        assert seen[0] is h
        seen.clear()
        detect.matched_filter(h, y, None)
        assert seen[0] is h and seen[1] is y

    @pytest.mark.parametrize("reg", [-0.5, np.nan, np.inf])
    def test_rejects_negative_reg(self, reg):
        # nan or inf would give a non-finite Gramian without a word
        with pytest.raises(ValueError, match="regularization must be non-negative"):
            detect.gramian(np.ones((3, 2), dtype=complex), reg, OpCount())


class TestLinear:
    def test_noiseless_zf_recovers_symbols(self):
        h, _, x, _, _ = seeded_instance(32, 16, 10.0)
        y0 = h @ x
        for backend in Backend:
            x_soft = estimate(DetectorSpec(Kind.ZF, backend), h, y0, 0.0)
            assert np.abs(x_soft - x).max() <= 1e-9

    def test_mmse_identity_shrinkage(self):
        y = np.array([2.0 + 2j, -4.0, 1j])
        x_soft = estimate(DetectorSpec(Kind.MMSE), np.eye(3, dtype=complex), y, 1.0)
        assert np.allclose(x_soft, y / 2)

    def test_backend_equivalence(self):
        for seed in range(10):
            h, y, _, sigma2, _ = seeded_instance(32, 16, 12.0, seed=seed)
            ref = np.linalg.solve(h.conj().T @ h + sigma2 * np.eye(16), h.conj().T @ y)
            for be in Backend:
                out = estimate(DetectorSpec(Kind.MMSE, be), h, y, sigma2)
                assert np.linalg.norm(out - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_zf_scale_invariance(self):
        # pseudo-inverse homogeneity: scaling H and y together is a no-op
        h, y, _, _, _ = seeded_instance(16, 8, 8.0, seed=5)
        base = estimate(DetectorSpec(Kind.ZF, Backend.QR), h, y, 0.0)
        scaled = estimate(DetectorSpec(Kind.ZF, Backend.QR), 3.7 * h, 3.7 * y, 0.0)
        assert np.abs(base - scaled).max() <= 1e-10 * np.abs(base).max()

    def test_rejects_simo_kind(self):
        # the SIMO bound runs on the realization, not on the Gramian system
        with pytest.raises(ValueError):
            estimate(DetectorSpec(Kind.SIMO), np.eye(2, dtype=complex),
                     np.ones(2, dtype=complex), 0.1)


class TestNsa:
    def test_diagonal_gramian_exact_any_t(self):
        g = np.diag([2.0, 4.0, 5.0]).astype(complex)
        b = np.array([2.0, 8.0, 15.0], dtype=complex)
        for t in (1, 2, 7):
            x, diverged = detect.nsa_solve(g, b, t, OpCount())
            assert np.allclose(x, [1.0, 2.0, 3.0])
            assert not diverged

    def test_t1_is_diagonal_approximation(self):
        h, y, _, sigma2, _ = seeded_instance(64, 16, 10.0, seed=1)
        acc = OpCount()
        g = detect.gramian(h, sigma2, acc)
        x_mf = detect.matched_filter(h, y, acc)
        x, _ = detect.nsa_solve(g, x_mf, 1, OpCount())
        assert np.allclose(x, x_mf / np.diag(g).real)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matches_series_oracle(self, t):
        # explicit matrix powers of (-X^-1 E) summed term by term
        h, y, _, sigma2, _ = seeded_instance(256, 16, 10.0, seed=2)
        g = detect.gramian(h, sigma2, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        x_inv = np.diag(1.0 / np.diag(g).real)
        e = g - np.diag(np.diag(g))
        m = -x_inv @ e
        series = np.zeros_like(g)
        power = np.eye(g.shape[0], dtype=complex)
        for _ in range(t):
            series = series + power @ x_inv
            power = power @ m
        oracle = series @ x_mf
        got, _ = detect.nsa_solve(g, x_mf, t, OpCount())
        assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_series_residual_decreases_in_t(self):
        h, y, _, sigma2, _ = seeded_instance(256, 16, 10.0, seed=2)
        g = detect.gramian(h, sigma2, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        exact = np.linalg.solve(g, x_mf)
        errs = [
            np.linalg.norm(detect.nsa_solve(g, x_mf, t, OpCount())[0] - exact)
            for t in (1, 2, 3)
        ]
        assert errs[2] < errs[1] < errs[0]

    def test_divergence_flag(self):
        g = np.array([[1.0, 1.2], [1.2, 1.0]], dtype=complex)  # rho(X^-1 E) > 1
        x, diverged = detect.nsa_solve(g, np.array([1.0, 1.0], dtype=complex), 4, OpCount())
        assert diverged
        assert np.all(np.isfinite(x))  # estimate still returned


    @pytest.mark.parametrize("counted", [True, False], ids=["counted", "values"])
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_flag_per_system_compares_the_last_two_terms(self, t, counted):
        # one stack of a diverging system (rho(X^-1 E) = 1.2) and a
        # converging one; each flag is norm(term t-1) > norm(term t-2) of a
        # reference loop, and every flag is False at t = 1
        g = np.array([[[1.0, 1.2], [1.2, 1.0]], [[2.0, 0.5j], [-0.5j, 3.0]]])
        b = np.array([[1.0, 1.0], [1.0, -2.0j]])
        _, diverged = detect.nsa_solve(g, b, t, OpCount() if counted else None)
        want = []
        for gk, bk in zip(g, b):
            d = np.diag(gk).real
            terms = [bk / d]
            for _ in range(1, t):
                terms.append(-((gk - np.diag(np.diag(gk))) @ terms[-1]) / d)
            want.append(t > 1 and bool(np.linalg.norm(terms[-1]) > np.linalg.norm(terms[-2])))
        assert diverged.tolist() == want == ([True, False] if t > 1 else [False, False])


class TestGs:
    def test_diagonal_converges_in_one_sweep(self):
        g = np.diag([2.0, 5.0]).astype(complex)
        b = np.array([4.0, 10.0], dtype=complex)
        x = detect.gs_solve(g, b, 1, OpCount())
        assert np.allclose(x, [2.0, 2.0])

    def test_matches_matrix_form_oracle(self):
        # x_t = inv(D+L) (x_mf - R x_{t-1}) with explicit triangular parts
        h, y, _, sigma2, _ = seeded_instance(64, 16, 12.0, seed=3)
        g = detect.gramian(h, sigma2, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        dl_inv = np.linalg.inv(np.tril(g))
        r_part = np.triu(g, 1)
        x_ref = np.zeros(16, dtype=complex)
        for _ in range(3):
            x_ref = dl_inv @ (x_mf - r_part @ x_ref)
        got = detect.gs_solve(g, x_mf, 3, OpCount())
        assert np.linalg.norm(got - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_converges_to_exact_solution(self):
        h, y, _, sigma2, _ = seeded_instance(64, 16, 12.0, seed=4)
        g = detect.gramian(h, sigma2, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        exact = np.linalg.solve(g, x_mf)
        got = detect.gs_solve(g, x_mf, 100, OpCount())
        assert np.linalg.norm(got - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_per_sweep_error_strictly_decreases(self):
        h, y, _, sigma2, _ = seeded_instance(256, 16, 10.0, seed=5)
        g = detect.gramian(h, sigma2, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        exact = np.linalg.solve(g, x_mf)
        errs = [
            np.linalg.norm(detect.gs_solve(g, x_mf, t, OpCount()) - exact)
            for t in (1, 2, 3)
        ]
        assert errs[2] < errs[1] < errs[0]


class TestCg:
    def test_identity_converges_immediately(self):
        b = np.array([1 + 2j, 3.0, -1j])
        x = detect.cg_solve(np.eye(3, dtype=complex), b, 1, OpCount())
        assert np.allclose(x, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_termination(self, seed):
        h, y, _, sigma2, _ = seeded_instance(32, 16, 12.0, seed=seed)
        g = detect.gramian(h, sigma2, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        exact = np.linalg.solve(g, x_mf)
        got = detect.cg_solve(g, x_mf, 16, OpCount())
        assert np.linalg.norm(got - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_residual_monotone(self):
        h, y, _, sigma2, _ = seeded_instance(64, 16, 12.0, seed=6)
        g = detect.gramian(h, sigma2, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        resids = []
        for t in range(1, 8):
            x = detect.cg_solve(g, x_mf, t, OpCount())
            resids.append(np.linalg.norm(x_mf - g @ x))
        assert all(b < a for a, b in zip(resids, resids[1:]))

    def test_breakdown_on_indefinite(self):
        g = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(detect.CgBreakdownError):
            detect.cg_solve(g, np.array([0.0, 1.0], dtype=complex), 2, OpCount())


def spy(monkeypatch, name: str) -> list:
    """Record every value ``detect.<name>`` returns, in call order."""
    fn, seen = getattr(detect, name), []

    def recording(*args):
        seen.append(fn(*args))
        return seen[-1]

    monkeypatch.setattr(detect, name, recording)
    return seen


class TestAdmin:
    def test_t1_equals_mmse_with_beta_bitwise(self):
        h, y, _, sigma2, _ = seeded_instance(32, 16, 12.0, seed=7)
        admin = estimate(DetectorSpec(Kind.ADMIN, iterations=1, beta=sigma2), h, y, sigma2,
                         box=1.08)
        mmse = estimate(DetectorSpec(Kind.MMSE, Backend.LDL), h, y, sigma2)
        assert np.array_equal(admin, mmse)

    def test_unconstrained_fixed_point(self):
        # with the box inactive the ADMM fixed point is the plain
        # least-squares solution of H x = y (the beta term cancels)
        h, y, _, _, _ = seeded_instance(16, 4, 10.0, seed=8)
        beta = 0.8
        zf = estimate(DetectorSpec(Kind.ZF, Backend.CHOLESKY), h, y, 0.0)
        x = estimate(DetectorSpec(Kind.ADMIN, iterations=400, beta=beta), h, y, 0.0, box=1e9)
        assert np.linalg.norm(x - zf) <= 1e-9 * np.linalg.norm(zf)

    def test_feasibility_and_residual_trend(self, monkeypatch):
        h, y, _, sigma2, const = seeded_instance(32, 32, 14.0, order=4, seed=9)
        acc = OpCount()
        g = detect.gramian(h, 2 * sigma2, acc)
        x_mf = detect.matched_filter(h, y, acc)
        # each counted x-update ends in one backward substitution
        xs, zs = spy(monkeypatch, "backward_sub"), spy(monkeypatch, "_clip_box")
        detect.admin_solve(g, x_mf, 5, 2 * sigma2, const.box_radius, acc)
        assert len(xs) == len(zs) == 5
        gaps = []
        for x, z in zip(xs, zs):
            assert np.abs(z.real).max() <= const.box_radius + 1e-12
            assert np.abs(z.imag).max() <= const.box_radius + 1e-12
            gaps.append(np.linalg.norm(x - z))
        assert gaps[-1] < gaps[1]  # primal residual shrinking over iterations

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            detect.admin_solve(np.eye(2, dtype=complex), np.ones(2, dtype=complex),
                               2, 0.0, 1.0, OpCount())


def point_stack(t, n, u, points):
    """A (T, U, U) G0 stack, ``points`` (P, T, U) right-hand sides and a
    (P, 1, 1) sigma2, all drawn from one seed."""
    rng = phy.substream(1, 0)
    g0 = detect.gramian(np.stack([phy.complex_gaussian((n, u), rng) for _ in range(t)]), 0.0, None)
    x_mf = np.stack([g0 @ phy.complex_gaussian((u,), rng) for _ in range(points)])
    sigma2 = np.geomspace(0.5, 0.05, points).reshape(points, 1, 1)
    return g0, x_mf, sigma2


def traced_peak(spec, g0, x_mf, sigma2, box):
    """tracemalloc's peak over one values-only ``soft_estimate`` call."""
    detect.soft_estimate(spec, g0, x_mf, sigma2, box, None)  # one-time allocations
    tracemalloc.start()
    try:
        detect.soft_estimate(spec, g0, x_mf, sigma2, box, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """``soft_estimate`` solves every point on the one G0 stack it is given:
    no point takes a copy of G0, so its peak does not grow with the points."""

    BOX = phy.make_constellation(64).box_radius

    @pytest.mark.parametrize("t,n,u", [(4, 32, 32), (60, 256, 16)])
    def test_admin_values_only_peak_is_bounded(self, t, n, u):
        # four points of ADMIN's values path stay within sixteen copies of
        # the Gramian stack
        g0, x_mf, sigma2 = point_stack(t, n, u, 4)
        peak = traced_peak(DetectorSpec(Kind.ADMIN, beta_scale=8.0), g0, x_mf, sigma2, self.BOX)
        assert peak < 16 * g0.nbytes

    def test_peak_does_not_grow_with_the_points(self):
        # from four points to twelve at (T, N, U) = (4, 32, 32), the peak
        # grows by less than 1 MiB, sixteen copies of this G0 stack
        g0, x_mf, sigma2 = point_stack(4, 32, 32, 12)
        grown = {}
        for spec in (DetectorSpec(Kind.MMSE, Backend.QR), DetectorSpec(Kind.CG),
                     DetectorSpec(Kind.ADMIN, beta_scale=8.0)):
            four = traced_peak(spec, g0, x_mf[:4], sigma2[:4], self.BOX)
            grown[spec.name] = traced_peak(spec, g0, x_mf, sigma2, self.BOX) - four
        assert all(g < 1 << 20 for g in grown.values()), grown


@pytest.mark.parametrize("spec", [
    *(DetectorSpec(Kind.MMSE, backend) for backend in Backend),
    DetectorSpec(Kind.ADMIN, beta_scale=8.0),
], ids=["mmse-qr", "mmse-chol", "mmse-ldl", "admin"])
def test_values_only_failure_rule_solves_one_rhs_per_trial(monkeypatch, spec):
    # the values-only failure rule factors and solves one right-hand side
    # per system of the (T, U, U) G0 stack that the screen cannot clear,
    # not one per (point, trial), and runs no backend when it clears every
    # system. Systems 1 and 3 get lam_min(G0) = 5e-12 max|G0|, below
    # theta(8) ~ 7.5e-12 but above every pivot tolerance (at most
    # 1e-12 sqrt(8) max|G0|), and the shifts are far below both
    g0, x_mf, sigma2 = point_stack(4, 16, 8, 3)
    near = g0.copy()
    lam, v = np.linalg.eigh(near[[1, 3]])
    lam[:, 0] = 5e-12 * np.abs(near[[1, 3]]).max(axis=(-2, -1))
    near[[1, 3]] = (v * lam[:, None, :]) @ v.conj().swapaxes(-1, -2)
    calls = []

    def recording(name):
        backend = getattr(detect, name)

        def recorded(*args):
            calls.append((name, args[-2].shape if name == "backward_sub" else args[0].shape))
            return backend(*args)
        return recorded

    for name in ("gram_schmidt_qr", "cholesky", "ldl", "backward_sub"):
        monkeypatch.setattr(detect, name, recording(name))
    detect.soft_estimate(spec, g0, x_mf, sigma2, 1.0, None)
    assert calls == []
    detect.soft_estimate(spec, near, x_mf, 1e-10 * sigma2, 1.0, None)
    factor = {Backend.QR: "gram_schmidt_qr", Backend.CHOLESKY: "cholesky"}.get(spec.backend, "ldl")
    assert calls == [(factor, (2, 8, 8)), ("backward_sub", (2, 8))]


@pytest.mark.parametrize("solve", [
    lambda g, b, t, acc: detect.nsa_solve(g, b, t, acc),
    lambda g, b, t, acc: detect.gs_solve(g, b, t, acc),
    lambda g, b, t, acc: detect.cg_solve(g, b, t, acc),
    lambda g, b, t, acc: detect.admin_solve(g, b, t, 1.0, 1.0, acc),
], ids=["nsa", "gs", "cg", "admin"])
@pytest.mark.parametrize("t", [0, -1, 2.0, True, "2"])
@pytest.mark.parametrize("counted", [True, False], ids=["counted", "values-only"])
def test_iterative_solvers_need_one_iteration(solve, t, counted):
    # an integer >= 1: a float would reach range(), and True would run one sweep
    with pytest.raises(ValueError, match="t must be >= 1"):
        solve(np.eye(3, dtype=complex), np.ones(3, dtype=complex), t, OpCount() if counted else None)


def simo_record(n, u, order, snr_db, trials, seed):
    """The SIMO bound's record from a SIMO-only sweep (sigma2 = U / snr_lin)."""
    cfg = mc.SweepConfig(n=n, u=u, order=order, snr_db=(snr_db,),
                         detectors=(DetectorSpec(Kind.SIMO),), trials=trials,
                         master_seed=seed, stop_at_errors=None)
    return mc.run_sweep(cfg)[0]


def per_user_simo_errors(h, x, noise, bits, const):
    """Reference: one matched filter and one slice per user, with np.vdot."""
    b = const.bits_per_symbol
    errors = 0
    for k in range(x.shape[0]):
        hk = h[:, k]
        z = np.vdot(hk, hk * x[k] + noise) / np.vdot(hk, hk).real
        bhat = phy.hard_slice(np.array([z]), const)
        errors += int(np.count_nonzero(bhat != bits[k * b : (k + 1) * b]))
    return errors


class TestSimoBound:
    def test_high_snr_error_free(self):
        assert simo_record(32, 4, 4, 40.0, 2000, seed=1).bit_errors == 0

    def test_matches_rayleigh_closed_form(self):
        # MRC with N=1: per-bit SNR is exponential with mean snr_lin / 2,
        # giving BER = (1 - sqrt(g/(1+g))) / 2 at g = snr_lin / 2. At U=1
        # the sweep's sigma2 = U / snr_lin is 1 / snr_lin.
        snr_db, trials = 10.0, 20_000
        g = 10.0 ** (snr_db / 10.0) / 2.0
        closed = 0.5 * (1.0 - np.sqrt(g / (1.0 + g)))
        rec = simo_record(1, 1, 4, snr_db, trials, seed=2)
        se = np.sqrt(closed * (1 - closed) / rec.bits_total)
        assert rec.bits_total == trials * 2
        assert abs(rec.ber - closed) <= 4 * se

    def test_diversity_ordering(self):
        ber32 = simo_record(32, 1, 4, 2.0, 20_000, seed=3).ber
        ber8 = simo_record(8, 1, 4, 2.0, 20_000, seed=3).ber
        assert ber32 < ber8

    def test_matches_per_user_reference(self):
        # fig5 shape: 32x32, 64-QAM, its SNR grid
        cfg = mc.SweepConfig(n=32, u=32, order=64, snr_db=(15.0,),
                             detectors=(DetectorSpec(Kind.SIMO),), master_seed=1)
        const = phy.make_constellation(64)
        total = 0
        for snr_db in np.arange(15.0, 40.01, 2.5):
            sigma2 = phy.sigma2_from_snr(snr_db, cfg.u)
            for trial in range(20):
                bits, x, h, noise = mc.trial_realization(cfg, sigma2, trial)
                want = per_user_simo_errors(h, x, noise, bits, const)
                assert trial_errors(cfg, snr_db, cfg.detectors[0], trial) == want
                total += want
        assert total > 0


class TestDetectorSpec:
    def test_params_strings(self):
        assert DetectorSpec(Kind.MMSE, Backend.QR).params == "backend=qr"
        assert DetectorSpec(Kind.GS, iterations=3).params == "t=3"
        assert DetectorSpec(Kind.ADMIN, iterations=5).params == "t=5,beta=sigma2"
        assert "beta=0.5" in DetectorSpec(Kind.ADMIN, iterations=5, beta=0.5).params

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(Kind.GS, iterations=0)
        with pytest.raises(ValueError):
            DetectorSpec(Kind.ADMIN, beta=-1.0)

    @pytest.mark.parametrize("iterations", [True, 2.5, 2.0])
    def test_iterations_must_be_an_integer(self, iterations):
        # True would run one sweep and write t=True into the CSV; 2.5 would
        # build and fail inside the solver's range()
        with pytest.raises(ValueError, match="iterations must be an integer"):
            DetectorSpec(Kind.GS, iterations=iterations)

    def test_per_kind_defaults(self):
        # a kind's unset fields take its defaults; a field it does not read stays None
        assert DetectorSpec(Kind.MMSE).backend is Backend.QR
        assert DetectorSpec(Kind.ZF).backend is Backend.QR
        iterations = {k: DetectorSpec(k).iterations for k in Kind}
        assert iterations == {Kind.ZF: None, Kind.MMSE: None, Kind.NSA: 3, Kind.GS: 3,
                              Kind.CG: 3, Kind.ADMIN: 5, Kind.SIMO: None}
        assert DetectorSpec(Kind.GS, iterations=7).iterations == 7
        assert all(DetectorSpec(k).backend is None for k in Kind if k not in (Kind.ZF, Kind.MMSE))
        admin = DetectorSpec(Kind.ADMIN)
        assert (admin.beta, admin.beta_scale) == (None, 1.0)
        assert DetectorSpec(Kind.ADMIN, beta=0.5).beta_scale is None

    def test_admin_beta_resolution(self):
        spec = DetectorSpec(Kind.ADMIN, iterations=5, beta_scale=8.0)
        assert spec.admin_beta(0.25) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            spec.admin_beta(0.0)

    @pytest.mark.parametrize("fields", [
        dict(kind="mmse"), dict(kind=Kind.MMSE, backend="chol"), dict(kind=None),
        dict(kind=Kind.ADMIN, beta=True), dict(kind=Kind.ADMIN, beta="1"),
        dict(kind=Kind.ADMIN, beta_scale=np.True_), dict(kind=Kind.ADMIN, beta_scale=np.array(8.0)),
        dict(kind=Kind.GS, iterations=np.True_),
        # a setting the kind does not read, or ADMIN's beta beside beta_scale
        dict(kind=Kind.MMSE, iterations=7), dict(kind=Kind.NSA, backend=Backend.LDL),
        dict(kind=Kind.SIMO, iterations=4), dict(kind=Kind.ADMIN, beta=1.0, beta_scale=8.0),
        dict(kind=Kind.ZF, beta_scale=2.0), dict(kind=Kind.GS, beta=2.0),
    ])
    def test_a_spec_that_builds_can_run(self, fields):
        # a kind or backend given as text would build and stop a sweep with
        # ValueError, beta=True would run as 1 and beta="1" raise TypeError;
        # a setting the kind does not read would be dropped without a word
        with pytest.raises(ConfigError) as err:
            DetectorSpec(**fields)
        assert err.value.field == "det"

    def test_admin_beta_refusal_names_det(self):
        with pytest.raises(ConfigError) as err:
            DetectorSpec(Kind.ADMIN, beta_scale=8.0).admin_beta(0.0)
        assert err.value.field == "det" and mc.ConfigError is ConfigError

    @pytest.mark.parametrize("beta_scale", [8, np.float32(8), np.int64(8)])
    def test_admin_settings_are_stored_as_floats(self, beta_scale):
        # the same detector gets the same params, whoever builds it
        spec = DetectorSpec(Kind.ADMIN, beta_scale=beta_scale)
        assert type(spec.beta_scale) is float
        assert spec.params == cli.parse_detector("admin:bscale=8").params == "t=5,beta=8.0*sigma2"
        fixed = DetectorSpec(Kind.ADMIN, beta=beta_scale / 16)
        assert type(fixed.beta) is float and fixed.params == "t=5,beta=0.5"
