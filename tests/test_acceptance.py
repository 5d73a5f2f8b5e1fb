"""Acceptance suite: one test per release criterion.

Statistical criteria run the shipped presets at desk scale (2,000
trials per SNR point, early stop at 200 bit errors, master seed 1) and
gate relative curve positions, never absolute ones. Each test prints a
single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 7 is expected red on the Gauss-Seidel clause: the measured
Gauss-Seidel error floor in the 32x16 preset is ~0.090, below the gated
1e-1. The floor is iteration-limited (three sweeps), stable across
seeds, and unaffected by Gramian regularization or initialization
choice, so the gate is not reachable by a correct Gray-labeled
bit-error simulation; see the repository notes for the analysis.
"""

import functools
import hashlib

import numpy as np
import pytest

from conftest import pin_usable_cpus
from curves import curve, snr_at_ber
from mimodet import cli, detect, montecarlo as mc, phy
from mimodet.complexity import METHODS, formula_rm, measure_rm
from mimodet.decomp import cholesky, gram_schmidt_qr, ldl
from mimodet.detect import Backend, DetectorSpec, Kind
from mimodet.kernels import OpCount, hermitian

ACCEPT_SEED = 1
TRIALS = 2000
STOP_AT = 200


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def preset_config(name: str, workers: int = 1) -> mc.SweepConfig:
    settings = dict(cli.PRESETS[name])
    settings.update(trials=TRIALS, seed=ACCEPT_SEED, stop_at=STOP_AT, threads=workers)
    return cli.build_sweep(settings)


def preset_sweep(name: str, workers: int = 1) -> list[mc.BerRecord]:
    return mc.run_sweep(preset_config(name, workers))


@pytest.fixture(scope="session")
def fig2_records():
    return preset_sweep("fig2")


@pytest.fixture(scope="session")
def fig3_records():
    return preset_sweep("fig3")


@pytest.fixture(scope="session")
def fig4_records():
    return preset_sweep("fig4")


@pytest.fixture(scope="session")
def fig5_records():
    return preset_sweep("fig5")


@pytest.fixture(scope="session")
def fig6_records():
    return preset_sweep("fig6")


def crossing(records, detector, target):
    return snr_at_ber(curve(records, detector), target)


def test_criterion_01_cholesky_exact_counts():
    expected = {8: 392, 16: 2960, 32: 22816}
    got = {u: measure_rm(Backend.CHOLESKY, u).real_mul for u in expected}
    report("criterion 1 (Cholesky op counts)", got == expected,
           f"measured {got}, expected {expected}")


def test_criterion_02_gram_schmidt_formula_all_sizes():
    bad = []
    for u in range(2, 65):
        got = measure_rm(Backend.QR, u).real_mul
        if got != u * u * (4 * u + 2):
            bad.append((u, got, u * u * (4 * u + 2)))
    report("criterion 2 (Gram-Schmidt counts U=2..64)", not bad,
           "all 63 sizes equal U^2(4U+2)" if not bad else f"mismatches: {bad[:3]}")


def test_criterion_03_decomposition_correctness():
    rng = np.random.Generator(np.random.Philox(key=[303, 0]))
    sizes = (2, 4, 8, 16, 32)
    worst = 0.0
    for u in sizes:
        for _ in range(200):
            n = u * int(rng.integers(2, 5))
            g = rng.standard_normal((2, n, u))
            h = (g[0] + 1j * g[1]) / np.sqrt(2)
            a = h.conj().T @ h + float(rng.uniform(0.1, 1.0)) * np.eye(u)
            a = (a + a.conj().T) / 2
            scale = np.linalg.norm(a)
            q, r = gram_schmidt_qr(a, OpCount())
            c = cholesky(a, OpCount())
            l, d = ldl(a, OpCount())
            worst = max(
                worst,
                np.linalg.norm(q @ r - a) / scale,
                np.abs(q.conj().T @ q - np.eye(u)).max(),
                np.linalg.norm(c @ c.conj().T - a) / scale,
                np.linalg.norm(l @ np.diag(d) @ l.conj().T - a) / scale,
            )
    report("criterion 3 (decomposition residuals, 1000 Gramians)",
           worst <= 1e-10, f"worst residual/orthogonality deviation {worst:.2e}")


def test_criterion_04_backend_equivalence():
    worst = 0.0
    for seed in range(1000):
        rng = np.random.Generator(np.random.Philox(key=[404, seed]))
        u = int(rng.choice([4, 8, 16]))
        n = u * int(rng.integers(2, 5))
        g = rng.standard_normal((2, n, u))
        h = (g[0] + 1j * g[1]) / np.sqrt(2)
        g = rng.standard_normal((2, n))
        y = (g[0] + 1j * g[1]) / np.sqrt(2)
        sigma2 = float(rng.uniform(0.05, 1.0))
        g0 = detect.gramian(h, 0.0, OpCount())
        x_mf = detect.matched_filter(h, y, OpCount())
        ref = np.linalg.solve(g0 + sigma2 * np.eye(u), x_mf)  # LAPACK, not this package
        for be in Backend:
            out = detect.soft_estimate(DetectorSpec(Kind.MMSE, be), g0, x_mf, sigma2, 1.0,
                                       OpCount())
            worst = max(worst, np.linalg.norm(out - ref) / np.linalg.norm(ref))
    report("criterion 4 (backend equivalence, 1000 instances)",
           worst <= 1e-8, f"worst relative difference to LAPACK {worst:.2e}")


@functools.cache
def last_point_systems(name: str):
    """G0, H^H y, sigma2 and the LAPACK MMSE solutions of a preset's
    first 500 trials at its last (highest) SNR point, seed 1."""
    config = cli.build_sweep({**cli.PRESETS[name], "seed": ACCEPT_SEED})
    sigma2 = phy.sigma2_from_snr(config.snr_db[-1], config.u)
    draws = [mc.trial_realization(config, sigma2, k) for k in range(500)]
    _, x, h, noise = (np.stack(v) for v in zip(*draws))
    g0 = detect.gramian(h, 0.0, None)
    x_mf = detect.matched_filter(h, np.einsum("...nu,...u->...n", h, x) + noise, None)
    ref = np.linalg.solve(g0 + sigma2 * np.eye(config.u), x_mf[..., None])[..., 0]
    return g0, x_mf, sigma2, ref


# the one case known to miss the bound: counted Gram-Schmidt loses
# orthogonality as cond(G) grows, and fig5's 40 dB point is the least
# regularized system any preset solves
QR_AT_FIG5 = pytest.mark.xfail(strict=True, reason=(
    "counted Gram-Schmidt QR at fig5 40 dB (cond(G) up to 3.9e4) reaches 1.6e-8"))


@pytest.mark.parametrize("name,backend,counted", [
    pytest.param(name, backend, counted,
                 id=f"{name}-{backend.value}-{'counted' if counted else 'values'}",
                 marks=QR_AT_FIG5 if (name, backend, counted) == ("fig5", Backend.QR, True) else ())
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6") for backend in Backend
    for counted in (True, False)
])
def test_backend_equivalence_on_preset_hardest_draws(name, backend, counted):
    # criterion 4's bound where the presets run: each MMSE system of a
    # preset's last SNR point against LAPACK
    g0, x_mf, sigma2, ref = last_point_systems(name)
    out = detect.soft_estimate(DetectorSpec(Kind.MMSE, backend), g0, x_mf, sigma2, 1.0,
                               OpCount() if counted else None)
    worst = (np.linalg.norm(out - ref, axis=-1) / np.linalg.norm(ref, axis=-1)).max()
    assert worst <= 1e-8, f"worst relative difference to LAPACK {worst:.2e}"


def test_criterion_05_iterative_solver_oracles():
    ok, details = True, []

    # conjugate gradient: finite termination at t = U
    for seed in (0, 1, 2):
        u = 16
        a = detect.gramian(phy.complex_gaussian((2 * u, u), phy.substream(seed, u)), 0.3, None)
        rng = np.random.Generator(np.random.Philox(key=[505, seed]))
        b = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        exact = np.linalg.solve(a, b)
        err = np.linalg.norm(detect.cg_solve(a, b, u, OpCount()) - exact)
        err /= np.linalg.norm(exact)
        ok &= err <= 1e-8
    details.append(f"CG t=U err {err:.2e}")

    # Gauss-Seidel: strictly decreasing error, below 1e-6 by t=100
    a = detect.gramian(phy.complex_gaussian((4 * 16, 16), phy.substream(5, 16)), 0.2, None)
    rng = np.random.Generator(np.random.Philox(key=[505, 99]))
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    exact = np.linalg.solve(a, b)
    scale = np.linalg.norm(exact)
    errs = [
        np.linalg.norm(detect.gs_solve(a, b, t, OpCount()) - exact) / scale
        for t in range(1, 101)
    ]
    # strict decrease gated above the double-precision floor
    for prev, cur in zip(errs, errs[1:]):
        if prev > 1e-12:
            ok &= cur < prev
    ok &= errs[99] < 1e-6
    details.append(f"GS err(100) {errs[99]:.2e}")

    # Neumann series equals the explicit term-sum oracle for t <= 4
    h = phy.complex_gaussian((256, 16), phy.substream(505, 7))
    g = detect.gramian(h, 0.5, OpCount())
    rng = np.random.Generator(np.random.Philox(key=[505, 7]))
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x_inv = np.diag(1.0 / np.diag(g).real)
    m = -x_inv @ (g - np.diag(np.diag(g)))
    series = np.zeros_like(g)
    power = np.eye(16, dtype=complex)
    for t in range(1, 5):
        series = series + power @ x_inv
        power = power @ m
        oracle = series @ b
        got, _ = detect.nsa_solve(g, b, t, OpCount())
        ok &= np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)
    details.append("NSA matches series oracle for t<=4")

    report("criterion 5 (iterative-solver oracles)", ok, "; ".join(details))


def test_criterion_06_fig2_aids_track_mmse(fig2_records):
    mmse = crossing(fig2_records, "mmse", 1e-2)
    gaps = {}
    ok = mmse is not None
    for det in ("nsa", "gs", "cg"):
        snr = crossing(fig2_records, det, 1e-2)
        gaps[det] = None if snr is None or mmse is None else snr - mmse
        ok &= gaps[det] is not None and abs(gaps[det]) <= 1.0
    detail = ", ".join(
        f"{d}={g:+.2f} dB" if g is not None else f"{d}=undefined"
        for d, g in gaps.items()
    )
    report("criterion 6 (256x16: NSA/GS/CG within 1 dB of MMSE at 1e-2)", ok, detail)


def test_criterion_07_fig3_aid_error_floors(fig3_records):
    floors = {}
    for det in ("nsa", "gs", "cg"):
        pts = curve(fig3_records, det)
        floors[det] = dict((s, b) for s, b, _ in pts)[30.0]
    mmse = [b for _, b, _ in curve(fig3_records, "mmse")]
    decreasing = all(
        cur < prev or (prev == 0.0 and cur == 0.0)
        for prev, cur in zip(mmse, mmse[1:])
    )
    ok = decreasing and all(f >= 1e-1 for f in floors.values())
    detail = (
        ", ".join(f"{d} floor {f:.3f}" for d, f in floors.items())
        + f"; mmse strictly decreasing: {decreasing}"
    )
    report("criterion 7 (32x16: AID floors >= 1e-1 at 30 dB)", ok, detail)


def test_criterion_08_fig4_gs_two_db_gap(fig4_records):
    mmse = crossing(fig4_records, "mmse", 1e-2)
    gs = crossing(fig4_records, "gs", 1e-2)
    nsa = crossing(fig4_records, "nsa", 1e-2)
    cg = crossing(fig4_records, "cg", 1e-2)
    gap = None if gs is None or mmse is None else gs - mmse
    ok = gap is not None and 0.5 <= gap <= 3.5 and nsa is None and cg is None
    report(
        "criterion 8 (64x16: GS gap 2 +/- 1.5 dB, NSA/CG floored)",
        ok,
        f"gs gap {gap if gap is None else round(gap, 2)} dB, "
        f"nsa crossing {nsa}, cg crossing {cg}",
    )


def test_criterion_09_fig5_fig6_admin_gains(fig5_records, fig6_records):
    mmse35 = dict((s, b) for s, b, _ in curve(fig5_records, "mmse"))[35.0]
    m64 = crossing(fig5_records, "mmse", 3e-2)
    a64 = crossing(fig5_records, "admin", 3e-2)
    gain64 = None if m64 is None or a64 is None else m64 - a64

    mq = crossing(fig6_records, "mmse", 1e-3)
    aq = crossing(fig6_records, "admin", 1e-3)
    sq = crossing(fig6_records, "simo", 1e-3)
    gain_qpsk = None if mq is None or aq is None else mq - aq
    simo_gap = None if aq is None or sq is None else aq - sq

    ok = (
        mmse35 > 1e-2
        and gain64 is not None and gain64 >= 3.0
        and gain_qpsk is not None and gain_qpsk >= 7.0
        and simo_gap is not None and simo_gap <= 10.0
    )
    report(
        "criterion 9 (32x32: ADMIN gains)",
        ok,
        f"64qam mmse@35dB {mmse35:.3f}, admin gain {gain64 and round(gain64, 2)} dB; "
        f"qpsk admin gain {gain_qpsk and round(gain_qpsk, 2)} dB, "
        f"admin-simo {simo_gap and round(simo_gap, 2)} dB",
    )


def test_criterion_10_complexity_model():
    spot_ok = (
        formula_rm(Backend.QR, 8) == 2176
        and formula_rm(Backend.CHOLESKY, 8) == 392
        and formula_rm(Backend.LDL, 8) == 560
        and formula_rm(Kind.NSA, 8, 3) == 2 * (2 * 512 + 2 * 64 - 16)
        and formula_rm(Kind.GS, 8, 3) == 6 * 3 * 64
        and formula_rm(Kind.CG, 8, 3) == 4 * (4 * 64 + 160)
    )
    order_ok = True
    for u in (16, 32, 64):
        counts = {algo: formula_rm(algo, u, 3) for algo in METHODS}
        top_two = set(sorted(counts, key=counts.get, reverse=True)[:2])
        order_ok &= top_two == {Backend.QR, Kind.NSA}
    half_ok = formula_rm(Kind.GS, 64, 3) < formula_rm(Backend.CHOLESKY, 64) / 2
    ok = spot_ok and order_ok and half_ok
    report(
        "criterion 10 (complexity model)",
        ok,
        f"spot values {spot_ok}, QR/NSA largest {order_ok}, GS(64) < Chol(64)/2 {half_ok}",
    )


def test_criterion_11_preset_determinism(tmp_path, monkeypatch):
    pin_usable_cpus(monkeypatch, 2)  # --threads 2 starts a pool of 2 on any machine
    argv = ["ber", "--preset", "fig3", "--seed", str(ACCEPT_SEED),
            "--trials", str(TRIALS), "--stop-at", str(STOP_AT)]
    assert cli.main(argv + ["--threads", "1", "--out-dir", str(tmp_path / "t1")]) == 0
    assert cli.main(argv + ["--threads", "2", "--out-dir", str(tmp_path / "t2")]) == 0
    a = (tmp_path / "t1" / "ber_32x16_64qam.csv").read_bytes()
    b = (tmp_path / "t2" / "ber_32x16_64qam.csv").read_bytes()
    report("criterion 11 (preset determinism across thread counts)",
           a == b, f"{len(a)}-byte CSVs byte-identical: {a == b}")


# sha256 of each preset's BER CSV, as ``mimodet ber --preset figK --seed 1``
# writes it; a change that moves any byte of a preset's records fails here
PRESET_CSV_SHA256 = {
    "fig2": "fb9798939ce9beb885cbc8a8626032b705bb5b695ba7b7b9549a173a04ecdcfe",
    "fig3": "5a918ea32da7cb18090a7e4d3cfaf40790f360358961108af356dc0af3f485d3",
    "fig4": "a863dfa6667a170b6aafc5f50079e78e81407dc646f7475a2206276b3ac68299",
    "fig5": "ee516c3ac7687a16012a550720542297ce0425d0d4f5627620500eced66d1794",
    "fig6": "6264f3a239b1cddcc430048313325dd6e3b2ee91e183f82c4a7b12458d7af91a",
}


def test_preset_csvs_are_byte_identical(fig2_records, fig3_records, fig4_records, fig5_records,
                                        fig6_records):
    records = dict(zip(PRESET_CSV_SHA256, (fig2_records, fig3_records, fig4_records,
                                           fig5_records, fig6_records)))
    got = {name: hashlib.sha256(cli.ber_csv(preset_config(name), recs).encode()).hexdigest()
           for name, recs in records.items()}
    changed = sorted(name for name in got if got[name] != PRESET_CSV_SHA256[name])
    report("preset CSV digests", not changed, f"changed: {changed or 'none'}")


def test_criterion_12_mmse_never_beats_ml():
    # exhaustive maximum-likelihood oracle over all 16 QPSK pairs,
    # common random numbers with the MMSE path
    n, u, order, snr_db = 4, 2, 4, 8.0
    const = phy.make_constellation(order)
    sigma2 = phy.sigma2_from_snr(snr_db, u)
    cands = np.array(
        [[const.points[a], const.points[b]] for a in range(4) for b in range(4)]
    )
    cand_bits = np.array(
        [[(a >> 1) & 1, a & 1, (b >> 1) & 1, b & 1] for a in range(4) for b in range(4)],
        dtype=np.uint8,
    )
    cfg = mc.SweepConfig(n=n, u=u, order=order, snr_db=(snr_db,),
                         detectors=(DetectorSpec(Kind.MMSE, Backend.CHOLESKY),),
                         trials=10_000, master_seed=777, stop_at_errors=None)
    # every trial at once, values only (a count depends on shapes alone)
    bits, x, h, noise = (np.stack(v) for v in zip(
        *(mc.trial_realization(cfg, sigma2, trial) for trial in range(cfg.trials))))
    y = (h @ x[..., None])[..., 0] + noise
    g = detect.gramian(h, sigma2, None)
    x_mf = detect.matched_filter(h, y, None)
    soft = detect.exact_solve(g, x_mf, Backend.CHOLESKY, None)
    bhat = phy.hard_slice(soft, const)
    mmse_errs = int(np.count_nonzero(bhat != bits))
    dists = np.linalg.norm(y[:, :, None] - h @ cands.T, axis=1)
    ml_errs = int(np.count_nonzero(cand_bits[np.argmin(dists, axis=1)] != bits))
    bits_total = cfg.trials * u * const.bits_per_symbol
    report(
        "criterion 12 (MMSE BER >= exhaustive-ML BER)",
        mmse_errs >= ml_errs,
        f"mmse {mmse_errs / bits_total:.5f} vs ml {ml_errs / bits_total:.5f} "
        f"over {bits_total} bits",
    )
