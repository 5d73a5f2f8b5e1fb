"""Sweep engine: common randomness, determinism, aggregation, gaps."""

import hashlib

import numpy as np
import pytest

from mimodet import detect, montecarlo as mc, phy
from mimodet.detect import Backend, DetectorSpec, Kind
from mimodet.montecarlo import BerRecord, ConfigError, SweepConfig


def small_config(**overrides):
    base = dict(
        n=16,
        u=4,
        order=4,
        snr_db=(0.0, 6.0, 12.0),
        detectors=(
            DetectorSpec(Kind.MMSE, Backend.CHOLESKY),
            DetectorSpec(Kind.GS, iterations=3),
        ),
        trials=200,
        master_seed=9,
        stop_at_errors=None,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConfigValidation:
    def test_u_exceeds_n(self):
        with pytest.raises(ConfigError) as err:
            small_config(n=2, u=4).validate()
        assert err.value.field == "u"

    def test_snr_must_increase(self):
        with pytest.raises(ConfigError) as err:
            small_config(snr_db=(3.0, 3.0)).validate()
        assert err.value.field == "snr"

    def test_bad_order(self):
        with pytest.raises(ConfigError):
            small_config(order=8).validate()

    def test_needs_detectors(self):
        with pytest.raises(ConfigError):
            small_config(detectors=()).validate()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ConfigError) as err:
            small_config(master_seed=seed).validate()
        assert err.value.field == "seed"

    def test_seed_range_ends_are_valid(self):
        for seed in (0, 2**64 - 1):
            cfg = small_config(master_seed=seed)
            assert mc.run_trial(cfg, 6.0, DetectorSpec(Kind.SIMO), 0) >= 0


class TestRunTrial:
    def test_noiseless_mmse_is_error_free(self):
        cfg = small_config(snr_db=(500.0,))  # sigma2 ~ 4e-49
        for trial in range(20):
            errs = mc.run_trial(cfg, 500.0, DetectorSpec(Kind.MMSE, Backend.QR), trial)
            assert errs == 0

    def test_single_user_zf_equals_simo(self):
        # with one user there is no interference to suppress, so plain
        # matched-filter SIMO detection and ZF see the same decisions
        cfg = small_config(n=8, u=1, snr_db=(3.0,), trials=300)
        for trial in range(300):
            zf = mc.run_trial(cfg, 3.0, DetectorSpec(Kind.ZF, Backend.CHOLESKY), trial)
            simo = mc.run_trial(cfg, 3.0, DetectorSpec(Kind.SIMO), trial)
            assert zf == simo

    def test_common_random_numbers(self):
        # the realization hash is the same no matter which detector asks
        cfg = small_config()
        sigma2 = phy.sigma2_from_snr(6.0, cfg.u)

        def digest():
            bits, x, h, noise = mc.trial_realization(cfg, sigma2, 17)
            md = hashlib.sha256()
            for arr in (bits, x, h, noise):
                md.update(np.ascontiguousarray(arr).tobytes())
            return md.hexdigest()

        assert digest() == digest()


class TestRunSweep:
    def test_reproducible_and_worker_independent(self):
        records1 = mc.run_sweep(small_config(stop_at_errors=60))
        records2 = mc.run_sweep(small_config(stop_at_errors=60))
        records3 = mc.run_sweep(small_config(stop_at_errors=60, workers=2))
        def key(recs):
            return [(r.detector, r.snr_db, r.trials_run, r.bit_errors, r.bits_total)
                    for r in recs]
        assert key(records1) == key(records2) == key(records3)

    def test_early_stop_freezes_at_chunk_boundary(self):
        cfg = small_config(snr_db=(0.0,), trials=200, stop_at_errors=5, chunk_size=50)
        recs = mc.run_sweep(cfg)
        assert all(r.trials_run == 50 for r in recs)
        assert all(r.bits_total == 50 * cfg.u * 2 for r in recs)

    def test_mmse_ber_monotone_in_snr(self):
        cfg = small_config(n=64, u=4, order=4, snr_db=(-4.0, 0.0, 4.0, 8.0),
                           trials=400)
        recs = [r for r in mc.run_sweep(cfg) if r.detector == "mmse"]
        for a, b in zip(recs, recs[1:]):
            slack = 2 * (a.stderr + b.stderr)
            assert b.ber <= a.ber + slack

    def test_failure_accounting(self, monkeypatch):
        # a detector that cannot produce an estimate charges every bit of
        # the trial as an error and bumps the failure counter
        def explode(*args, **kwargs):
            raise detect.DetectError("forced failure")

        monkeypatch.setattr(detect, "exact_solve", explode)
        cfg = small_config(snr_db=(6.0,), trials=40,
                           detectors=(DetectorSpec(Kind.MMSE, Backend.QR),))
        rec = mc.run_sweep(cfg)[0]
        assert rec.failures == 40
        assert rec.bit_errors == rec.bits_total == 40 * cfg.u * 2
        assert rec.ber == 1.0


class TestBerRecord:
    def test_ber_and_stderr(self):
        r = BerRecord(8, 4, 4, "mmse", "backend=qr", 5.0,
                      trials_run=100, bit_errors=80, bits_total=800, failures=0)
        assert r.ber == pytest.approx(0.1)
        assert r.stderr == pytest.approx(np.sqrt(0.1 * 0.9 / 800))


class TestSummarize:
    def make_records(self, detector, pts):
        return [
            BerRecord(8, 4, 4, detector, "t=1", snr, 100, int(ber * 1e6), int(1e6), 0)
            for snr, ber in pts
        ]

    def test_identical_curves_zero_gap(self):
        pts = [(0.0, 0.1), (5.0, 0.01), (10.0, 0.001)]
        recs = self.make_records("mmse", pts) + self.make_records("gs", pts)
        rows = mc.summarize(recs, 0.01)
        assert len(rows) == 1
        assert rows[0].gap_db == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_three_db_shift(self):
        base = [(s, 10 ** (-0.25 * s - 1)) for s in np.arange(0.0, 20.0, 2.0)]
        shifted = [(s + 3.0, ber) for s, ber in base]
        recs = self.make_records("mmse", base) + self.make_records("gs", shifted)
        rows = mc.summarize(recs, 1e-2)
        assert rows[0].gap_db == pytest.approx(3.0, abs=0.1)

    def test_gap_undefined_for_floored_curve(self):
        good = [(0.0, 0.1), (5.0, 0.01), (10.0, 0.001)]
        floored = [(0.0, 0.3), (5.0, 0.22), (10.0, 0.2)]
        recs = self.make_records("mmse", good) + self.make_records("nsa", floored)
        row = mc.summarize(recs, 1e-2)[0]
        assert row.undefined
        assert row.snr_a is not None and row.snr_b is None

    def test_snr_at_ber_exact_hit(self):
        pts = [(0.0, 0.1, 1000), (10.0, 0.001, 1000)]
        assert mc.snr_at_ber(pts, 0.1) == pytest.approx(0.0)

    def test_snr_at_ber_zero_floor(self):
        # a zero-BER point interpolates with the half-error floor
        pts = [(0.0, 0.1, 10_000), (10.0, 0.0, 10_000)]
        got = mc.snr_at_ber(pts, 1e-2)
        assert got is not None and 0.0 < got < 10.0


class TestSimoInSweep:
    def test_simo_beats_mmse(self):
        cfg = small_config(
            n=16, u=4, order=4, snr_db=(4.0,), trials=400,
            detectors=(DetectorSpec(Kind.MMSE, Backend.QR), DetectorSpec(Kind.SIMO)),
        )
        recs = mc.run_sweep(cfg)
        by_name = {r.detector: r for r in recs}
        assert by_name["simo"].ber <= by_name["mmse"].ber
