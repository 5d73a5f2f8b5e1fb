"""Sweep engine: common randomness, determinism, aggregation, gaps."""

import collections
import dataclasses
import functools
import hashlib
import os
import signal

import numpy as np
import pytest

from mimodet import cli, detect, montecarlo as mc, phy
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


class TestChunkFailures:
    def test_bad_trials_fail_alone(self, monkeypatch):
        # trial 2 has a rank-deficient H (ZF at N = U cannot invert it),
        # trial 5 a NaN in y; both sit in the one chunk of the sweep
        specs = tuple(DetectorSpec(Kind.ZF, be) for be in Backend) + (
            DetectorSpec(Kind.MMSE, Backend.QR), DetectorSpec(Kind.NSA),
            DetectorSpec(Kind.GS), DetectorSpec(Kind.CG), DetectorSpec(Kind.ADMIN),
            DetectorSpec(Kind.SIMO),
        )
        cfg = small_config(n=4, u=4, snr_db=(10.0,), trials=8, detectors=specs)
        clean = [[mc.run_trial(cfg, 10.0, spec, t) for t in range(cfg.trials)]
                 for spec in specs]
        draw = mc.trial_realization

        def corrupted(config, sigma2, trial):
            bits, x, h, noise = draw(config, sigma2, trial)
            if trial == 2:
                h[:, 1] = h[:, 0]
            if trial == 5:
                noise[0] = np.nan
            return bits, x, h, noise

        monkeypatch.setattr(mc, "trial_realization", corrupted)
        with np.errstate(all="raise"):
            records = mc.run_sweep(cfg)
        bits_per_trial = cfg.u * 2
        for spec, errs, rec in zip(specs, clean, records):
            # trial 2 alone, on its own: a failure for ZF, scored for the rest
            trial2 = mc.run_trial(cfg, 10.0, spec, 2)
            zf = spec.kind is Kind.ZF
            assert (trial2 == bits_per_trial) if zf else (trial2 < bits_per_trial)
            others = sum(e for t, e in enumerate(errs) if t not in (2, 5))
            assert rec.failures == (2 if zf else 1), spec
            assert rec.bit_errors == others + trial2 + bits_per_trial, spec
            assert rec.trials_run == cfg.trials


class TestStoppedDetectors:
    def test_no_solve_after_stop(self, monkeypatch):
        # fig5 shape: MMSE and ADMIN stop in the first chunk, the SIMO
        # bound runs on; its chunks form neither Gramian nor solve
        cfg = SweepConfig(n=32, u=32, order=64, snr_db=(15.0,), trials=40,
                          detectors=(DetectorSpec(Kind.MMSE, Backend.QR),
                                     DetectorSpec(Kind.ADMIN, beta_scale=8.0),
                                     DetectorSpec(Kind.SIMO)),
                          master_seed=1, stop_at_errors=50, chunk_size=4)
        evaluate = mc._eval_trials
        with monkeypatch.context() as m:
            m.setattr(mc, "_eval_trials",
                      lambda config, snr_points, lo, hi, active: evaluate(
                          config, snr_points, lo, hi,
                          tuple(tuple(range(len(config.detectors))) for _ in snr_points)))
            unskipped = mc.run_sweep(cfg)

        calls = {"solve": [], "gramian": 0}
        solve, gramian = detect.soft_estimate, detect.gramian

        def spy_solve(spec, g0, *args, **kwargs):
            calls["solve"].append((spec.kind, g0.shape[0]))
            return solve(spec, g0, *args, **kwargs)

        def spy_gramian(*args, **kwargs):
            calls["gramian"] += 1
            return gramian(*args, **kwargs)

        monkeypatch.setattr(detect, "soft_estimate", spy_solve)
        monkeypatch.setattr(detect, "gramian", spy_gramian)
        records = mc.run_sweep(cfg)
        assert records == unskipped
        mmse, admin, simo = records
        assert simo.trials_run > max(mmse.trials_run, admin.trials_run)
        # one stacked solve per chunk, and none once a detector has stopped
        assert all(size == 4 for _, size in calls["solve"])
        solved = {kind: 4 * [k for k, _ in calls["solve"]].count(kind)
                  for kind in (Kind.MMSE, Kind.ADMIN)}
        assert solved == {Kind.MMSE: mmse.trials_run, Kind.ADMIN: admin.trials_run}
        assert calls["gramian"] == max(mmse.trials_run, admin.trials_run)


def staggered_config(**overrides):
    # the three points stop in different chunks: after 10, 30 and 50 of 60 trials
    return small_config(n=8, snr_db=(-3.0, 3.0, 6.0), trials=60, stop_at_errors=10,
                        chunk_size=10, **overrides)


def point_major_reference(cfg):
    """(detector, snr, trials_run, bit_errors) rows from ``run_trial``, point by point.

    The documented freeze rule: a detector's tally freezes at the end of
    the chunk in which it reached ``stop_at_errors``; a point ends once
    every detector has stopped.
    """
    rows = []
    for snr in cfg.snr_db:
        errors = [0] * len(cfg.detectors)
        trials_run = [cfg.trials] * len(cfg.detectors)
        stopped = [False] * len(cfg.detectors)
        for lo in range(0, cfg.trials, cfg.chunk_size):
            hi = min(lo + cfg.chunk_size, cfg.trials)
            for d, spec in enumerate(cfg.detectors):
                if stopped[d]:
                    continue
                errors[d] += sum(mc.run_trial(cfg, snr, spec, t) for t in range(lo, hi))
                if errors[d] >= cfg.stop_at_errors:
                    stopped[d], trials_run[d] = True, hi
            if all(stopped):
                break
        rows += [(spec.name, snr, trials_run[d], errors[d])
                 for d, spec in enumerate(cfg.detectors)]
    return rows


class TestChunkMajor:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_point_major_reference(self, workers):
        cfg = staggered_config(workers=workers)
        records = mc.run_sweep(cfg)
        assert len({r.trials_run for r in records if r.detector == "mmse"}) == 3
        assert [(r.detector, r.snr_db, r.trials_run, r.bit_errors) for r in records] == (
            point_major_reference(cfg))
        assert all(r.bits_total == r.trials_run * cfg.u * 2 and r.failures == 0
                   for r in records)

    def test_each_trial_drawn_once(self, monkeypatch):
        draw, drawn = mc.trial_realization, []

        def spy(config, sigma2, trial):
            drawn.append((sigma2, trial))
            return draw(config, sigma2, trial)

        monkeypatch.setattr(mc, "trial_realization", spy)
        lines = []
        records = mc.run_sweep(staggered_config(), progress=lines.append)
        assert all(sigma2 == 1.0 for sigma2, _ in drawn)
        assert max(collections.Counter(t for _, t in drawn).values()) == 1
        assert len(drawn) == max(r.trials_run for r in records) == 50
        # one progress line per point, in the order the points ended
        assert [line.split(" dB")[0] for line in lines] == ["snr -3", "snr 3", "snr 6"]


@pytest.fixture
def worker_dies_at_20(monkeypatch):
    """Make the pool worker that evaluates trials [20, 30) exit at once.

    The wrapper keeps ``_eval_trials``'s name, so it pickles by reference
    to the patched module attribute, and the forked workers inherit the
    patch. A sweep that hangs instead of raising fails after 60 s.
    """
    evaluate = mc._eval_trials

    @functools.wraps(evaluate)
    def dying(config, snr_points, lo, hi, active):
        if lo == 20:
            os._exit(1)
        return evaluate(config, snr_points, lo, hi, active)

    def hung(signum, frame):
        raise TimeoutError("the sweep hung after its worker died")

    monkeypatch.setattr(mc, "_eval_trials", dying)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("worker_dies_at_20")
class TestWorkerDied:
    def test_sweep_names_the_chunk(self):
        with pytest.raises(mc.WorkerDied) as err:
            mc.run_sweep(small_config(trials=60, chunk_size=10, workers=2))
        assert "trials [20, 30) at SNR 0, 6, 12 dB" in str(err.value)
        assert ((0.0, 6.0, 12.0), 20, 30) in err.value.chunks

    def test_cli_exits_3(self, monkeypatch, tmp_path, capsys):
        build = cli.build_sweep
        monkeypatch.setattr(cli, "build_sweep",
                            lambda settings: dataclasses.replace(build(settings), chunk_size=10))
        argv = ["ber", "--n", "8", "--u", "2", "--mod", "qpsk", "--snr", "0,6",
                "--det", "mmse", "--trials", "60", "--seed", "1", "--stop-at", "0",
                "--threads", "2", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 3
        assert "trials [20, 30)" in capsys.readouterr().err


class TestBlasPinning:
    def test_pools_pinned_before_numpy(self):
        # tests/conftest.py pins the pools before anything imports numpy
        import conftest

        assert not conftest.NUMPY_LOADED_FIRST
        for var in conftest.BLAS_VARS:
            assert os.environ.get(var, "").isdigit() and int(os.environ[var]) >= 1, var


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
