"""Sweep engine: common randomness, determinism, aggregation, gaps."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import os
import signal
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pin_usable_cpus
from curves import curve, snr_at_ber
from mimodet import cli, decomp, detect, kernels, montecarlo as mc, phy
from mimodet.detect import Backend, DetectorSpec, Kind
from mimodet.kernels import OpCount
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


def trial_errors(config, snr_db, detector, trial_index):
    """Bit errors of one detector on one trial: ``_eval_trials`` on a
    one-point, one-detector copy of ``config`` (common-random-number draw)."""
    one = dataclasses.replace(config, snr_db=(snr_db,), detectors=(detector,))
    return int(mc._eval_trials(one, np.ones((1, 1), bool), trial_index, trial_index + 1)[0, 0, 0])


class TestConfigValidation:
    def test_u_exceeds_n(self):
        with pytest.raises(ConfigError) as err:
            small_config(n=2, u=4)
        assert err.value.field == "u"

    def test_snr_must_increase(self):
        with pytest.raises(ConfigError) as err:
            small_config(snr_db=(3.0, 3.0))
        assert err.value.field == "snr"

    def test_bad_order(self):
        with pytest.raises(ConfigError):
            small_config(order=8)

    def test_needs_detectors(self):
        with pytest.raises(ConfigError):
            small_config(detectors=())

    @pytest.mark.parametrize("overrides,field", [
        (dict(snr_db=()), "snr"),
        (dict(stop_at_errors=0), "stop_at"),
    ])
    def test_empty_grid_or_zero_stop_names_the_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            small_config(**overrides)
        assert err.value.field == field

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ConfigError) as err:
            small_config(master_seed=seed)
        assert err.value.field == "seed"

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_chunk_size_below_one(self, chunk_size):
        # a sweep checks its config before it builds a chunk: -5 would
        # build none and spin, 0 would reach range() with step 0
        with pytest.raises(ConfigError) as err:
            small_config(chunk_size=chunk_size)
        assert err.value.field == "chunk_size"

    @pytest.mark.parametrize("change,field", [
        (dict(trials=0), "trials"), (dict(chunk_size=0), "chunk_size"), (dict(workers=0), "threads"),
    ])
    def test_replace_cannot_make_an_invalid_config(self, change, field):
        # a config checks itself when it is built, so every config that
        # exists is valid and run_sweep need not check it again
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(small_config(), **change)
        assert err.value.field == field

    @pytest.mark.parametrize("overrides,field", [
        (dict(n=8.5), "n"), (dict(trials=2.5), "trials"), (dict(trials=True), "trials"),
        (dict(chunk_size=True), "chunk_size"), (dict(stop_at_errors=True), "stop_at"),
        (dict(master_seed=True), "seed"), (dict(workers="two"), "threads"),
        (dict(trials=Fraction(5, 2)), "trials"), (dict(trials=Decimal("2.5")), "trials"),
        (dict(trials=Decimal("Infinity")), "trials"),
    ])
    def test_counts_must_be_integers(self, overrides, field):
        # the rule the command line holds its counts to holds for a config
        # built by any caller: a bool would run as 1, 2.5 would fail mid-sweep,
        # and int() would truncate Fraction(5, 2) and Decimal("2.5") to 2
        with pytest.raises(ConfigError) as err:
            small_config(**overrides)
        assert err.value.field == field
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(small_config(), **overrides)
        assert err.value.field == field

    def test_integral_counts_are_stored_as_ints(self):
        cfg = small_config(workers=1.0, order=4.0, trials="40", stop_at_errors=np.int64(7),
                           chunk_size=Decimal("3"))
        counts = (cfg.workers, cfg.order, cfg.trials, cfg.stop_at_errors, cfg.chunk_size)
        assert counts == (1, 4, 40, 7, 3) and all(type(c) is int for c in counts)
        assert cfg == small_config(workers=1, order=4, trials=40, stop_at_errors=7, chunk_size=3)

    @pytest.mark.parametrize("overrides,field", [
        (dict(snr_db=(True,)), "snr"), (dict(snr_db=(np.True_, 6.0)), "snr"),
        (dict(snr_db=np.array([5.0, 6.0])), "snr"), (dict(snr_db="6"), "snr"),
        (dict(snr_db=(np.array([6.0]),)), "snr"), (dict(trials=np.True_), "trials"),
        (dict(detectors=("mmse",)), "det"), (dict(detectors=(DetectorSpec(Kind.GS), Kind.CG)), "det"),
        (dict(detectors=DetectorSpec(Kind.GS)), "det"), (dict(trials=np.float32(2.5)), "trials"),
    ])
    def test_settings_of_a_wrong_type_name_the_field(self, overrides, field):
        # True would run at 1 dB and np.True_ as one trial; a text detector, an
        # array of points or a bare spec would raise something else
        with pytest.raises(ConfigError) as err:
            small_config(**overrides)
        assert err.value.field == field

    def test_points_and_detectors_are_stored_as_tuples(self):
        simo = DetectorSpec(Kind.SIMO)
        cfg = small_config(snr_db=[0, np.float32(6.0), "12"], detectors=[simo])
        assert cfg.snr_db == (0.0, 6.0, 12.0) and all(type(s) is float for s in cfg.snr_db)
        assert cfg.detectors == (simo,)
        assert cfg == small_config(snr_db=(0.0, 6.0, 12.0), detectors=(simo,))

    @pytest.mark.parametrize("pair", [
        (DetectorSpec(Kind.MMSE), DetectorSpec(Kind.MMSE, Backend.QR)),
        # one detector, its default left out and given
        (DetectorSpec(Kind.NSA), DetectorSpec(Kind.NSA, iterations=3)),
        (DetectorSpec(Kind.ADMIN, iterations=5, beta_scale=8),
         DetectorSpec(Kind.ADMIN, iterations=5, beta_scale=8.0)),
    ])
    def test_two_detectors_with_one_row_key_are_refused(self, pair):
        # (name, params) keys a BER CSV row, so a second spec with the same
        # key would solve every chunk again and write the same rows twice
        assert pair[0].name == pair[1].name and pair[0].params == pair[1].params
        for detectors in (pair, (DetectorSpec(Kind.SIMO), *pair)):
            with pytest.raises(ConfigError) as err:
                small_config(detectors=detectors)
            assert err.value.field == "det" and pair[0].params in str(err.value)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(small_config(detectors=pair[:1]), detectors=pair)
        assert err.value.field == "det"

    def test_detectors_with_distinct_row_keys_build(self):
        specs = (DetectorSpec(Kind.MMSE, Backend.QR), DetectorSpec(Kind.MMSE, Backend.CHOLESKY),
                 DetectorSpec(Kind.ZF, Backend.QR), DetectorSpec(Kind.NSA, iterations=3),
                 DetectorSpec(Kind.NSA, iterations=4), DetectorSpec(Kind.ADMIN, beta=8.0),
                 DetectorSpec(Kind.ADMIN, beta_scale=8.0))
        assert small_config(detectors=specs).detectors == specs

    def test_seed_range_ends_are_valid(self):
        for seed in (0, 2**64 - 1):
            cfg = small_config(master_seed=seed)
            assert trial_errors(cfg, 6.0, DetectorSpec(Kind.SIMO), 0) >= 0


# a good spec and a good config, each with none or up to two of its fields set
# to a mix of good and bad values: bools, numpy bools, text, arrays and enum
# values given as text; trials is always one and workers always 1, so a config
# that builds runs in milliseconds
MIXED = st.sampled_from([True, False, np.True_, np.False_, None, "mmse", "chol", "2", "x", 2.5,
                         np.float32(2.5), np.float32(2), np.int64(2), -1.0, (), (6.0,),
                         np.array([2.0]), np.array(2.0), Kind.MMSE, Backend.LDL])


def messed(good: st.SearchStrategy, keys: list[str]) -> st.SearchStrategy:
    """``good``'s settings, half the time with one or two of ``keys`` set to a MIXED value."""
    return st.builds(lambda good, bad: {**good, **bad}, good,
                     st.just({}) | st.dictionaries(st.sampled_from(keys), MIXED, min_size=1,
                                                   max_size=2))


SPEC_SETTINGS = messed(
    st.fixed_dictionaries({"kind": st.sampled_from(Kind)}, optional={
        "backend": st.sampled_from(Backend), "iterations": st.sampled_from([1, 3, np.int64(2)]),
        "beta": st.sampled_from([0.5, np.float32(0.5), 4]),
        "beta_scale": st.sampled_from([8, np.float32(8), 2.0])}),
    ["kind", "backend", "iterations", "beta", "beta_scale"])
SWEEP_SETTINGS = messed(
    st.fixed_dictionaries({
        "n": st.sampled_from([4, "4", 4.0, np.int64(4)]), "u": st.sampled_from([2, "2", np.int64(2)]),
        "order": st.sampled_from([4, 16, "4"]), "trials": st.sampled_from([1, "1", 1.0, np.int64(1)]),
        "snr_db": st.sampled_from([(6.0,), [0.0, 6.0], ("6",), (np.float32(6.0), 9), (6,)])},
        optional={"master_seed": st.sampled_from([0, "7", np.uint64(7)]),
                  "stop_at_errors": st.sampled_from([None, 1, "1"])}),
    ["n", "u", "order", "snr_db", "master_seed", "stop_at_errors"])


class TestFuzzedFields:
    @settings(max_examples=250)
    @given(specs=st.lists(SPEC_SETTINGS, min_size=1, max_size=2), fields=SWEEP_SETTINGS,
           stray=st.none() | st.none() | MIXED,
           shape=st.sampled_from([tuple, tuple, list, lambda detectors: detectors[0]]))
    def test_a_config_that_builds_can_run(self, specs, fields, stray, shape):
        # a spec or a config either refuses a setting with a ConfigError, and
        # nothing else, or runs one trial whose records carry float SNR points
        try:
            detectors = [DetectorSpec(**s) for s in specs] + ([] if stray is None else [stray])
            cfg = SweepConfig(detectors=shape(detectors), **fields)
        except ConfigError:
            return
        records = mc.run_sweep(cfg)
        assert cfg.trials == 1 and len(records) == len(cfg.snr_db) * len(cfg.detectors)
        assert all(type(r.snr_db) is float for r in records)


class TestRunTrial:
    def test_noiseless_mmse_is_error_free(self):
        cfg = small_config(snr_db=(500.0,))  # sigma2 ~ 4e-49
        for trial in range(20):
            errs = trial_errors(cfg, 500.0, DetectorSpec(Kind.MMSE, Backend.QR), trial)
            assert errs == 0

    def test_single_user_zf_equals_simo(self):
        # with one user there is no interference to suppress, so plain
        # matched-filter SIMO detection and ZF see the same decisions
        cfg = small_config(n=8, u=1, snr_db=(3.0,), trials=300)
        for trial in range(300):
            zf = trial_errors(cfg, 3.0, DetectorSpec(Kind.ZF, Backend.CHOLESKY), trial)
            simo = trial_errors(cfg, 3.0, DetectorSpec(Kind.SIMO), trial)
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
    def test_reproducible_and_worker_independent(self, monkeypatch):
        pin_usable_cpus(monkeypatch, 2)  # a real pool of 2 on any machine
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

    def test_memory_does_not_grow_with_trials(self):
        # a sweep that stops at its first chunk holds as much memory when
        # asked for 10^7 trials as for 10^4: its chunks are not listed up front
        def peak(trials):
            tracemalloc.start()
            try:
                records = mc.run_sweep(small_config(snr_db=(0.0,), trials=trials, stop_at_errors=1))
                return tracemalloc.get_traced_memory()[1], {r.trials_run for r in records}
            finally:
                tracemalloc.stop()

        peak(100)  # the one-time allocations (constellation cache, first Philox stream)
        (small, small_run), (big, big_run) = peak(10**4), peak(10**7)
        assert small_run == big_run == {100}
        assert big < 2 * small

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

    def test_very_high_snr_mmse_equals_zf(self):
        # at 300 dB sigma2 = 8e-30 vanishes against G's diagonal: no trial
        # fails, and every MMSE backend scores exactly what ZF scores
        specs = tuple(DetectorSpec(Kind.MMSE, be) for be in Backend) + (
            DetectorSpec(Kind.ZF, Backend.LDL),)
        cfg = small_config(n=8, u=8, snr_db=(300.0,), trials=20, master_seed=1,
                           detectors=specs)
        records = mc.run_sweep(cfg)
        assert [r.failures for r in records] == [0] * 4
        assert [r.bit_errors for r in records[:3]] == [records[3].bit_errors] * 3


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
        clean = [[trial_errors(cfg, 10.0, spec, t) for t in range(cfg.trials)]
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
            trial2 = trial_errors(cfg, 10.0, spec, 2)
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
                      lambda config, active, lo, hi: evaluate(
                          config, np.broadcast_to(active.any(axis=1, keepdims=True), active.shape),
                          lo, hi))
            unskipped = mc.run_sweep(cfg)

        # each call is read as the trials it covers, told apart by their
        # channels (Gramian calls) or their Gramians (solves)
        h_of = [mc.trial_realization(cfg, 1.0, t)[2] for t in range(cfg.trials)]
        trial_of_h = {h.tobytes(): t for t, h in enumerate(h_of)}
        trial_of_g = {detect.gramian(h, 0.0, None).tobytes(): t for t, h in enumerate(h_of)}
        calls = {"solve": [], "gramian": []}
        solve, gramian = detect.soft_estimate, detect.gramian

        def spy_solve(spec, g0, *args, **kwargs):
            calls["solve"].append((spec.kind, [trial_of_g[g.tobytes()] for g in g0]))
            return solve(spec, g0, *args, **kwargs)

        def spy_gramian(h, *args, **kwargs):
            calls["gramian"].append([trial_of_h[one.tobytes()] for one in h])
            return gramian(h, *args, **kwargs)

        monkeypatch.setattr(detect, "soft_estimate", spy_solve)
        monkeypatch.setattr(detect, "gramian", spy_gramian)
        records = mc.run_sweep(cfg)
        assert records == unskipped
        mmse, admin, simo = records
        assert simo.trials_run > max(mmse.trials_run, admin.trials_run)
        # each detector's solves cover its trials exactly once, each call
        # within one chunk, and none once it has stopped
        assert all(len({t // cfg.chunk_size for t in trials}) == 1 for _, trials in calls["solve"])
        solved = {kind: sorted(t for k, trials in calls["solve"] if k is kind for t in trials)
                  for kind in (Kind.MMSE, Kind.ADMIN)}
        assert solved == {Kind.MMSE: list(range(mmse.trials_run)),
                          Kind.ADMIN: list(range(admin.trials_run))}
        # the Gramian calls cover each trial up to the last non-SIMO stop
        # exactly once: the chunks only SIMO runs on form none
        assert sorted(t for trials in calls["gramian"] for t in trials) == list(
            range(max(mmse.trials_run, admin.trials_run)))


def corrupt_trial(monkeypatch, trial, column):
    """Draw ``trial`` with its H's column 1 replaced by ``column(h, trial)``."""
    draw = mc.trial_realization

    def corrupted(config, sigma2, t):
        bits, x, h, noise = draw(config, sigma2, t)
        if t == trial:
            h[:, 1] = column(h, t)
        return bits, x, h, noise

    monkeypatch.setattr(mc, "trial_realization", corrupted)


class TestRetry:
    """A chunk whose stacked solve raises is solved again trial by trial."""

    def test_only_the_raising_chunk_is_retried(self, monkeypatch):
        # trial 6 (chunk 1 of 3) has a rank-deficient H: ZF at N = U raises
        # on it, the regularized MMSE and GS do not. Each call is read as
        # the (detector, sigma2, trial) systems it solves, its trials told
        # apart by their Gramians
        specs = (DetectorSpec(Kind.ZF, Backend.QR), DetectorSpec(Kind.MMSE, Backend.LDL),
                 DetectorSpec(Kind.GS))
        cfg = small_config(n=4, u=4, snr_db=(6.0, 12.0), trials=12, chunk_size=4,
                           detectors=specs)
        corrupt_trial(monkeypatch, 6, lambda h, t: h[:, 0])
        per_trial = [[[trial_errors(cfg, snr, spec, t) for t in range(cfg.trials)]
                      for spec in specs] for snr in cfg.snr_db]
        trial_of = {detect.gramian(mc.trial_realization(cfg, 1.0, t)[2], 0.0, None).tobytes(): t
                    for t in range(cfg.trials)}

        stacked, alone, raised = [], [], []
        solve = detect.soft_estimate

        def spy(spec, g0, x_mf, sigma2, *args):
            trials = [trial_of[g.tobytes()] for g in g0.reshape(-1, cfg.u, cfg.u)]
            systems = [(spec.name, s2, t) for s2 in np.ravel(sigma2).tolist() for t in trials]
            assert x_mf.shape == np.broadcast_shapes(np.shape(sigma2), g0.shape[:-1])
            (stacked if g0.ndim == 3 else alone).append(systems)
            try:
                return solve(spec, g0, x_mf, sigma2, *args)
            except detect.SOLVE_ERRORS:
                raised.append(systems)
                raise

        monkeypatch.setattr(detect, "soft_estimate", spy)
        records = mc.run_sweep(cfg)
        sigma2 = [phy.sigma2_from_snr(snr, cfg.u) for snr in cfg.snr_db]
        # every (point, trial) of every detector is solved once, in calls
        # that each cover one chunk and, with these small stacks, both of
        # its points
        assert sorted(s for call in stacked for s in call) == sorted(
            (spec.name, s2, t) for spec in specs for s2 in sigma2 for t in range(cfg.trials))
        assert all(len({t // cfg.chunk_size for _, _, t in call}) == 1 for call in stacked)
        assert all({s2 for _, s2, _ in call} == set(sigma2) for call in stacked)
        # only ZF's calls on chunk 1 raised; their systems, and no others,
        # were solved again one at a time, and alone only trial 6 raises
        chunk1_zf = sorted(("zf", s2, t) for s2 in sigma2 for t in range(4, 8))
        assert sorted(s for call in raised if len(call) > 1 for s in call) == chunk1_zf
        assert all(len(call) == 1 for call in alone)
        assert sorted(call[0] for call in alone) == chunk1_zf
        assert sorted(call for call in raised if len(call) == 1) == sorted(
            [("zf", s2, 6)] for s2 in sigma2)
        bits_per_trial = cfg.u * 2
        for rec, errs in zip(records, (e for point in per_trial for e in point)):
            zf = rec.detector == "zf"
            assert rec.bit_errors == sum(errs), rec
            assert rec.failures == (1 if zf else 0), rec
            assert (errs[6] == bits_per_trial) if zf else (errs[6] < bits_per_trial)

    @pytest.mark.parametrize("kind", [Kind.NSA, Kind.GS])
    def test_stack_of_points_is_retried_system_by_system(self, kind):
        # one call solves 2 points x 3 trials; a NaN in (point 1, trial 2)
        # makes it raise, and every other system then gets the estimate
        # it gets on its own, at its own point's sigma2
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        h = rng.standard_normal((3, 8, 4)) + 1j * rng.standard_normal((3, 8, 4))
        g0 = detect.gramian(h, 0.0, None)
        x_mf = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        x_mf[1, 2, 0] = np.nan
        sigma2 = np.array([4.0, 0.25])[:, None, None]
        spec = DetectorSpec(kind)
        soft = mc._solve_chunk(spec, g0, x_mf, sigma2, 1.0)
        for p, t in np.ndindex(2, 3):
            if (p, t) == (1, 2):
                assert np.isnan(soft[p, t]).all()
            else:
                assert np.array_equal(soft[p, t], detect.soft_estimate(
                    spec, g0[t], x_mf[p, t], float(sigma2[p, 0, 0]), 1.0, None))

    def test_near_singular_zf_backends_disagree(self, monkeypatch):
        # column 1 = column 0 + 1e-6 w: sigma_min / max|G| is about 2e-14.
        # Cholesky's and LDL's pivot falls below PIVOT_RTOL * max|G|, so
        # they fail the trial; QR's computed column norms do not, so it
        # scores the trial with a huge estimate
        cfg = small_config(n=4, u=4, snr_db=(10.0,), trials=4, master_seed=1,
                           detectors=tuple(DetectorSpec(Kind.ZF, be) for be in Backend))
        corrupt_trial(monkeypatch, 0, lambda h, t: h[:, 0] + 1e-6 * phy.complex_gaussian(
            (cfg.n, 1), phy.substream(7, t))[:, 0])
        _, x, h, noise = mc.trial_realization(cfg, phy.sigma2_from_snr(10.0, cfg.u), 0)
        g0 = detect.gramian(h, 0.0, OpCount())
        x_mf = detect.matched_filter(h, h @ x + noise, OpCount())
        assert np.linalg.svd(g0, compute_uv=False)[-1] <= 1e-13 * np.abs(g0).max()
        qr = detect.soft_estimate(DetectorSpec(Kind.ZF, Backend.QR), g0, x_mf, 0.0, 1.0,
                                  OpCount())
        assert np.abs(qr).max() > 1e6
        records = mc.run_sweep(cfg)
        assert {Backend(r.params.split("=")[1]): r.failures for r in records} == {
            Backend.QR: 0, Backend.CHOLESKY: 1, Backend.LDL: 1}

    def test_near_singular_trial_fails_only_at_its_small_shift(self, monkeypatch):
        # the trial of test_near_singular_zf_backends_disagree at 0 dB and
        # 300 dB: sigma2 = 4e-30 leaves Cholesky's and LDL's pivot below
        # the tolerance, sigma2 = 4 does not. The chunk's failure rule, run
        # at its smallest shift, raises, and its systems are solved again
        # one (point, trial) at a time, so only that trial at 300 dB fails
        specs = (DetectorSpec(Kind.MMSE, Backend.CHOLESKY), DetectorSpec(Kind.MMSE, Backend.LDL))
        cfg = small_config(n=4, u=4, snr_db=(0.0, 300.0), trials=8, chunk_size=4,
                           master_seed=1, detectors=specs)
        corrupt_trial(monkeypatch, 0, lambda h, t: h[:, 0] + 1e-6 * phy.complex_gaussian(
            (cfg.n, 1), phy.substream(7, t))[:, 0])
        records = mc.run_sweep(cfg)
        bits_per_trial = cfg.u * 2
        for rec, (snr, spec) in zip(records, itertools.product(cfg.snr_db, specs)):
            errs = [trial_errors(cfg, snr, spec, t) for t in range(cfg.trials)]
            assert (rec.snr_db, rec.params) == (snr, spec.params)
            assert rec.trials_run == cfg.trials and rec.bit_errors == sum(errs), rec
            assert rec.failures == (1 if snr == 300.0 else 0), rec
            assert (errs[0] == bits_per_trial) == (snr == 300.0)

    def test_single_user_sweep_never_fails(self):
        specs = tuple(DetectorSpec(Kind.ZF, be) for be in Backend) + tuple(
            DetectorSpec(kind) for kind in Kind if kind is not Kind.ZF)
        cfg = small_config(n=4, u=1, snr_db=(0.0, 30.0), trials=50, chunk_size=20,
                           detectors=specs)
        records = mc.run_sweep(cfg)
        assert len(records) == 2 * len(specs)
        assert all(r.failures == 0 and r.trials_run == 50 for r in records)


class TestNearSingularQr:
    """Why ``TestRetry``'s near-singular trial is scored by QR only."""

    def test_values_only_qr_keeps_the_counted_diagonal(self, monkeypatch):
        # the same trial as test_near_singular_zf_backends_disagree: the
        # values-only QR is the counted loop, bit for bit, and its column
        # norms are far above PIVOT_RTOL * max|G|, so QR does not raise;
        # the values-only estimate comes from G's spectrum, which keeps
        # orthogonality, so it is nearer np.linalg.solve's than the
        # counted Q^H b
        cfg = small_config(n=4, u=4, snr_db=(10.0,), trials=4, master_seed=1,
                           detectors=(DetectorSpec(Kind.ZF, Backend.QR),))
        corrupt_trial(monkeypatch, 0, lambda h, t: h[:, 0] + 1e-6 * phy.complex_gaussian(
            (cfg.n, 1), phy.substream(7, t))[:, 0])
        _, x, h, noise = mc.trial_realization(cfg, phy.sigma2_from_snr(10.0, cfg.u), 0)
        g0 = detect.gramian(h, 0.0, None)
        x_mf = detect.matched_filter(h, h @ x + noise, None)
        values = np.abs(np.diagonal(decomp.gram_schmidt_qr(g0, None)[1]))
        counted = np.abs(np.diagonal(decomp.gram_schmidt_qr(g0, OpCount())[1]))
        assert np.array_equal(values, counted)
        assert values.min() > 1e3 * decomp.pivot_tol(g0)
        oracle = np.linalg.solve(g0, x_mf)
        spec = DetectorSpec(Kind.ZF, Backend.QR)
        spectral = detect.soft_estimate(spec, g0, x_mf, 0.0, 1.0, None)
        loop = detect.soft_estimate(spec, g0, x_mf, 0.0, 1.0, OpCount())
        assert np.linalg.norm(spectral - oracle) < np.linalg.norm(loop - oracle)


def spy_check_hermitian(monkeypatch) -> list[np.ndarray]:
    """The stacks ``detect`` hands ``check_hermitian``, in call order."""
    check, inputs = detect.check_hermitian, []

    def spy(a, tol):
        inputs.append(a)
        return check(a, tol)

    monkeypatch.setattr(detect, "check_hermitian", spy)
    return inputs


class TestSharedSpectrum:
    """One ``np.linalg.eigh`` of a chunk's G0 stack serves every exact and
    ADMIN solve of the chunk, retries included."""

    @staticmethod
    def spy_eigh(monkeypatch):
        eigh, inputs = np.linalg.eigh, []

        def spy(a, *args, **kwargs):
            inputs.append(a.copy())
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return inputs

    def test_mmse_and_admin_share_one_eigh_per_chunk(self, monkeypatch):
        # fig5's detectors at 32 x 32, two chunks of four trials
        cfg = SweepConfig(n=32, u=32, order=64, snr_db=(15.0, 25.0), trials=8,
                          detectors=(DetectorSpec(Kind.MMSE, Backend.QR),
                                     DetectorSpec(Kind.ADMIN, beta_scale=8.0),
                                     DetectorSpec(Kind.SIMO)),
                          master_seed=1, stop_at_errors=None, chunk_size=4)
        inputs = self.spy_eigh(monkeypatch)
        mc.run_sweep(cfg)
        assert [a.shape for a in inputs] == [(4, 32, 32)] * 2

    def test_a_chunk_checks_its_gramian_once(self, monkeypatch):
        # spectrum_of owns the values path's Hermitian check: one chunk
        # running MMSE and ADMIN checks its G0 stack once, not per solve
        cfg = small_config(n=8, u=4, snr_db=(5.0, 15.0), trials=4, chunk_size=4,
                           detectors=(DetectorSpec(Kind.MMSE, Backend.QR), DetectorSpec(Kind.ADMIN)))
        checked = spy_check_hermitian(monkeypatch)
        mc.run_sweep(cfg)
        assert [a.shape for a in checked] == [(4, 4, 4)]

    def test_a_retry_checks_nothing(self, monkeypatch):
        # trial 2's rank-deficient G0 makes ZF's stacked solve raise; its
        # per-(point, trial) retry takes the chunk's checked spectrum, so
        # the chunk's one check stays the only one
        specs = (DetectorSpec(Kind.ZF, Backend.QR), DetectorSpec(Kind.ADMIN))
        cfg = small_config(n=4, u=4, snr_db=(6.0, 12.0), trials=4, chunk_size=4, detectors=specs)
        corrupt_trial(monkeypatch, 2, lambda h, t: h[:, 0])
        checked = spy_check_hermitian(monkeypatch)
        records = mc.run_sweep(cfg)
        assert [r.failures for r in records] == [1, 0] * 2  # so ZF's chunk was retried
        assert [a.shape for a in checked] == [(4, 4, 4)]

    @pytest.mark.parametrize("column,failed", [
        (lambda h, t: h[:, 0], {"zf"}),  # rank deficient: ZF alone raises
        (lambda h, t: np.full(h.shape[0], np.nan), {"zf", "mmse", "admin"}),
    ], ids=["rank-deficient", "non-finite"])
    def test_a_retry_takes_its_trials_slice(self, monkeypatch, column, failed):
        # trial 6 (chunk 1 of 3) makes its chunk's stacked solves raise;
        # each (point, trial) is solved again from its trial's slice of the
        # chunk's spectrum, so eigh runs once per chunk all the same, and
        # never on a non-finite Gramian
        specs = (DetectorSpec(Kind.ZF, Backend.QR), DetectorSpec(Kind.MMSE, Backend.LDL),
                 DetectorSpec(Kind.ADMIN))
        cfg = small_config(n=4, u=4, snr_db=(6.0, 12.0), trials=12, chunk_size=4,
                           detectors=specs)
        corrupt_trial(monkeypatch, 6, column)
        inputs, alone = self.spy_eigh(monkeypatch), []
        solve = detect.soft_estimate

        def spy(spec, g0, *args):
            if g0.ndim == 2:
                alone.append(spec.name)
            return solve(spec, g0, *args)

        monkeypatch.setattr(detect, "soft_estimate", spy)
        records = mc.run_sweep(cfg)
        assert [a.shape for a in inputs] == [(4, 4, 4)] * 3
        assert all(np.isfinite(a).all() for a in inputs)
        assert sorted(alone) == sorted(name for name in failed for _ in range(2 * 4))
        assert [r.failures for r in records] == [int(s.name in failed) for s in specs] * 2


class TestValuesOnly:
    def test_sweep_counts_nothing(self, monkeypatch):
        # every tally the sweep reaches is skipped (acc=None), and the
        # counted solvers, patched back in, give the same records
        specs = tuple(DetectorSpec(Kind.MMSE, be) for be in Backend) + tuple(
            DetectorSpec(kind) for kind in (Kind.NSA, Kind.GS, Kind.CG, Kind.ADMIN, Kind.SIMO))
        cfg = small_config(n=8, u=8, snr_db=(0.0, 12.0), trials=24, chunk_size=8,
                           detectors=specs)
        accs = []
        charge = kernels.charge

        def spy(acc, *args, **kwargs):
            accs.append(acc)
            return charge(acc, *args, **kwargs)

        with monkeypatch.context() as m:
            # every module that calls it, under the name it imported
            for module in (kernels, detect):
                m.setattr(module, "charge", spy)
            values = mc.run_sweep(cfg)
        assert accs and all(acc is None for acc in accs)

        solve = detect.soft_estimate  # acc is its sixth argument, the chunk's spectrum the seventh
        monkeypatch.setattr(detect, "soft_estimate",
                            lambda *args: solve(*args[:5], OpCount(), *args[6:]))
        assert mc.run_sweep(cfg) == values


def staggered_config(**overrides):
    # the three points stop in different chunks: after 10, 30 and 50 of 60 trials
    return small_config(n=8, snr_db=(-3.0, 3.0, 6.0), trials=60, stop_at_errors=10,
                        chunk_size=10, **overrides)


def point_major_reference(cfg):
    """(detector, snr, trials_run, bit_errors) rows from ``trial_errors``, point by point.

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
                errors[d] += sum(trial_errors(cfg, snr, spec, t) for t in range(lo, hi))
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
        cfg = staggered_config()
        draw, drawn = mc.trial_realization, []
        matched_filter, filtered = detect.matched_filter, []
        trial_of = {draw(cfg, 1.0, t)[3].tobytes(): t for t in range(cfg.trials)}

        def spy(config, sigma2, trial):
            drawn.append((sigma2, trial))
            return draw(config, sigma2, trial)

        def spy_mf(h, y, *args, **kwargs):
            assert y.shape[1:] == (cfg.n,)
            filtered.extend(trial_of[noise.tobytes()] for noise in y)
            return matched_filter(h, y, *args, **kwargs)

        monkeypatch.setattr(mc, "trial_realization", spy)
        monkeypatch.setattr(detect, "matched_filter", spy_mf)
        lines = []
        records = mc.run_sweep(cfg, progress=lines.append)
        assert all(sigma2 == 1.0 for sigma2, _ in drawn)
        assert max(collections.Counter(t for _, t in drawn).values()) == 1
        assert len(drawn) == max(r.trials_run for r in records) == 50
        # the stacked matched filters of the unit noise cover each drawn
        # trial exactly once, whatever the number of points
        assert sorted(filtered) == sorted(t for _, t in drawn)
        # one progress line per point, in the order the points ended
        assert [line.split(" dB")[0] for line in lines] == ["snr -3", "snr 3", "snr 6"]


class TestWorkingSet:
    """Where a chunk's H and H^H pass ``montecarlo.WORKING_SET`` its products
    are formed in blocks of trials, with the same records; every solve keeps
    all the points it runs on."""

    SPECS = (DetectorSpec(Kind.ZF, Backend.QR), DetectorSpec(Kind.MMSE, Backend.QR),
             DetectorSpec(Kind.MMSE, Backend.LDL), DetectorSpec(Kind.NSA),
             DetectorSpec(Kind.GS), DetectorSpec(Kind.CG), DetectorSpec(Kind.ADMIN, beta=0.5),
             DetectorSpec(Kind.ADMIN, beta_scale=2.0), DetectorSpec(Kind.SIMO))
    SOLVERS = ("exact_solve", "nsa_solve", "gs_solve", "cg_solve", "admin_solve")

    def sweep(self, monkeypatch, working_set):
        # the points stop in different chunks, so the points a solve runs on change
        cfg = small_config(n=8, u=4, order=16, snr_db=(0.0, 4.0, 8.0, 12.0, 16.0), trials=30,
                           chunk_size=6, stop_at_errors=40, detectors=self.SPECS)
        calls, current = [], []  # (what, spec, points or trials); the spec being solved
        solve, gramian = detect.soft_estimate, detect.gramian

        def points(x_mf):
            return x_mf.shape[0] if x_mf.ndim == 3 else None

        def spy_solve(spec, g0, x_mf, *args):
            calls.append(("soft", spec, points(x_mf)))
            current[:] = [spec]
            return solve(spec, g0, x_mf, *args)

        def spy_solver(name):
            solver = getattr(detect, name)

            def spied(g, x_mf, *args, **kwargs):
                calls.append(("solver", current[0], points(x_mf)))
                return solver(g, x_mf, *args, **kwargs)
            return spied

        def spy_gramian(h, *args, **kwargs):
            calls.append(("gramian", None, h.shape[0]))
            return gramian(h, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(mc, "WORKING_SET", working_set)
            m.setattr(detect, "soft_estimate", spy_solve)
            m.setattr(detect, "gramian", spy_gramian)
            for name in self.SOLVERS:
                m.setattr(detect, name, spy_solver(name))
            return mc.run_sweep(cfg), calls

    def test_records_do_not_depend_on_the_budget(self, monkeypatch):
        records, calls = self.sweep(monkeypatch, mc.WORKING_SET)
        split, split_calls = self.sweep(monkeypatch, 1)
        assert split == records
        assert len({r.trials_run for r in records}) > 1
        # the default budget holds these small stacks whole: one Gramian
        # per chunk, and one call per (chunk, detector) for every point
        assert all(size == 6 for what, _, size in calls if what == "gramian")
        for d, spec in enumerate(self.SPECS[:-1]):
            last = max(r.trials_run for r in records[d::len(self.SPECS)])
            assert sum(s == spec for what, s, _ in calls if what == "soft") == -(-last // 6), spec
        # ... and each of those calls solves in one solver call
        assert ([s for what, s, _ in calls if what == "solver"]
                == [s for what, s, _ in calls if what == "soft"])
        # the budget sizes the products only: the sweep makes the same
        # solves whatever it is, and a budget of one byte leaves one trial
        # per product, while every solver call still runs all five points
        # at the first chunk
        assert ([c for c in split_calls if c[0] != "gramian"]
                == [c for c in calls if c[0] != "gramian"])
        assert all(size == 1 for what, _, size in split_calls if what == "gramian")
        for spec in self.SPECS[:-1]:
            assert max(size for what, s, size in split_calls
                       if what == "solver" and s == spec) == 5, spec


SPECS = (DetectorSpec(Kind.ZF, Backend.QR), DetectorSpec(Kind.MMSE, Backend.CHOLESKY),
         DetectorSpec(Kind.MMSE, Backend.LDL), DetectorSpec(Kind.NSA, iterations=2),
         DetectorSpec(Kind.GS, iterations=2), DetectorSpec(Kind.CG, iterations=2),
         DetectorSpec(Kind.ADMIN, beta_scale=2.0), DetectorSpec(Kind.ADMIN, beta=0.5),
         DetectorSpec(Kind.SIMO))


@st.composite
def small_sweeps(draw):
    """A validated sweep of at most 8 antennas, 4 users, 4 points and 24 trials."""
    u = draw(st.integers(1, 4))
    start = draw(st.integers(-10, 10))
    steps = draw(st.lists(st.integers(1, 8), max_size=3))
    return SweepConfig(
        n=draw(st.integers(u, 8)), u=u, order=draw(st.sampled_from(sorted(phy.MOD_NAMES))),
        snr_db=tuple(float(start + sum(steps[:i])) for i in range(len(steps) + 1)),
        detectors=tuple(draw(st.lists(st.sampled_from(SPECS), min_size=1, max_size=3,
                                      unique=True))),
        trials=draw(st.integers(1, 24)), master_seed=draw(st.integers(0, 2**32)),
        stop_at_errors=draw(st.integers(1, 12)), chunk_size=draw(st.integers(1, 8)))


def assert_record_invariants(cfg, records):
    bits_per_trial = cfg.u * phy.make_constellation(cfg.order).bits_per_symbol
    assert [(r.snr_db, r.detector) for r in records] == [
        (snr, spec.name) for snr in cfg.snr_db for spec in cfg.detectors]
    for r in records:
        assert r.bits_total == r.trials_run * bits_per_trial
        assert 0 <= r.failures <= r.trials_run
        if r.trials_run < cfg.trials:  # stopped early, at the end of a chunk
            assert r.bit_errors >= cfg.stop_at_errors
            assert r.trials_run % cfg.chunk_size == 0


class TestMergeProperty:
    """Records do not depend on how the trials are chunked or pooled."""

    @settings(max_examples=50)
    @given(cfg=small_sweeps(), chunk_size=st.integers(1, 8))
    def test_without_stop_records_do_not_depend_on_the_chunk_size(self, cfg, chunk_size):
        cfg = dataclasses.replace(cfg, stop_at_errors=None)
        records = mc.run_sweep(cfg)
        assert mc.run_sweep(dataclasses.replace(cfg, chunk_size=chunk_size)) == records
        assert_record_invariants(cfg, records)
        assert all(r.trials_run == cfg.trials for r in records)

    @settings(max_examples=20)
    @given(cfg=small_sweeps())
    def test_with_stop_records_do_not_depend_on_the_workers(self, cfg):
        # 3 workers leave a partial last wave unless 3 divides the chunk count
        records = mc.run_sweep(cfg)
        with pytest.MonkeyPatch.context() as mp:
            pin_usable_cpus(mp, 3)  # waves of 3 on any machine
            assert mc.run_sweep(dataclasses.replace(cfg, workers=2)) == records
            assert mc.run_sweep(dataclasses.replace(cfg, workers=3)) == records
        assert_record_invariants(cfg, records)
        assert [(r.detector, r.snr_db, r.trials_run, r.bit_errors) for r in records] == (
            point_major_reference(cfg))


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with one that runs each call inline and
    starts no process; returns the ``max_workers`` each pool asked for and
    the number of chunks each ``wait`` (one per wave) was given."""
    import concurrent.futures as cf

    sizes, waves = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            fut = cf.Future()
            fut.set_result(fn(*args))
            return fut

        def shutdown(self, cancel_futures=False):
            pass

    wait = cf.wait
    monkeypatch.setattr(cf, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cf, "wait", lambda futures: waves.append(len(futures)) or wait(futures))
    return sizes, waves


def test_pool_starts_no_more_processes_than_chunks(monkeypatch, inline_pool):
    # a forked pool starts all its processes at the first submit, so 8
    # workers on 3 chunks ask for 3
    pin_usable_cpus(monkeypatch, 8)
    cfg = small_config(trials=30, chunk_size=10)
    assert mc.run_sweep(dataclasses.replace(cfg, workers=8)) == mc.run_sweep(cfg)
    assert inline_pool == ([3], [3])


def test_pool_starts_no_more_processes_than_cpus(monkeypatch, inline_pool):
    # nor more than the usable CPUs: 8 workers on 10 chunks and 2 CPUs
    # ask for 2 and send waves of 2, with one worker's records
    pin_usable_cpus(monkeypatch, 2)
    cfg = small_config(trials=100, chunk_size=10)
    assert mc.run_sweep(dataclasses.replace(cfg, workers=8)) == mc.run_sweep(cfg)
    assert inline_pool == ([2], [2] * 5)


@pytest.fixture
def worker_dies_at_20(monkeypatch):
    """Make the pool worker that evaluates trials [20, 30) exit at once.

    The wrapper keeps ``_eval_trials``'s name, so it pickles by reference
    to the patched module attribute, and the forked workers inherit the
    patch. A sweep that hangs instead of raising fails after 60 s.
    """
    evaluate = mc._eval_trials

    @functools.wraps(evaluate)
    def dying(config, active, lo, hi):
        if lo == 20:
            os._exit(1)
        return evaluate(config, active, lo, hi)

    def hung(signum, frame):
        raise TimeoutError("the sweep hung after its worker died")

    monkeypatch.setattr(mc, "_eval_trials", dying)
    pin_usable_cpus(monkeypatch, 2)  # on one CPU no pool starts and os._exit ends pytest
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

    def test_ended_point_is_not_named(self):
        # the point at -10 dB ends with chunk [0, 10) of the first wave, so
        # the second wave, [20, 30) and [30, 40), is sent without it: both
        # of its chunks are named, at the points their mask holds
        cfg = small_config(snr_db=(-10.0, 6.0, 12.0), trials=60, chunk_size=10,
                           stop_at_errors=5, workers=2)
        with pytest.raises(mc.WorkerDied) as err:
            mc.run_sweep(cfg)
        assert err.value.chunks == [((6.0, 12.0), 20, 30), ((6.0, 12.0), 30, 40)]
        assert str(err.value) == ("a pool worker died evaluating trials [20, 30) at SNR "
                                  "6, 12 dB; trials [30, 40) at SNR 6, 12 dB")

    def test_worker_dies_before_its_wave_is_sent(self, monkeypatch):
        # the worker evaluating [20, 30) is dead before [30, 40) is
        # submitted: the submit that finds the pool broken raises too
        import concurrent.futures as cf

        submit = cf.ProcessPoolExecutor.submit

        def submit_then_wait(pool, fn, *args):
            fut = submit(pool, fn, *args)
            if args[2] == 20:
                fut.exception(timeout=30)
            return fut

        monkeypatch.setattr(cf.ProcessPoolExecutor, "submit", submit_then_wait)
        with pytest.raises(mc.WorkerDied) as err:
            mc.run_sweep(small_config(trials=60, chunk_size=10, workers=2))
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
        r = BerRecord("mmse", "backend=qr", 5.0,
                      trials_run=100, bit_errors=80, bits_total=800, failures=0)
        assert r.ber == pytest.approx(0.1)
        assert r.stderr == pytest.approx(np.sqrt(0.1 * 0.9 / 800))

    def test_holds_only_its_tally(self):
        # BER and its standard error are read from the tally, never stored
        assert [f.name for f in dataclasses.fields(BerRecord)] == [
            "detector", "params", "snr_db", "trials_run", "bit_errors", "bits_total", "failures"]
        r = BerRecord("mmse", "backend=qr", 5.0, 0, 0, 0, 0)
        assert (r.ber, r.stderr) == (0.0, 0.0)
        r.bit_errors, r.bits_total = 3, 12
        assert (r.ber, r.stderr) == (0.25, float(np.sqrt(0.25 * 0.75 / 12)))


class TestSummarize:
    def make_records(self, detector, pts):
        return [
            BerRecord(detector, "t=1", snr, 100, int(ber * 1e6), int(1e6), 0)
            for snr, ber in pts
        ]

    def crossings(self, recs, target):
        return [snr_at_ber(curve(recs, name), target) for name in ("mmse", "gs", "nsa")]

    def test_identical_curves_zero_gap(self):
        pts = [(0.0, 0.1), (5.0, 0.01), (10.0, 0.001)]
        recs = self.make_records("mmse", pts) + self.make_records("gs", pts)
        mmse, gs, _ = self.crossings(recs, 0.01)
        assert gs - mmse == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_three_db_shift(self):
        base = [(s, 10 ** (-0.25 * s - 1)) for s in np.arange(0.0, 20.0, 2.0)]
        shifted = [(s + 3.0, ber) for s, ber in base]
        recs = self.make_records("mmse", base) + self.make_records("gs", shifted)
        mmse, gs, _ = self.crossings(recs, 1e-2)
        assert gs - mmse == pytest.approx(3.0, abs=0.1)

    def test_gap_undefined_for_floored_curve(self):
        good = [(0.0, 0.1), (5.0, 0.01), (10.0, 0.001)]
        floored = [(0.0, 0.3), (5.0, 0.22), (10.0, 0.2)]
        recs = self.make_records("mmse", good) + self.make_records("nsa", floored)
        mmse, _, nsa = self.crossings(recs, 1e-2)
        assert mmse is not None and nsa is None

    def test_snr_at_ber_exact_hit(self):
        pts = [(0.0, 0.1, 1000), (10.0, 0.001, 1000)]
        assert snr_at_ber(pts, 0.1) == pytest.approx(0.0)

    @pytest.mark.parametrize("target", [0.0, -0.1])
    def test_snr_at_ber_needs_a_positive_target(self, target):
        with pytest.raises(ValueError, match="target BER must be positive"):
            snr_at_ber([(0.0, 0.1, 1000), (10.0, 0.001, 1000)], target)

    def test_snr_at_ber_flat_segment_gives_its_start(self):
        pts = [(2.0, 0.1, 1000), (5.0, 0.1, 1000), (8.0, 0.01, 1000)]
        assert snr_at_ber(pts, 0.1) == 2.0

    def test_snr_at_ber_zero_floor(self):
        # a zero-BER point interpolates with the half-error floor
        pts = [(0.0, 0.1, 10_000), (10.0, 0.0, 10_000)]
        got = snr_at_ber(pts, 1e-2)
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
