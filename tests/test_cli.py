"""Command-line contract: flags, presets, CSV schemas, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet import cli, montecarlo
from mimodet.detect import Backend, Kind
from mimodet.montecarlo import ConfigError

FAST_ARGS = ["--trials", "60", "--seed", "7", "--stop-at", "0"]


def run(argv):
    return cli.main(argv)


class TestParsing:
    def test_snr_range(self):
        assert cli.parse_snr_range("0:2:20") == tuple(float(s) for s in range(0, 21, 2))
        assert cli.parse_snr_range("1,3,9") == (1.0, 3.0, 9.0)
        assert cli.parse_snr_range("15:2.5:20") == (15.0, 17.5, 20.0)
        with pytest.raises(ConfigError):
            cli.parse_snr_range("5:-1:0")

    def test_detector_specs(self):
        spec = cli.parse_detector("mmse:chol")
        assert spec.kind is Kind.MMSE and spec.backend is Backend.CHOLESKY
        spec = cli.parse_detector("nsa:t=4")
        assert spec.kind is Kind.NSA and spec.iterations == 4
        spec = cli.parse_detector("admin:t=5:bscale=8")
        assert spec.beta_scale == 8.0 and spec.iterations == 5
        assert cli.parse_detector("simo").kind is Kind.SIMO
        with pytest.raises(ConfigError):
            cli.parse_detector("sphere")
        with pytest.raises(ConfigError):
            cli.parse_detector("mmse:lu")

    @pytest.mark.parametrize("text,option", [
        # an option the kind ignores
        ("nsa:ldl", "ldl"), ("gs:beta=2", "beta=2"), ("mmse:chol:t=7", "t=7"),
        ("zf:bscale=2", "bscale=2"), ("simo:t=4:bscale=3", "t=4"), ("simo:qr", "qr"),
        # a setting given twice, or by both of ADMIN's beta options
        ("mmse:qr:chol", "chol"), ("nsa:t=3:t=4", "t=4"), ("admin:beta=0.5:bscale=8", "bscale=8"),
    ])
    def test_option_the_kind_does_not_use_is_refused(self, text, option):
        with pytest.raises(ConfigError) as err:
            cli.parse_detector(text)
        assert err.value.field == "det" and repr(option) in str(err.value)

    def test_presets_cover_published_figures(self):
        assert set(cli.PRESETS) == {"fig2", "fig3", "fig4", "fig5", "fig6"}
        fig2 = cli.PRESETS["fig2"]
        assert (fig2["n"], fig2["u"], fig2["mod"]) == (256, 16, "64qam")
        assert set(fig2["det"]) == {"mmse:chol", "nsa:t=3", "gs:t=3", "cg:t=3"}
        fig5 = cli.PRESETS["fig5"]
        assert (fig5["n"], fig5["u"], fig5["mod"]) == (32, 32, "64qam")
        assert any(d.startswith("mmse:qr") for d in fig5["det"])
        assert any(d.startswith("admin:t=5") for d in fig5["det"])
        assert "simo" in fig5["det"]
        fig6 = cli.PRESETS["fig6"]
        assert (fig6["n"], fig6["u"], fig6["mod"]) == (32, 32, "qpsk")


class TestBerCommand:
    def test_writes_csv_with_schema(self, tmp_path):
        code = run(["ber", "--n", "8", "--u", "4", "--mod", "qpsk",
                    "--snr", "0:5:10", "--det", "mmse:chol", "--det", "gs:t=3",
                    "--out-dir", str(tmp_path)] + FAST_ARGS)
        assert code == 0
        out = tmp_path / "ber_8x4_qpsk.csv"
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,u,mod,detector,params,snr_db,trials,bit_errors,bits,ber,stderr"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert first[:5] == ["8", "4", "qpsk", "mmse", "backend=chol"]

    def test_deterministic_output(self, tmp_path):
        argv = ["ber", "--n", "8", "--u", "8", "--mod", "qpsk",
                "--snr", "0:2:20", "--det", "mmse:chol", "--trials", "100",
                "--seed", "7"]
        run(argv + ["--out-dir", str(tmp_path / "a")])
        run(argv + ["--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "ber_8x8_qpsk.csv").read_bytes()
        b = (tmp_path / "b" / "ber_8x8_qpsk.csv").read_bytes()
        assert a == b

    def test_config_error_exit_code_and_message(self, tmp_path, capsys):
        code = run(["ber", "--n", "4", "--u", "8", "--mod", "qpsk",
                    "--snr", "0:5:10", "--det", "mmse", "--seed", "1",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: u:")

    def test_missing_setting_names_field(self, tmp_path, capsys):
        code = run(["ber", "--n", "8", "--u", "4", "--snr", "0:5:10",
                    "--det", "mmse", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "mod" in capsys.readouterr().err

    def test_seed_zero_is_its_own_seed(self, tmp_path):
        argv = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", "--snr", "0:5:10",
                "--det", "mmse:chol", "--trials", "60", "--stop-at", "0"]
        for seed in ("0", "1"):
            assert run(argv + ["--seed", seed, "--out-dir", str(tmp_path / seed)]) == 0
        a = (tmp_path / "0" / "ber_8x4_qpsk.csv").read_bytes()
        b = (tmp_path / "1" / "ber_8x4_qpsk.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("flag,value,field", [
        ("--trials", "0", "trials"),
        ("--threads", "0", "threads"),
        ("--seed", "-1", "seed"),
    ])
    def test_out_of_range_value_names_field(self, tmp_path, capsys, flag, value, field):
        argv = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", "--snr", "0",
                "--det", "mmse", "--seed", "1", "--out-dir", str(tmp_path)]
        assert run(argv + [flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not (tmp_path / "ber_8x4_qpsk.csv").exists()

    @pytest.mark.parametrize("snr,det,field", [
        ("inf", "admin", "snr"),  # sigma2 = 0
        ("4000", "mmse", "snr"),  # 10^400 overflows
        ("-inf", "mmse", "snr"),  # sigma2 = inf
        ("nan", "mmse", "snr"),
        ("0", "admin:beta=nan", "det"),
        ("0", "admin:bscale=inf", "det"),
        ("300", "admin:bscale=1e-300", "det"),  # beta = 4e-330 underflows to 0
    ])
    def test_bad_noise_variance_or_beta_names_field(self, tmp_path, capsys, snr, det, field):
        argv = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", f"--snr={snr}", "--det", det,
                "--trials", "4", "--seed", "1", "--out-dir", str(tmp_path)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not list(tmp_path.iterdir())

    def test_direct_backend_is_unknown(self, tmp_path, capsys):
        argv = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", "--snr", "0",
                "--det", "mmse:direct", "--seed", "1", "--out-dir", str(tmp_path)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("config error: det: unknown backend 'direct'")

    def test_preset_requires_seed(self, capsys):
        assert run(["ber", "--preset", "fig2"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,field", [
        (["--n", "64"], "n"),
        (["--n", "64", "--det", "gs:t=9"], "n"),
        (["--u", "8"], "u"),
        (["--mod", "qpsk"], "mod"),
        (["--snr", "0:1:2"], "snr"),
        (["--det", "gs:t=9"], "det"),
    ])
    def test_preset_rejects_shape_flags(self, tmp_path, capsys, extra, field):
        # a preset fixes its shape; a flag that would change it is refused,
        # naming the first such field, before any sweep runs
        argv = ["ber", "--preset", "fig2", "--seed", "1", "--out-dir", str(tmp_path)]
        assert run(argv + extra) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("exp,field", [
        ({"trials": 5, "n": 8}, "trials"),
        ({"n": 8}, "n"),
        ({"out_dir": "res", "seed": 2}, "seed"),
        ({"sweeps": [{"n": 8, "u": 2, "mod": "qpsk", "snr": "0", "det": "mmse"}]}, "sweeps"),
    ])
    def test_preset_rejects_sweep_keys_in_file(self, tmp_path, monkeypatch, capsys,
                                               exp, field):
        # a file's sweep settings would be dropped under --preset, so they are
        # refused, naming the key, before anything is created
        monkeypatch.chdir(tmp_path)
        Path("exp.json").write_text(json.dumps(exp))
        assert run(["ber", "--preset", "fig2", "--seed", "1", "--config", "exp.json"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_preset_takes_out_dir_and_complexity_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"out_dir": "res", "complexity": {"u": [4], "t": 3}}))
        args = cli.build_parser().parse_args(
            ["ber", "--preset", "fig2", "--seed", "1", "--trials", "5", "--config", str(path)])
        out_dir, configs, request = cli.plan_ber(args)
        assert out_dir == Path("res")
        assert [(c.n, c.u, c.trials, c.master_seed) for c in configs] == [(256, 16, 5, 1)]
        assert request == (Path("res") / "complexity.csv", (4,), 3)

    def test_unknown_preset(self, capsys):
        assert run(["ber", "--preset", "fig9", "--seed", "1"]) == 2

    def test_experiment_file_with_flag_override(self, tmp_path):
        exp = {
            "n": 8, "u": 4, "mod": "qpsk", "snr": "0:5:5",
            "det": ["mmse:chol"], "trials": 500, "seed": 3,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        code = run(["ber", "--config", str(path), "--trials", "40",
                    "--stop-at", "0", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "ber_8x4_qpsk.csv").read_text().strip().split("\n")
        assert lines[1].split(",")[6] == "40"  # flag overrode file trials

    def test_experiment_file_with_sweep_list_and_complexity(self, tmp_path):
        exp = {
            "sweeps": [
                {"n": 8, "u": 2, "mod": "qpsk", "snr": "0:5:5",
                 "det": ["zf:qr"], "trials": 30, "seed": 2, "stop_at": 0}
            ],
            "complexity": {"u": [4, 8], "t": 3, "out": "cx.csv"},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert run(["ber", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "ber_8x2_qpsk.csv").exists()
        cx = (tmp_path / "cx.csv").read_text().strip().split("\n")
        assert cx[0] == "U,algorithm,t,formula_rm,measured_rm"
        assert len(cx) == 1 + 2 * 6

    SWEEP = {"n": 8, "u": 2, "mod": "qpsk", "snr": "0", "det": "mmse", "trials": 4, "seed": 1}

    @pytest.mark.parametrize("exp,field", [
        ({**SWEEP, "snr": ["a", 3]}, "snr"),
        ({**SWEEP, "snr": 5}, "snr"),
        ({**SWEEP, "det": 5}, "det"),
        ({"sweeps": 5}, "sweeps"),
        ({"sweeps": [5]}, "sweeps"),
        ({"sweeps": [SWEEP], "complexity": 5}, "complexity"),
        ({"sweeps": [SWEEP], "complexity": {"u": [0, 4]}}, "u"),
        ({"sweeps": [SWEEP], "complexity": {"u": "4,x"}}, "u"),
        ({"sweeps": [SWEEP], "complexity": {"u": [4.5]}}, "u"),
        ({"sweeps": [SWEEP], "complexity": {"u": []}}, "u"),
        ({"sweeps": [SWEEP], "complexity": {"t": 0}}, "t"),
        ({"sweeps": [SWEEP], "complexity": {"t": "three"}}, "t"),
        ({**SWEEP, "out_dir": 5}, "out_dir"),
        # an unknown key is refused wherever it sits, never silently dropped
        ({**SWEEP, "trails": 40}, "trails"),
        ({"sweeps": [{**SWEEP, "trails": 40}]}, "trails"),
        ({"sweeps": [SWEEP], "trials": 40}, "trials"),
        ({"sweeps": [SWEEP], "complexity": {"u": [4], "tt": 3}}, "tt"),
        ({"sweeps": []}, "sweeps"),
    ])
    def test_experiment_file_types_name_the_field(self, tmp_path, monkeypatch, capsys,
                                                  exp, field):
        # refused before any sweep runs, so nothing is written
        monkeypatch.chdir(tmp_path)
        Path("exp.json").write_text(json.dumps(exp))
        assert run(["ber", "--config", "exp.json"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_complexity_only_file(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"complexity": {"u": "4,8", "t": 1}}))
        assert run(["ber", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        assert "warning: t=1" in capsys.readouterr().err
        cx = (tmp_path / "complexity.csv").read_text().strip().split("\n")
        assert len(cx) == 1 + 2 * 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["complexity.csv", "exp.json"]

    def test_shipped_example_is_valid(self, tmp_path, monkeypatch):
        example = Path(__file__).resolve().parents[1] / "docs" / "example_experiment.json"
        monkeypatch.chdir(tmp_path)
        args = cli.build_parser().parse_args(["ber", "--config", str(example)])
        out_dir, configs, request = cli.plan_ber(args)
        assert out_dir == Path("results") and not out_dir.exists()
        assert [(c.n, c.u, c.order, len(c.detectors)) for c in configs] == [
            (64, 16, 64, 4), (32, 32, 4, 3)]
        assert request == (Path("results/complexity.csv"), (4, 8, 16, 32, 64, 128), 3)

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["ber", "--config", str(path)]) == 2
        assert "config" in capsys.readouterr().err


REQUIRED = ("n", "u", "mod", "snr", "det")
OPTIONAL_FIELDS = {"seed": "master_seed", "trials": "trials", "stop_at": "stop_at_errors",
                   "threads": "workers"}
CONFIG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(montecarlo.SweepConfig)}
# JSON-like values of any type; the text alphabet cannot spell "inf", and five
# characters cannot spell an SNR range of more than ten points
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("0123456789:,.-enaqs", max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)
PLAUSIBLE = {
    "n": st.integers(1, 40) | st.just(0), "u": st.integers(1, 8) | st.just(0),
    "mod": st.sampled_from(["qpsk", "4QAM", "16qam", "64qam", "8psk"]),
    "snr": st.sampled_from(["6", "0:5:30", "1,3,9", "5:-1:0", "9,3"])
    | st.lists(st.floats(-40, 60), min_size=1, max_size=3, unique=True).map(sorted),
    "det": st.lists(st.sampled_from(["mmse:chol", "zf:ldl", "nsa:t=3", "gs", "cg:t=2", "simo",
                                     "admin:t=5:bscale=8", "admin:beta=0.5"]), min_size=1, max_size=3)
    | st.lists(st.sampled_from(["mmse", "gs:t=0", "admin:beta=nan", "nsa:ldl", "lu"]), max_size=2),
    "trials": st.integers(-1, 5000), "seed": st.integers(-1, 2**64),
    "stop_at": st.sampled_from([0, "none", 200, -1, "200"]), "threads": st.integers(-1, 4),
}
# plausible settings, then up to two keys (known or not) set to any value
# and up to one required key dropped
SWEEP_SETTINGS = st.builds(
    lambda known, messed, dropped: {k: v for k, v in {**known, **messed}.items() if k not in dropped},
    st.fixed_dictionaries({k: PLAUSIBLE[k] for k in REQUIRED},
                          optional={k: PLAUSIBLE[k] for k in OPTIONAL_FIELDS}),
    st.dictionaries(st.sampled_from([*PLAUSIBLE, "trails", "chunk_size"]), ANY_VALUE, max_size=2),
    st.sampled_from([(), (), (), *[(k,) for k in REQUIRED]]))


class TestBuildSweep:
    BASE = {"n": 8, "u": 2, "mod": "qpsk", "snr": "6", "det": "mmse", "stop_at": 0}

    @pytest.mark.parametrize("overrides,field", [
        ({"seed": 1.7, "trials": 40.9}, "seed"),
        ({"trials": 40.9}, "trials"),
        ({"n": 8.5}, "n"),
        ({"u": True}, "u"),
        ({"stop_at": 2.5}, "stop_at"),
        ({"threads": True}, "threads"),
        ({"seed": "1.7"}, "seed"),
    ])
    def test_non_integers_name_the_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            cli.build_sweep({**self.BASE, **overrides})
        assert err.value.field == field

    def test_integral_values_still_run(self):
        cfg = cli.build_sweep({**self.BASE, "seed": 1.0, "trials": 40.0, "threads": 1.0})
        assert (cfg.master_seed, cfg.trials, cfg.workers) == (1, 40, 1)
        assert cfg.stop_at_errors is None
        ref = cli.build_sweep({**self.BASE, "seed": 1, "trials": 40})
        assert montecarlo.run_sweep(cfg) == montecarlo.run_sweep(ref)

    @settings(max_examples=250)
    @given(entry=SWEEP_SETTINGS)
    def test_fuzzed_settings_give_a_config_or_name_the_field(self, entry):
        # any settings mapping either builds a valid config, whose settings
        # left out are SweepConfig's defaults, or is refused naming one of
        # its own keys or a required one; nothing else is raised
        try:
            cfg = cli.build_sweep(entry)
        except ConfigError as err:
            assert err.field in entry or err.field in REQUIRED
            return
        cfg.validate()
        for key, field in OPTIONAL_FIELDS.items():
            if entry.get(key) is None:
                assert getattr(cfg, field) == CONFIG_DEFAULTS[field]


class TestComplexityCommand:
    def test_default_table(self, tmp_path):
        out = tmp_path / "complexity.csv"
        assert run(["complexity", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "U,algorithm,t,formula_rm,measured_rm"
        assert len(lines) == 1 + 6 * 6  # six algorithms x six U values
        assert "32,chol,3,22816,22816" in lines

    def test_t1_warns_about_nsa(self, tmp_path, capsys):
        out = tmp_path / "cx.csv"
        assert run(["complexity", "--u", "8", "--t", "1", "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        nsa_row = next(l for l in out.read_text().splitlines() if l.startswith("8,nsa"))
        assert nsa_row.split(",")[3] == "0"

    def test_bad_u_list(self, capsys):
        assert run(["complexity", "--u", "4,x"]) == 2
        assert "u" in capsys.readouterr().err


def test_runs_as_module():
    # python -m mimodet is the installed mimodet command
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "mimodet", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "ber" in proc.stdout and "complexity" in proc.stdout


def test_import_loads_neither_pool_nor_parser():
    # a one-worker sweep uses neither the process pool (which loads
    # logging) nor argparse, so importing the package loads neither
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys\n"
            "import mimodet.cli, mimodet.complexity, mimodet.detect, mimodet.montecarlo, mimodet.phy\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging', 'argparse')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSelftest:
    def test_passes_on_fresh_build(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "cholesky real_mul U=8" in out and "392" in out
        assert "FAIL" not in out

    def test_negative_control_fails(self, capsys):
        assert run(["selftest", "--corrupt-counts"]) == 1
        assert "FAIL" in capsys.readouterr().out
