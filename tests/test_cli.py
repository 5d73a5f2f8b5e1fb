"""Command-line contract: flags, presets, CSV schemas, exit codes."""

import json

import pytest

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

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["ber", "--config", str(path)]) == 2
        assert "config" in capsys.readouterr().err


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


class TestSelftest:
    def test_passes_on_fresh_build(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "cholesky real_mul U=8" in out and "392" in out
        assert "FAIL" not in out

    def test_negative_control_fails(self, capsys):
        assert run(["selftest", "--corrupt-counts"]) == 1
        assert "FAIL" in capsys.readouterr().out
