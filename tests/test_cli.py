"""Command-line contract: flags, presets, CSV schemas, exit codes."""

import ast
import csv
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimodet
from mimodet import cli, complexity, montecarlo
from mimodet.detect import Backend, DetectorSpec, Kind
from mimodet.montecarlo import ConfigError

FAST_ARGS = ["--trials", "60", "--seed", "7", "--stop-at", "0"]


def run(argv):
    return cli.main(argv)


# two to four DetectorSpec fields of one kind, each with each of backend, t,
# beta and bscale present or absent and every value valid, ints among the
# floats; ``spec_text`` writes one as CLI text
SPECS_OF_ONE_KIND = st.sampled_from(Kind).flatmap(lambda kind: st.lists(
    st.fixed_dictionaries({"kind": st.just(kind)}, optional={
        "backend": st.sampled_from(Backend), "iterations": st.sampled_from([1, 3, 5]),
        "beta": st.sampled_from([0.5, 8]), "beta_scale": st.sampled_from([1, 2.0, 8])}),
    min_size=2, max_size=4))
SPEC_OPTION = {"iterations": "t=", "beta": "beta=", "beta_scale": "bscale="}


def spec_text(fields: dict) -> str:
    return ":".join([fields["kind"].value] + [
        value.value if name == "backend" else f"{SPEC_OPTION[name]}{value!r}"
        for name, value in fields.items() if name != "kind"])


def outcome(make):
    """What ``make()`` returns, or the ConfigError it raises."""
    try:
        return make()
    except ConfigError as exc:
        return exc


class TestParsing:
    def test_snr_range(self):
        assert cli.parse_snr_range("0:2:20") == tuple(float(s) for s in range(0, 21, 2))
        assert cli.parse_snr_range("1,3,9") == (1.0, 3.0, 9.0)
        assert cli.parse_snr_range("15:2.5:20") == (15.0, 17.5, 20.0)
        with pytest.raises(ConfigError):
            cli.parse_snr_range("5:-1:0")
        # an unbounded or non-finite range, or one of more than 10,000
        # points, is refused; at 1e30 a unit step is below the spacing of
        # floats, so start + k * step never passes stop
        for text in ("0:1:inf", "-inf:1:0", "0:1:nan", "nan:1:5", "0:inf:5",
                     "0:1e-9:1", "0:1:10000", "1e30:1:1e30"):
            with pytest.raises(ConfigError) as err:
                cli.parse_snr_range(text)
            assert err.value.field == "snr" and repr(text) in str(err.value)
        assert len(cli.parse_snr_range("0:1:9999")) == 10_000

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
        with pytest.raises(ConfigError) as err:
            cli.parse_detector("nsa:x=3")
        assert err.value.field == "det" and "unknown detector option 'x'" in str(err.value)

    @pytest.mark.parametrize("text,option", [
        # an option the kind ignores
        ("nsa:ldl", "ldl"), ("gs:beta=2", "beta=2"), ("mmse:chol:t=7", "t=7"),
        ("zf:bscale=2", "bscale=2"), ("simo:t=4:bscale=3", "t=4"), ("simo:qr", "qr"),
        # a setting given twice, or by both of ADMIN's beta options
        ("mmse:qr:chol", "chol"), ("nsa:t=3:t=4", "t=4"), ("admin:beta=0.5:bscale=8", "bscale=8"),
    ])
    def test_option_the_kind_does_not_use_is_refused(self, text, option):
        # the refusal names the DetectorSpec field the option sets
        field_name = {"t": "iterations", "beta": "beta", "bscale": "beta_scale"}.get(
            option.partition("=")[0], "backend")
        with pytest.raises(ConfigError) as err:
            cli.parse_detector(text)
        assert err.value.field == "det" and re.search(rf"\b{field_name}\b", str(err.value))

    @settings(max_examples=300)
    @given(several=SPECS_OF_ONE_KIND)
    def test_the_library_and_the_cli_agree_on_detector_specs(self, several):
        # the text builds exactly when the fields do, as the same spec, and a
        # refusal from either names det; two specs that build share a BER row
        # key exactly when they are equal
        specs = []
        for fields in several:
            parsed = outcome(lambda: cli.parse_detector(spec_text(fields)))
            built = outcome(lambda: DetectorSpec(**fields))
            assert type(parsed) is type(built)
            if isinstance(built, ConfigError):
                assert parsed.field == built.field == "det"
            else:
                assert parsed == built
                specs += [parsed, built]
        for a, b in itertools.combinations(specs, 2):
            assert ((a.name, a.params) == (b.name, b.params)) == (a == b)

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

    def test_admin_params_are_one_quoted_field(self):
        # ADMIN's params hold a comma, so the row quotes them and keeps the header's columns
        settings = dict(n=8, u=4, mod="qpsk", snr="0:5:10", det=["mmse:qr", "admin:t=5:bscale=8"],
                        trials=60, seed=7, stop_at=0)
        config = cli.build_sweep(settings)
        records = montecarlo.run_sweep(config)
        rows = list(csv.DictReader(io.StringIO(cli.ber_csv(config, records))))
        assert len(rows) == len(records) == 6
        assert all(len(row) == 11 and None not in row.values() for row in rows)
        admin = [(row, r) for row, r in zip(rows, records) if r.detector == "admin"]
        assert len(admin) == 3
        for row, r in admin:
            assert row["params"] == r.params == "t=5,beta=8.0*sigma2"
            assert float(row["snr_db"]) == r.snr_db and float(row["ber"]) == r.ber

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
        ("0", "admin:bscale=1e308", "det"),  # beta = 4e308 overflows, refused without a warning
    ])
    def test_bad_noise_variance_or_beta_names_field(self, tmp_path, capsys, snr, det, field):
        argv = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", f"--snr={snr}", "--det", det,
                "--trials", "4", "--seed", "1", "--out-dir", str(tmp_path)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,field", [
        (["--trials", "2.5"], "trials"), (["--n", "x"], "n"), (["--seed", "1.5"], "seed"),
        (["--threads", "true"], "threads"), (["--stop-at", "never"], "stop_at"),
    ])
    def test_non_integer_flag_names_the_field(self, tmp_path, capsys, argv, field):
        # a flag is read by the rule a file's value is read by, and its error is a config error
        base = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", "--snr", "0", "--det", "mmse",
                "--seed", "1", "--out-dir", str(tmp_path)]
        assert run(base + argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not list(tmp_path.iterdir())

    def test_stop_at_none_is_stop_at_zero(self, tmp_path):
        # as a file's "stop_at": "none" is
        argv = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", "--snr", "0:5:10",
                "--det", "mmse:chol", "--trials", "60", "--seed", "7"]
        for stop in ("none", "0"):
            assert run(argv + ["--stop-at", stop, "--out-dir", str(tmp_path / stop)]) == 0
        none, zero = ((tmp_path / stop / "ber_8x4_qpsk.csv").read_bytes() for stop in ("none", "0"))
        assert none == zero

    def test_direct_backend_is_unknown(self, tmp_path, capsys):
        argv = ["ber", "--n", "8", "--u", "4", "--mod", "qpsk", "--snr", "0",
                "--det", "mmse:direct", "--seed", "1", "--out-dir", str(tmp_path)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("config error: det: unknown backend 'direct'")

    @pytest.mark.parametrize("det", [["mmse", "mmse:qr"], ["gs:t=3,gs"],
                                     ["admin:bscale=8", "zf", "admin:t=5:bscale=8.0"]])
    def test_one_detector_twice_is_refused(self, tmp_path, capsys, det):
        # both would solve every chunk and write the same rows (same detector,
        # params and snr_db) to the BER CSV
        argv = ["ber", "--n", "4", "--u", "2", "--mod", "qpsk", "--snr", "0", "--seed", "1",
                "--trials", "4", "--out-dir", str(tmp_path)]
        assert run(argv + [arg for d in det for arg in ("--det", d)]) == 2
        assert capsys.readouterr().err.startswith("config error: det:")
        assert not list(tmp_path.iterdir())

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

    def test_preset_takes_out_dir_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"out_dir": "res"}))
        args = cli.build_parser().parse_args(
            ["ber", "--preset", "fig2", "--seed", "1", "--trials", "5", "--config", str(path)])
        plan = cli.plan_ber(args)
        assert [csv_path for csv_path, _ in plan] == [Path("res") / "ber_256x16_64qam.csv"]
        assert [(c.n, c.u, c.trials, c.master_seed) for _, c in plan] == [(256, 16, 5, 1)]

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

    def test_experiment_file_with_sweep_list(self, tmp_path):
        exp = {
            "sweeps": [
                {"n": 8, "u": 2, "mod": "qpsk", "snr": "0:5:5",
                 "det": ["zf:qr"], "trials": 30, "seed": 2, "stop_at": 0},
                {"n": 8, "u": 4, "mod": "qpsk", "snr": "0", "det": "mmse", "trials": 30},
            ],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert run(["ber", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        # a ber run writes one BER CSV per sweep and nothing else
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ber_8x2_qpsk.csv", "ber_8x4_qpsk.csv", "exp.json"]

    SWEEP = {"n": 8, "u": 2, "mod": "qpsk", "snr": "0", "det": "mmse", "trials": 4, "seed": 1}

    @pytest.mark.parametrize("exp,field", [
        ({**SWEEP, "snr": ["a", 3]}, "snr"),
        ({**SWEEP, "snr": 5}, "snr"),
        ({**SWEEP, "det": 5}, "det"),
        ({"sweeps": 5}, "sweeps"),
        ({"sweeps": [5]}, "sweeps"),
        ({"sweeps": [SWEEP], "complexity": 5}, "complexity"),
        ({**SWEEP, "u": [0, 4]}, "u"),
        ({**SWEEP, "u": "4,x"}, "u"),
        ({**SWEEP, "u": 4.5}, "u"),
        ({**SWEEP, "u": []}, "u"),
        ({**SWEEP, "t": 3}, "t"),  # a detector's t is an option of its det spec
        ({"sweeps": [{**SWEEP, "t": 3}]}, "t"),
        ({**SWEEP, "out_dir": 5}, "out_dir"),
        # an unknown key is refused wherever it sits, never silently dropped
        ({**SWEEP, "trails": 40}, "trails"),
        ({"sweeps": [{**SWEEP, "trails": 40}]}, "trails"),
        ({"sweeps": [SWEEP], "trials": 40}, "trials"),
        ({"sweeps": [SWEEP], "out_dir": "res", "tt": 3}, "tt"),
        ({"sweeps": []}, "sweeps"),
        ({**SWEEP, "snr": [True]}, "snr"),  # a bool is not an SNR of 1 dB
        ({**SWEEP, "snr": [False, 6]}, "snr"),
        ({"sweeps": [{**SWEEP, "u": None}]}, "u"),  # null is a missing setting
        ({**SWEEP, "snr": {"5": None, "7": 1}}, "snr"),  # an object is not a list of its keys
        # a falsy path is not taken for the working directory or the default
        ({**SWEEP, "out_dir": 0}, "out_dir"),
        ({**SWEEP, "out_dir": False}, "out_dir"),
        ({**SWEEP, "out_dir": []}, "out_dir"),
        ({**SWEEP, "out_dir": {}}, "out_dir"),
        # a file names only out_dir; out is mimodet complexity's flag
        ({**SWEEP, "out": "cx.csv"}, "out"),
        ({"sweeps": [SWEEP], "out": "cx.csv"}, "out"),
        ({**SWEEP, "out_dir": ""}, "out_dir"),  # nor is an empty one
    ])
    def test_experiment_file_types_name_the_field(self, tmp_path, monkeypatch, capsys,
                                                  exp, field):
        # refused before any sweep runs, so nothing is written
        monkeypatch.chdir(tmp_path)
        Path("exp.json").write_text(json.dumps(exp))
        assert run(["ber", "--config", "exp.json"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    @pytest.mark.parametrize("exp,flags", [
        ({**SWEEP, "complexity": {"u": [4]}}, []),
        ({"sweeps": [SWEEP], "complexity": {"u": [4], "t": 3, "out": "cx.csv"}}, []),
        ({"complexity": {"u": "4,8", "t": 3}}, []),
        ({"out_dir": "res", "complexity": {"u": [4], "t": 3}},
         ["--preset", "fig2", "--seed", "1", "--trials", "4"]),
    ], ids=["flat", "beside-sweeps", "alone", "preset"])
    def test_complexity_key_is_refused(self, tmp_path, monkeypatch, capsys, exp, flags):
        # the fig7 table is mimodet complexity's output alone: a file that asks
        # ber for it is refused, naming the key, and nothing runs or is written
        monkeypatch.chdir(tmp_path)
        Path("exp.json").write_text(json.dumps(exp))
        assert run(["ber", "--config", "exp.json", *flags]) == 2
        assert capsys.readouterr().err.startswith("config error: complexity: unknown key")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    @pytest.mark.parametrize("text,field", [
        ('{"n": 8, "u": 2, "mod": "qpsk", "snr": "0", "det": "mmse", "trials": 4, "trials": 6, '
         '"seed": 1}', "trials"),
        ('{"sweeps": [{"n": 8, "u": 2, "mod": "qpsk", "snr": "0", "det": "mmse", "trials": 4, '
         '"u": 4}], "out_dir": "res"}', "u"),
        ('{"out_dir": "a", "sweeps": [], "out_dir": "b"}', "out_dir"),
    ], ids=["top-level", "sweep-entry", "before-other-errors"])
    def test_repeated_key_is_refused(self, tmp_path, monkeypatch, capsys, text, field):
        # json keeps a repeated key's last value; the file is refused naming
        # the key instead, before any other check, and nothing is written
        monkeypatch.chdir(tmp_path)
        Path("exp.json").write_text(text)
        assert run(["ber", "--config", "exp.json"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {field}: repeated key in the experiment file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_shipped_example_is_valid(self, tmp_path, monkeypatch):
        example = Path(__file__).resolve().parents[1] / "docs" / "example_experiment.json"
        monkeypatch.chdir(tmp_path)
        args = cli.build_parser().parse_args(["ber", "--config", str(example)])
        plan = cli.plan_ber(args)
        assert all(path.parent == Path("results") for path, _ in plan)
        assert not Path("results").exists()
        assert [(c.n, c.u, c.order, len(c.detectors)) for _, c in plan] == [
            (64, 16, 64, 4), (32, 32, 4, 3)]

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["ber", "--config", str(path)]) == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read"),  # no such file
        ("[1, 2]", "experiment file must hold a JSON object"),
        pytest.param(b'{"n": \xff}', "invalid JSON", id="not-utf8"),
        pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON", id="nested-100000-deep"),
    ])
    def test_unreadable_or_non_object_config_names_config(self, tmp_path, monkeypatch, capsys,
                                                         content, message):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "exp.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert run(["ber", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config:") and message in err
        assert [p.name for p in tmp_path.iterdir()] == ([] if content is None else ["exp.json"])


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

    def test_comma_joined_det_flag_is_two_entries(self, tmp_path):
        shape = ["ber", "--n", "8", "--u", "2", "--mod", "qpsk", "--snr", "6",
                 "--out-dir", str(tmp_path)]
        plan = [cli.plan_ber(cli.build_parser().parse_args(shape + det))
                for det in (["--det", "mmse:chol,nsa:t=3"],
                            ["--det", "mmse:chol", "--det", "nsa:t=3"])]
        assert plan[0] == plan[1]
        assert [path.parent for path, _ in plan[0]] == [tmp_path]
        assert [(d.kind, d.params) for d in plan[0][0][1].detectors] == [
            (Kind.MMSE, "backend=chol"), (Kind.NSA, "t=3")]

    def test_comma_joined_det_in_a_file_is_two_entries(self):
        joined = cli.build_sweep({**self.BASE, "det": "mmse,gs"})
        assert joined == cli.build_sweep({**self.BASE, "det": ["mmse", "gs"]})
        assert [d.kind for d in joined.detectors] == [Kind.MMSE, Kind.GS]

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
        for key, field in OPTIONAL_FIELDS.items():
            if entry.get(key) is None:
                assert getattr(cfg, field) == CONFIG_DEFAULTS[field]


# whole experiment files: a sweep list, or one flat sweep, with an output
# directory and a complexity request (an unknown key), any of them of a
# wrong type; then as bytes, with files that are not UTF-8 or not JSON, and
# JSON nested past the recursion limit
COMPLEXITY_REQUEST = st.fixed_dictionaries({}, optional={
    "u": st.sampled_from(["4,8", "4,x", [16, 32], [0], [4, None], []]) | ANY_VALUE,
    "t": st.integers(0, 4) | ANY_VALUE, "out": st.just("cx.csv") | ANY_VALUE,
    "tt": ANY_VALUE})
FILE_KEYS = st.fixed_dictionaries({}, optional={
    "complexity": COMPLEXITY_REQUEST | ANY_VALUE, "out_dir": st.just("out") | ANY_VALUE})
EXPERIMENT = (
    st.builds(lambda sweeps, rest: {"sweeps": sweeps, **rest},
              st.lists(SWEEP_SETTINGS | ANY_VALUE, max_size=2) | ANY_VALUE, FILE_KEYS)
    | st.builds(lambda sweep, rest: {**sweep, **rest}, SWEEP_SETTINGS, FILE_KEYS)
    | FILE_KEYS | ANY_VALUE)
EXPERIMENT_FILE = (EXPERIMENT.map(lambda data: json.dumps(data).encode())
                   | st.binary(max_size=6)
                   | st.sampled_from([10, 100_000]).map(lambda d: b"[" * d + b"]" * d))
FLAGS = st.sampled_from([[], ["--trials", "40"], ["--preset", "fig2", "--seed", "1"],
                         ["--preset", "fig5", "--seed", "3", "--threads", "2"]])


def input_keys(data, flags) -> set:
    """The keys an experiment file and its flags hold, at every level plan_ber reads."""
    keys = {flag[2:] for flag in flags if flag.startswith("--")}
    if not isinstance(data, dict):
        return keys
    sweeps = data.get("sweeps")
    for level in [data, *(sweeps if isinstance(sweeps, list) else [])]:
        if isinstance(level, dict):
            keys |= set(level)
    return keys


class TestPlanBer:
    @settings(max_examples=150)
    @given(content=EXPERIMENT_FILE, flags=FLAGS)
    def test_fuzzed_files_give_configs_or_name_a_key(self, content, flags):
        # any experiment file, with or without a preset, gives valid configs
        # or is refused naming a key it holds, a required sweep key, the
        # file itself (config) or its sweeps; nothing else is raised and
        # nothing is written; a complexity key is always refused
        try:
            data = json.loads(content)
        except (ValueError, RecursionError):
            data = None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.json"
            path.write_bytes(content)
            args = cli.build_parser().parse_args(["ber", "--config", str(path), *flags])
            try:
                plan = cli.plan_ber(args)
            except ConfigError as err:
                assert err.field in input_keys(data, flags) | set(REQUIRED) | {"config", "sweeps"}
                return
            finally:
                assert [p.name for p in Path(tmp).iterdir()] == ["exp.json"]
        assert plan and all(isinstance(path, Path) and isinstance(cfg, montecarlo.SweepConfig)
                            for path, cfg in plan)
        assert all(path.parent == Path(data.get("out_dir", ".")) for path, _ in plan)
        assert not (isinstance(data, dict) and "complexity" in data)


class TestComplexityCommand:
    def test_default_table(self, tmp_path):
        out = tmp_path / "complexity.csv"
        assert run(["complexity", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "U,algorithm,t,formula_rm,measured_rm"
        assert len(lines) == 1 + 6 * 6  # six algorithms x six U values
        assert "32,chol,3,22816,22816" in lines
        # every row, in order, byte for byte
        assert out.read_bytes() == (Path(__file__).parent / "data"
                                    / "complexity_default.csv").read_bytes()

    @pytest.mark.parametrize("flags,golden", [
        # U = 1, odd U and t = 1, where the Neumann-series rows are zero
        (["--u", "1,2,5,33", "--t", "1"], "complexity_u1_2_5_33_t1.csv"),
        # the default U list at a t other than the default
        (["--t", "7"], "complexity_t7.csv"),
    ])
    def test_pinned_tables(self, tmp_path, flags, golden):
        out = tmp_path / "complexity.csv"
        assert run(["complexity", *flags, "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "data" / golden).read_bytes()

    def test_t1_warns_about_nsa(self, tmp_path, capsys):
        out = tmp_path / "cx.csv"
        assert run(["complexity", "--u", "8", "--t", "1", "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        nsa_row = next(l for l in out.read_text().splitlines() if l.startswith("8,nsa"))
        assert nsa_row.split(",")[3] == "0"

    def test_bad_u_list(self, capsys):
        assert run(["complexity", "--u", "4,x"]) == 2
        assert "u" in capsys.readouterr().err

    @pytest.mark.parametrize("u", ["4,4", "4,8,4"])
    def test_repeated_u_is_refused(self, tmp_path, capsys, u):
        # as two detectors with one row key are: each of its rows would be written twice
        assert run(["complexity", "--u", u, "--t", "2", "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: u:")
        assert not list(tmp_path.iterdir())

    def test_non_integer_t_names_the_field(self, tmp_path, capsys):
        assert run(["complexity", "--t", "x", "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: t:")
        assert not list(tmp_path.iterdir())


def readme_commands(readme: Path) -> list[list[str]]:
    """The argv of every ``mimodet`` line in README's CLI code block, with
    lines continued by a backslash joined and comments dropped."""
    import shlex

    block = readme.read_text().split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("mimodet ")]


def test_readme_commands_parse_and_plan(monkeypatch):
    # every command README's CLI section shows parses, and every ber line
    # passes plan_ber's checks, from the checkout's root as README's paths
    # are written; nothing runs and nothing is written
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    before = sorted(root.iterdir())
    commands = readme_commands(root / "README.md")
    assert sorted({argv[0] for argv in commands}) == ["ber", "complexity", "selftest"]
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if argv[0] == "ber":
            assert cli.plan_ber(args), argv
    assert sorted(root.iterdir()) == before


class TestOutputs:
    """Where the results go: every output has a path of its own, its
    directory is made as needed, and one that cannot be written exits 3
    with one line instead of a traceback."""

    SWEEP = {"n": 4, "u": 2, "mod": "qpsk", "snr": "0", "det": "mmse", "trials": 4, "seed": 1}

    def refused(self, tmp_path, capsys, exp, flags, field):
        # refused before any sweep runs, naming the field; nothing is created
        Path("exp.json").write_text(json.dumps(exp))
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run(["ber", "--config", "exp.json", *flags]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_two_sweeps_of_one_shape_are_refused(self, tmp_path, monkeypatch, capsys):
        # both would write ber_4x2_qpsk.csv, and the second would replace the first
        monkeypatch.chdir(tmp_path)
        exp = {"sweeps": [self.SWEEP, {**self.SWEEP, "snr": "10", "det": "zf"}]}
        self.refused(tmp_path, capsys, exp, [], "sweeps")

    def test_out_dir_naming_a_file_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("")
        self.refused(tmp_path, capsys, self.SWEEP, ["--out-dir", "taken"], "out_dir")
        self.refused(tmp_path, capsys, self.SWEEP, ["--out-dir", "taken/sub"], "out_dir")
        self.refused(tmp_path, capsys, {**self.SWEEP, "out_dir": "taken"}, [], "out_dir")

    def test_file_out_dir_that_is_not_a_path_is_refused_under_the_flag(self, tmp_path,
                                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for bad in (0, ""):
            self.refused(tmp_path, capsys, {**self.SWEEP, "out_dir": bad}, ["--out-dir", "d"],
                         "out_dir")

    def test_empty_out_dir_flag_is_refused(self, tmp_path, monkeypatch, capsys):
        # an empty flag is not the working directory, nor does it fall
        # through to the file's out_dir
        monkeypatch.chdir(tmp_path)
        self.refused(tmp_path, capsys, self.SWEEP, ["--out-dir", ""], "out_dir")
        self.refused(tmp_path, capsys, {**self.SWEEP, "out_dir": "res"}, ["--out-dir", ""],
                     "out_dir")

    def test_out_dir_is_made_as_needed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("exp.json").write_text(json.dumps({"sweeps": [self.SWEEP], "out_dir": "res/sub"}))
        assert run(["ber", "--config", "exp.json"]) == 0
        assert [p.name for p in Path("res/sub").iterdir()] == ["ber_4x2_qpsk.csv"]

    def test_complexity_command_makes_its_directory(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert run(["complexity", "--u", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("U,algorithm,t,formula_rm")

    def test_complexity_out_under_a_file_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("")
        assert run(["complexity", "--u", "4", "--out", "taken/c.csv"]) == 2
        assert capsys.readouterr().err.startswith("config error: out:")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_ber_csv_on_a_directory_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("d/ber_4x2_qpsk.csv").mkdir(parents=True)
        self.refused(tmp_path, capsys, self.SWEEP, ["--out-dir", "d"], "out_dir")
        assert [p.name for p in Path("d").iterdir()] == ["ber_4x2_qpsk.csv"]

    def test_complexity_out_on_a_directory_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("cx").mkdir()
        assert run(["complexity", "--u", "4", "--out", "cx"]) == 2
        assert capsys.readouterr().err.startswith("config error: out:")
        assert list(Path("cx").iterdir()) == []

    def test_out_of_memory_is_a_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # exit 3 with one line, not a traceback and exit 1 (a failed self
        # test); a real trigger, such as --u 100000, would allocate ~596 GiB
        def exhausted(*_):
            raise MemoryError("Unable to allocate 596. GiB")

        monkeypatch.setattr(complexity, "table_csv", exhausted)
        assert run(["complexity", "--u", "4", "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err == "memory error: Unable to allocate 596. GiB\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_an_output_error(self, tmp_path, capsys):
        # a file name longer than the file system allows: only the write
        # finds it, exit 3
        out = tmp_path / ("x" * 300 + ".csv")
        assert run(["complexity", "--u", "4", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1


def writes_or_makes(call: ast.Call) -> bool:
    """Whether a call makes a directory or opens a file to write, append or create."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("mkdir", "makedirs", "write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    position = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode), path.open(mode)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:  # the default mode reads
        return False
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax"))


def test_one_writer_makes_every_file_and_directory():
    # cli._write is the only code in src/ that makes a directory or writes
    # a file, so a run makes a directory only where it writes a file
    sample = ast.parse("open(p, 'w'); p.open(mode='a'); os.makedirs(d); open(p, m); "
                       "open(p); p.open(); open(p, 'rb'); json.dump(x, f)")
    found = [writes_or_makes(node) for node in ast.walk(sample) if isinstance(node, ast.Call)]
    assert found == [True, True, True, True, False, False, False, False]
    writers = []
    for path in sorted(Path(mimodet.__file__).parent.glob("*.py")):

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Call) and writes_or_makes(node):
                writers.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert writers == ["cli._write", "cli._write"]  # its mkdir and its write_text


# module.name of each top-level name in src/ that no code in src/ uses -> why it stays
USED_OUTSIDE_SRC = {
    "__init__.__version__": "the package's version",
    "complexity.Algo": "perfbench/child.py:92 calls complexity.Algo",
}


def test_src_holds_only_what_a_command_runs():
    # every top-level function, class and constant of src/ is used by other
    # code in src/ (cli.main by __main__), so code that only the tests call
    # lives under tests/
    defined, used = [], set()
    for path in sorted(Path(mimodet.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(name, f"{path.stem}.{name}") for name in names]
            # what a statement refers to, apart from its own names (a recursive call)
            for node in ast.walk(stmt):
                ref = (node.id if isinstance(node, ast.Name) else
                       node.attr if isinstance(node, ast.Attribute) else
                       node.name if isinstance(node, ast.alias) else None)
                if ref is not None and ref not in names:
                    used.add(ref)
    unused = sorted(where for name, where in defined if name not in used)
    assert unused == sorted(USED_OUTSIDE_SRC)


def test_src_imports_only_the_standard_library_and_numpy():
    # pyproject.toml declares numpy alone, so any other import would pass
    # here and fail on a clean install
    allowed = set(sys.stdlib_module_names) | {"numpy", "mimodet"}
    found = set()
    for path in sorted(Path(mimodet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert "numpy" in found and found <= allowed, sorted(found - allowed)


def test_no_flag_sets_a_type():
    # every flag reaches build_sweep or complexity_request as the text given,
    # as a file's value does, so as_count and cli's parsers are the one rule
    # for each setting, and a bad flag is a config error naming it
    import argparse

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    typed = [(name, action.dest) for name, sub in commands.choices.items()
             for action in sub._actions if action.type is not None]
    assert len(commands.choices) == 3 and typed == []


def test_tests_import_this_checkout():
    # pytest puts this checkout's src/ first on sys.path (pythonpath in
    # pyproject.toml), so an installed copy of the package is never tested instead
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(mimodet.__file__).resolve().parent == src / "mimodet"


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
    # logging) nor argparse, so importing the package loads neither; nor
    # does it load numpy.random, whose import (about 10 ms) the first draw
    # of a sweep pays, so that the benchmark's setup time does not, nor
    # json, which only reading an experiment file needs
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys\n"
            "import mimodet.cli, mimodet.complexity, mimodet.detect, mimodet.montecarlo, mimodet.phy\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging', 'argparse', 'csv',"
            " 'numpy.random', 'json') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSelftest:
    def test_passes_on_fresh_build(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "chol tally U=8" in out and "392" in out
        assert "FAIL" not in out

    def test_check_names_in_order(self):
        # the details are not pinned: the residual digits depend on BLAS
        names = [name for name, _, _ in cli.run_selftest()]
        assert names == (
            [f"{b} tally U={u}" for b in ("qr", "chol", "ldl") for u in (2, 4, 8, 16, 32, 64)]
            + [f"decomposition residuals U={u}" for u in (8, 16)]
            + [f"mmse backend equivalence seed={s}" for s in (1, 2, 3)]
        )

    def test_negative_control_fails(self, monkeypatch, capsys):
        # a measured tally one multiplication high fails its check
        measure = complexity.measure_rm

        def one_high(backend, u):
            acc = measure(backend, u)
            acc.real_mul += 1
            return acc

        monkeypatch.setattr(complexity, "measure_rm", one_high)
        assert run(["selftest"]) == 1
        assert "FAIL" in capsys.readouterr().out
