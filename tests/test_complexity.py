"""Closed-form complexity model vs measured operation counts."""

import csv
import io
import json
from pathlib import Path

import pytest

from mimodet import complexity
from mimodet.complexity import (
    METHODS,
    formula_rm,
    measure_rm,
    seeded_gramian,
    table_csv,
)
from mimodet.decomp import cholesky, gram_schmidt_qr, ldl
from mimodet.detect import Backend, Kind
from mimodet.kernels import OpCount

GOLDEN_LDL = {
    int(k): v
    for k, v in json.loads(
        (Path(__file__).parent / "data" / "ldl_real_mul.json").read_text()
    ).items()
}


class TestFormula:
    @pytest.mark.parametrize(
        "algo,u,t,expected",
        [
            (Backend.CHOLESKY, 8, 1, 392),
            (Backend.CHOLESKY, 16, 1, 2960),
            (Backend.CHOLESKY, 32, 1, 22816),
            (Backend.LDL, 8, 1, 560),
            (Backend.LDL, 16, 1, 3680),
            (Backend.LDL, 32, 1, 25792),
            # the published spot table prints 137216 at U=32; the formula
            # row U^2(4U+2) gives 133120 and is what this package follows
            (Backend.QR, 32, 1, 133120),
            (Backend.QR, 8, 1, 2176),
            (Kind.NSA, 16, 3, 2 * (2 * 16**3 + 2 * 16**2 - 2 * 16)),
            (Kind.GS, 16, 3, 6 * 3 * 16 * 16),
            (Kind.CG, 16, 3, 4 * (4 * 16**2 + 20 * 16)),
        ],
        # the ids keep the names these cases have always been listed
        # under, from before the model took detect's enums as keys
        ids=lambda v: f"Algo.{v.name}" if isinstance(v, (Backend, Kind)) else None,
    )
    def test_spot_values(self, algo, u, t, expected):
        assert formula_rm(algo, u, t) == expected

    def test_positive_and_monotone(self):
        for algo in METHODS:
            prev = 0
            for u in range(2, 65):
                val = formula_rm(algo, u, t=2)
                assert val > 0
                assert val > prev
                prev = val

    @pytest.mark.parametrize("kind", [Kind.ZF, Kind.MMSE, Kind.ADMIN, Kind.SIMO])
    def test_other_kinds_have_no_model(self, kind):
        with pytest.raises(ValueError, match="no complexity model"):
            formula_rm(kind, 8, 3)

    def test_benchmark_spelling_names_the_backends(self):
        # the benchmark's count child spells a decomposition as
        # complexity.Algo("qr"); until the benchmark is re-recorded that
        # name must stay bound to detect's Backend
        assert complexity.Algo("chol") is Backend.CHOLESKY

    def test_nsa_zero_at_t1(self):
        assert formula_rm(Kind.NSA, 16, 1) == 0

    @pytest.mark.parametrize("u,t,message", [(0, 1, "u must be >= 1"), (4, 0, "t must be >= 1"),
                                             (4, 2.0, "t must be >= 1"), (4, True, "t must be >= 1"),
                                             (4, "2", "t must be >= 1")])
    def test_needs_one_user_and_one_iteration(self, u, t, message):
        with pytest.raises(ValueError, match=message):
            formula_rm(Kind.GS, u, t)

    def test_scaling_orders(self):
        # decompositions and the series model grow cubically, the sweep
        # methods quadratically
        assert formula_rm(Kind.GS, 128, 3) / formula_rm(Kind.GS, 64, 3) == 4.0
        ratio = formula_rm(Backend.QR, 256) / formula_rm(Backend.QR, 128)
        assert abs(ratio - 8.0) < 0.1


class TestMeasured:
    @pytest.mark.parametrize("u", [8, 16, 32])
    def test_cholesky_matches_formula(self, u):
        assert measure_rm(Backend.CHOLESKY, u).real_mul == formula_rm(Backend.CHOLESKY, u)

    @pytest.mark.parametrize("u", [2, 5, 8, 16, 33, 64])
    def test_qr_matches_formula(self, u):
        assert measure_rm(Backend.QR, u).real_mul == formula_rm(Backend.QR, u)

    @pytest.mark.parametrize("u", [2, 8, 16, 32, 64])
    def test_ldl_matches_golden_and_window(self, u):
        chol = formula_rm(Backend.CHOLESKY, u)
        measured = measure_rm(Backend.LDL, u).real_mul
        assert measured == GOLDEN_LDL[u]
        assert chol + 3 * u * (u - 1) <= measured <= chol + 4 * u * (u - 1)

    def test_cholesky_formula_full_range(self):
        # the closed form is exact, not asymptotic
        for u in range(2, 65):
            assert measure_rm(Backend.CHOLESKY, u).real_mul == formula_rm(Backend.CHOLESKY, u)

    def test_ldl_golden_full_range(self):
        for u in range(2, 65):
            assert measure_rm(Backend.LDL, u).real_mul == GOLDEN_LDL[u]

    def test_seed_independence(self):
        for factor in (gram_schmidt_qr, cholesky, ldl):
            tallies = [OpCount(), OpCount()]
            for seed, acc in zip((0, 99), tallies):
                factor(seeded_gramian(8, seed), acc)
            assert tallies[0] == tallies[1]

    def test_iterative_models_not_measurable(self):
        for kind in (Kind.NSA, Kind.GS, Kind.CG):
            with pytest.raises(ValueError, match="modeled only"):
                measure_rm(kind, 8)

    @pytest.mark.parametrize("backend", ["qr", None, 0])
    def test_refuses_what_is_not_a_backend(self, backend):
        # one refusal up front: the backend table would count any other
        # value as LDL, and a value with no .value must not raise AttributeError
        with pytest.raises(ValueError, match="is not a detect.Backend"):
            measure_rm(backend, 4)


class TestComparisonTable:
    def test_gs_less_than_half_cholesky_at_64(self):
        assert formula_rm(Kind.GS, 64, 3) < formula_rm(Backend.CHOLESKY, 64) / 2

    def test_qr_and_nsa_largest_for_u16_up(self):
        for u in (16, 32, 64):
            counts = {algo: formula_rm(algo, u, 3) for algo in METHODS}
            top_two = sorted(counts, key=counts.get, reverse=True)[:2]
            assert set(top_two) == {Backend.QR, Kind.NSA}

    def test_rows_and_measured_columns(self):
        rows = list(csv.DictReader(io.StringIO(table_csv((4, 8), t=3))))
        assert len(rows) == 2 * len(METHODS)
        for row in rows:
            if row["algorithm"] in (Backend.QR.value, Backend.CHOLESKY.value, Backend.LDL.value):
                assert row["measured_rm"] == row["formula_rm"]
            else:
                assert row["measured_rm"] == ""

    def test_csv_schema(self):
        text = table_csv((8,), t=3)
        lines = text.strip().split("\n")
        assert lines[0] == "U,algorithm,t,formula_rm,measured_rm"
        chol_line = next(l for l in lines if l.startswith("8,chol"))
        assert chol_line == "8,chol,3,392,392"
        nsa_line = next(l for l in lines if l.startswith("8,nsa"))
        assert nsa_line.endswith(",")  # measured column empty for models
