"""The sweep engine against the benchmark's independent NumPy reference.

``perfbench/gate.py`` re-implements the sweep from its stated contract:
it forms y = H x + n and x_mf = H^H y itself, solves with LAPACK and
slices to the nearest point. The engine forms every point's matched
filter from one H^H n per trial; its records must still equal the
reference's. The reference is only read here.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from mimodet import cli, montecarlo

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gate  # noqa: E402

DETECTORS = ["zf:qr", "mmse:qr", "mmse:chol", "mmse:ldl", "nsa", "gs", "cg",
             "admin:bscale=2", "simo"]


@pytest.mark.parametrize("seed", [1, 7, 4242])
@pytest.mark.parametrize("n,u,mod", [(8, 4, "16qam"), (12, 12, "qpsk"), (64, 8, "64qam")])
def test_sweep_equals_reference(n, u, mod, seed):
    cfg = cli.build_sweep({"n": n, "u": u, "mod": mod, "snr": "0:6:24", "det": DETECTORS,
                           "trials": 9, "seed": seed, "stop_at": 40})
    cfg = dataclasses.replace(cfg, chunk_size=3)
    assert gate.record_rows(montecarlo.run_sweep(cfg)) == gate.reference_records(cfg, seed)
