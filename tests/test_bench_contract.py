"""The benchmark's tracer still reaches every layer it measures.

``perfbench/tracing.py`` wraps module attributes of the library by name.
A renamed function, or a solver bound at import time instead of looked
up at call time, would leave its per-layer metrics silently at zero;
these tests make that a test failure instead. The tracer is only read
here, and every attribute it replaces is restored after each test.
"""

import concurrent.futures as cf
import dataclasses
import sys
from pathlib import Path

import pytest

from conftest import pin_usable_cpus
from mimodet import cli, detect, montecarlo, phy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

# the module each target table patches, as in Tracer.install_full
PATCHED = {
    "CLI_TARGETS": cli,
    "MONTECARLO_TARGETS": montecarlo,
    "DETECT_TARGETS": detect,
    "PHY_TARGETS": phy,
}


def test_every_target_table_is_known():
    tables = {name for name in vars(tracing) if name.endswith("_TARGETS")}
    assert tables == set(PATCHED)


@pytest.mark.parametrize("table", sorted(PATCHED))
def test_target_attributes_exist(table):
    module = PATCHED[table]
    for attr, _ in getattr(tracing, table):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_sweep_records_every_solver_and_factor(monkeypatch):
    for table, module in PATCHED.items():
        for attr, _ in getattr(tracing, table):
            monkeypatch.setattr(module, attr, getattr(module, attr))  # restored on exit
    tracer = tracing.Tracer()
    tracer.install_full(cli, montecarlo, detect, phy)
    cfg = cli.build_sweep({
        "n": 8, "u": 4, "mod": "qpsk", "snr": "6", "trials": 2, "seed": 1,
        "threads": 1, "det": ["mmse:qr", "mmse:chol", "nsa", "gs", "cg", "admin", "simo"],
    })
    montecarlo.run_sweep(cfg)
    assert tracer.missing == []
    names = {span[0] for span in tracer.spans}
    for solver in tracing.SOLVERS:
        assert f"detect.solve.{solver}" in names
    for factor in tracing.FACTORS:
        assert f"decomp.factor.{factor}" in names
    assert {"cli.build_sweep", "montecarlo.sweep", "phy.realize", "phy.slice",
            "detect.gramian", "detect.matched_filter", "decomp.trisolve"} <= names


def test_pool_tracer_reads_every_chunk_and_wait(monkeypatch):
    # the pool tracer reads each chunk's trial count from the arguments
    # the engine submits, and times the parent's waits for results
    for module, attr in ((montecarlo, "run_sweep"), (cf, "ProcessPoolExecutor"), (cf, "wait")):
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored on exit
    pin_usable_cpus(monkeypatch, 2)  # a pool of 2 on any machine
    tracer = tracing.Tracer()
    tracer.install_pool(montecarlo)
    cfg = cli.build_sweep({
        "n": 8, "u": 2, "mod": "qpsk", "snr": "0,6", "det": ["mmse"], "trials": 25,
        "seed": 1, "stop_at": 0, "threads": 2,
    })
    montecarlo.run_sweep(dataclasses.replace(cfg, chunk_size=10))
    assert tracer.missing == []
    assert tracer.submitted_trials == [10, 10, 5]
    assert any(span[0] == "montecarlo.pool_wait" for span in tracer.spans)
