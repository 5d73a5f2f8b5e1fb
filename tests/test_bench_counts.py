"""The benchmark's count child and sweeps meet their stored references.

``perfbench/run.py`` launches ``perfbench/child.py counts`` once per
workload and gates the exact real-multiplication counts it reports. A
renamed library name or a changed solver signature would stop that
child, and so every benchmark run, while the library's own tests pass;
these tests launch the child the same way instead. The benchmark also
gates each sweep's records against a stored digest; the sweeps are run
here in process, so a change that moves a record fails here first.
``perfbench/`` is only read here.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from mimodet import cli, montecarlo  # noqa: E402

REFS = json.loads((PERFBENCH / "references.json").read_text())


@pytest.mark.parametrize("name", sorted(REFS["real_mul"]))
def test_count_child_meets_references(name):
    spec = dict(run.WORKLOADS[name], seed=REFS["seeds"]["default"])
    report = run.launch("counts", spec)  # raises ChildFailed unless the child exits 0
    assert gate.check_counts(report["counts"], REFS["real_mul"][name]) == []


@pytest.mark.parametrize("name,trials,seed", [
    (name, trials, seed) for name, by_trials in sorted(REFS["digests"].items())
    for trials, by_seed in sorted(by_trials.items()) for seed in sorted(by_seed)])
def test_sweep_records_meet_stored_digests(name, trials, seed):
    spec = dict(run.WORKLOADS[name], trials=int(trials), seed=int(seed), threads=1)
    records = montecarlo.run_sweep(child.build_config(cli, spec))
    assert gate.digest(gate.record_rows(records)) == REFS["digests"][name][trials][seed]
