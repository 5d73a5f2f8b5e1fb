"""The benchmark's count child runs on this checkout and meets its references.

``perfbench/run.py`` launches ``perfbench/child.py counts`` once per
workload and gates the exact real-multiplication counts it reports. A
renamed library name or a changed solver signature would stop that
child, and so every benchmark run, while the library's own tests pass;
these tests launch the child the same way instead. ``perfbench/`` is
only read here.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import gate  # noqa: E402
import run  # noqa: E402

REFS = json.loads((PERFBENCH / "references.json").read_text())


@pytest.mark.parametrize("name", sorted(REFS["real_mul"]))
def test_count_child_meets_references(name):
    spec = dict(run.WORKLOADS[name], seed=REFS["seeds"]["default"])
    report = run.launch("counts", spec)  # raises ChildFailed unless the child exits 0
    assert gate.check_counts(report["counts"], REFS["real_mul"][name]) == []
