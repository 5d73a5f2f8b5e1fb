"""Fast self-check of the benchmark (about 30 s on two cores).

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload in both modes with ``--smoke`` (a few trials per
point, one-second budget), and checks that the last line is a result
with every metric BENCHMARK.json names, each with its unit and a finite
value, and that the gate passed. It then feeds the gate a record with
one extra bit error, a wrong stored digest and a wrong exact count, and
checks that each is caught. Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys

import run


def check_result(name: str, trace: int, units: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    where = f"{name} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: gate did not pass: {result}")
    for metric, unit in units.items():
        got = result["metrics"].get(metric)
        if got is None or got.get("unit") != unit or not math.isfinite(got.get("value")):
            problems.append(f"{where}: metric {metric} is {got}, expected unit {unit}")
    extra = set(result["metrics"]) - set(units)
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_gate_catches() -> list[str]:
    """Negative controls: each corruption must be reported by the gate."""
    import gate
    from mimodet import cli, montecarlo

    trials = run.SMOKE_TRIALS["fig3_pool"]
    spec = dict(run.WORKLOADS["fig3_pool"], trials=trials, seed=1, threads=1)
    config = run.child.build_config(cli, spec)
    rows = gate.record_rows(montecarlo.run_sweep(config))
    expected = gate.reference_records(config, 1)
    with open(run.HERE / "references.json") as fh:
        refs = json.load(fh)
    stored = refs["digests"]["fig3_pool"][str(trials)]["1"]
    problems = []
    if gate.check_rows(rows, expected, stored):
        problems.append("gate rejects a correct sweep")
    bumped = copy.deepcopy(rows)
    bumped[0][4] += 1
    if not gate.check_rows(bumped, expected, None):
        problems.append("gate misses an extra bit error")
    if not gate.check_rows(rows, expected, "0" * 64):
        problems.append("gate misses a wrong stored digest")
    if not gate.check_rows(rows, gate.reference_records(config, 2), None):
        problems.append("gate misses records of another seed")
    counts = {"real_mul": dict(refs["real_mul"]["fig3_pool"]),
              "factor_real_mul": {"chol": 2960}, "formula_real_mul": {"chol": 2960}}
    if gate.check_counts(counts, refs["real_mul"]["fig3_pool"]):
        problems.append("gate rejects correct counts")
    counts["real_mul"]["gs"] += 1
    if not gate.check_counts(counts, refs["real_mul"]["fig3_pool"]):
        problems.append("gate misses a changed real_mul count")
    counts["factor_real_mul"]["chol"] += 1
    if len(gate.check_counts(counts, None)) != 1:
        problems.append("gate misses a factorization count off its closed form")
    return problems


def main() -> int:
    units = run.metric_table()
    problems = check_gate_catches()
    for name in run.WORKLOADS:
        for trace in (0, 1):
            problems += check_result(name, trace, units[trace])
    for p in problems:
        print(f"FAIL {p}")
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
