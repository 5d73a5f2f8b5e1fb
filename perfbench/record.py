"""Regenerate ``perfbench/references.json`` from the current sources.

Usage (from the repository root): python3 perfbench/record.py

For every workload, at its full and its smoke trial count, and for the
default and the held-out seed, it runs the sweep with ONE worker and
stores the digest of its records once they equal the NumPy reference
sweep; multi-worker runs must reproduce it.
It also stores the exact real-multiplication counts of each workload's
shape. Run it only at a commit whose outputs are known to be right: a
later change must reproduce these values, not re-record them.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (1, 4242)  # the default seed and one held out from development


def main() -> int:
    import gate
    from mimodet import cli

    refs = {
        "seeds": {"default": SEEDS[0], "held_out": SEEDS[1]},
        "commit": run.read_commit(),
        "source_sha256": run.source_digest(),
        "digests": {},
        "real_mul": {},
    }
    for name, spec in run.WORKLOADS.items():
        refs["digests"][name] = {}
        for trials in (spec["trials"], run.SMOKE_TRIALS[name]):
            refs["digests"][name][str(trials)] = {}
            for seed in SEEDS:
                one = dict(spec, trials=trials, seed=seed, threads=1)
                report = run.launch("sweep", one)
                config = run.child.build_config(cli, one)
                expected = gate.reference_records(config, seed)
                problems = gate.check_rows(report["records"], expected, None)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                refs["digests"][name][str(trials)][str(seed)] = gate.digest(report["records"])
                print(f"{name} trials={trials} seed={seed}: {report['wall_s']:.1f} s",
                      file=sys.stderr)
        counts = run.launch("counts", dict(spec, seed=SEEDS[0]))["counts"]
        problems = gate.check_counts(counts, None)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        refs["real_mul"][name] = counts["real_mul"]
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
