"""Rewrite expected.json: the quality values each workload gives for each seed.

    python3 perfbench/record.py

Train workloads are recorded on seeds 0 to SEEDS - 1; the output checks
hold every seed to the worst value recorded over them.

Run only when a change is meant to move these values, and say so with
the change; the benchmark's output checks compare against this file.
"""

from __future__ import annotations

import json
import sys

from run import import_durp, limit_blas_threads


SEEDS = 32


def main():
    limit_blas_threads()
    import_durp()
    import workloads

    expected = {}
    for name, workload in workloads.WORKLOADS.items():
        # verify-t1's input does not depend on the seed: one record serves all
        seeds = range(SEEDS) if isinstance(workload, workloads.TrainWorkload) else [0]
        expected[name] = {}
        for seed in seeds:
            result = workload.run_unit(workload.make_inputs(seed))
            failures = workload.check(result)
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures}")
            expected[name][str(seed)] = workload.quality(result)
            print(name, seed, expected[name][str(seed)], flush=True)
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
