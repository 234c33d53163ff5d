"""Print the answers of the benchmark's workloads, one JSON line per unit, to compare two commits.

    python3 scripts/answers.py [--tiny] > answers.jsonl
    python3 scripts/answers.py [--tiny] --against REV

Runs each train workload of ``perfbench/workloads.py`` at seeds 0-2 and
``verify-t1`` once (its input has no seed), then ``verify_theorem2`` at
its ``T2_CONFIG``, the one caller that stops the coordinate-ascent solver
on its certificate, then ``span-durp`` at seed 0: a durp train unit with
at most d/2 training points (``SPAN_DURP``), where the metric is
recovered and factored in the span of the points.  All run with the BLAS
thread count that ``perfbench/run.py`` would use (``OPENBLAS_NUM_THREADS``,
capped at the usable CPUs).  A train line holds the sha256 of alpha and of
the factor's float64 bytes, ``map``, ``knn_acc`` and ``final_gap``; the
``verify-t1`` line holds ``recovery_err``, the sha256 of the error array
(one row per m of the sweep) and ``oracle_gap``; the ``verify-t2`` line
holds the sha256 of the ``measured`` column and ``oracle_gap``.  Every line records
``blas_threads``.  Two commits give the same answers when their outputs
are equal byte for byte at the same thread count; bits may differ
between thread counts.  ``--tiny`` runs the workloads at smoke-test size,
``verify_theorem2`` on ``TINY_T2`` at m = ``TINY_T2_M`` and ``span-durp``
at ``TINY_SPAN``.

``--against REV`` makes that comparison: it extracts ``src``,
``perfbench`` and ``scripts`` of the git revision REV into a temporary
directory, runs this script there and in the working tree at each of
``AGAINST_THREADS`` OpenBLAS threads, prints every line that differs and
exits 1 if any does, 0 if all are byte-identical (2 if a run fails).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
TINY_T2 = {"d": 80, "n": 40, "n_triplets": 30, "seeds": (0, 1)}  # fields replaced in T2_CONFIG
TINY_T2_M = 64
SPAN_DURP = {"name": "span-durp", "method": "durp", "d": 1024, "n_train": 500, "n_test": 500,
             "n_triplets": 10000, "gap_target": 0.2}  # a TrainWorkload with 2 n_train <= d
TINY_SPAN = {"d": 80, "n_train": 30, "n_test": 20, "n_triplets": 100}  # fields replaced in it
AGAINST_THREADS = ("1", "2")
# numpy is imported inside the functions: the BLAS thread cap must be set before it loads


def sha256(array):
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def answers(workload, seed):
    """The answer fields of one unit of ``workload`` at ``seed``."""
    import numpy as np

    result = workload.run_unit(workload.make_inputs(seed))
    quality = workload.quality(result)
    if "recovery_err" in quality:
        errors = np.array(list(result["errors"].values()))
        return {"recovery_err": quality["recovery_err"], "errors_sha256": sha256(errors),
                "oracle_gap": result["oracle_gap"]}
    return {"alpha_sha256": sha256(result.alpha), "factor_sha256": sha256(result.factor),
            **quality}


def run_lines(root, flags, threads):
    """The output lines of ``root``'s copy of this script, or None (after its stderr) if it fails."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    run = subprocess.run([sys.executable, str(Path(root) / "scripts" / "answers.py"), *flags],
                         env=env, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(f"error: answers.py in {root} failed:\n{run.stderr}")
        return None
    return run.stdout.splitlines()


def against(rev, flags):
    """Compare the answers of ``rev`` with the working tree's; the exit status of ``--against``."""
    archive = subprocess.run(["git", "archive", rev, "src", "perfbench", "scripts"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(f"error: git archive {rev} failed:\n{archive.stderr.decode()}")
        return 2
    status = 0
    with tempfile.TemporaryDirectory(prefix="answers-") as copy:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(copy, filter="data")
        for threads in AGAINST_THREADS:
            old, new = run_lines(copy, flags, threads), run_lines(ROOT, flags, threads)
            if old is None or new is None:
                return 2
            for before, after in zip_longest(old, new):
                if before != after:
                    status = 1
                    print(f"OPENBLAS_NUM_THREADS={threads} {rev}: {before}")
                    print(f"OPENBLAS_NUM_THREADS={threads} working tree: {after}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="run the workloads at smoke-test size")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the answers of git revision REV; exit 1 if any differ")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against, ["--tiny"] if args.tiny else [])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import limit_blas_threads  # before numpy loads

    threads = limit_blas_threads()[1]
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        if args.tiny:
            workload = workloads.tiny(workload)
        seeds = SEEDS if isinstance(workload, workloads.TrainWorkload) else (None,)
        for seed in seeds:
            line = {"workload": name, "seed": seed, "blas_threads": threads,
                    **answers(workload, seed)}
            print(json.dumps(line), flush=True)
    from durp import harness

    config, m = harness.T2_CONFIG, None
    if args.tiny:
        config, m = dataclasses.replace(config, **TINY_T2), TINY_T2_M
    result = harness.verify_theorem2(config, m)
    measured = [row["measured"] for row in result["rows"]]
    line = {"workload": "verify-t2", "seed": None, "blas_threads": threads,
            "measured_sha256": sha256(measured), "oracle_gap": result["oracle_gap"]}
    print(json.dumps(line), flush=True)
    span = workloads.TrainWorkload(**SPAN_DURP)
    if args.tiny:
        span = dataclasses.replace(span, **TINY_SPAN)
    line = {"workload": span.name, "seed": 0, "blas_threads": threads, **answers(span, 0)}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
