"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload usps-durp --seed 0 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller
record (environment, every unit, every span) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, SpanRecorder, instrumented, unit_layer_stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5
MIN_UNITS = 3
MIN_TRACED_PAIRS = 2  # a traced run alternates untraced and traced units
TO_GAP_MAX_EPOCHS = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at smoke-test size")
    return parser.parse_args(argv)


def limit_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(nproc, int(requested)) if requested.isdigit() and int(requested) > 0 else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def import_durp():
    """Import durp from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "durp" / "__init__.py").is_file():
        raise SystemExit(f"error: no durp sources under {src}")
    sys.path.insert(0, str(src))
    import durp
    from durp import evaluate, experiments, harness
    if Path(durp.__file__).resolve().parent != (src / "durp").resolve():
        raise SystemExit(f"error: durp was imported from {durp.__file__}, not {src}")
    return {"experiments": experiments, "harness": harness, "evaluate": evaluate}


def time_import():
    """Median wall time of a fresh interpreter importing the modules a run uses."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import durp.experiments, durp.harness"],
                       env=env, check=True, timeout=120)
        times.append(time.perf_counter() - started)
    return statistics.median(times), times


def environment(args, nproc, threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "nproc": nproc, "platform": platform.platform(), "machine": platform.machine(),
    }


class Run:
    """Timed units of one workload, with their checks and failures."""

    def __init__(self, workload, inputs, expected):
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.units = []
        self.first_quality = None

    def unit(self, recorder=None, modules=None):
        from workloads import quality_failures

        record = {"traced": recorder is not None, "failures": []}
        result = None
        try:
            if recorder is None:
                started = time.perf_counter()
                result = self.workload.run_unit(self.inputs)
                record["wall_s"] = time.perf_counter() - started
            else:
                with instrumented(recorder, modules), recorder.span("unit") as span:
                    result = self.workload.run_unit(self.inputs)
                record["wall_s"] = span["end"] - span["start"]
                record["span_id"] = span["id"]
        except Exception:  # a unit that raises is a failed unit, not a crashed run
            record["wall_s"] = time.perf_counter() - started if recorder is None else None
            record["failures"].append(traceback.format_exc(limit=3))
        if result is not None:
            quality = self.workload.quality(result)
            record["quality"] = quality
            record["failures"] += self.workload.check(result)
            record["failures"] += quality_failures(self.workload.name, quality, self.expected)
            if self.first_quality is None:
                self.first_quality = quality
            elif quality != self.first_quality:
                record["failures"].append(
                    f"same inputs gave another result: {quality} vs {self.first_quality}")
        self.units.append(record)
        return record

    @property
    def failed(self):
        return sum(1 for u in self.units if u["failures"])


def median_wall(units):
    walls = [u["wall_s"] for u in units if u["wall_s"] is not None]
    return statistics.median(walls) if walls else float("nan")


def end_to_end(run, setup_s):
    return {
        "wall_s": (median_wall(run.units), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run, recorder, to_gap_s):
    traced = [u for u in run.units if u["traced"] and u.get("span_id") is not None]
    stats = [unit_layer_stats(recorder, recorder.spans[u["span_id"]]) for u in traced]

    def med(fn):
        return statistics.median(fn(s) for s in stats) if stats else float("nan")

    metrics = {f"{name}_s": (med(lambda s, n=name: s["seconds"][n]), "s") for name in LAYERS}
    metrics.update({
        "triplets.cache_mb": (med(lambda s: s["triplets.cache_mb"]), "MB"),
        "metric.recover_mb": (med(lambda s: s["metric.recover_mb"]), "MB"),
        "solver.sgd_s": (med(lambda s: s["sgd"]), "s"),
        "solver.sdca_epoch_s": (med(lambda s: s["sdca_epoch"]), "s"),
        "solver.updates_per_s": (med(lambda s: s["updates_per_s"]), "1/s"),
        "solver.to_gap_s": (to_gap_s, "s"),
        "evaluate.queries_per_s": (med(lambda s: s["queries_per_s"]), "1/s"),
        "reference.pga_calls": (med(lambda s: s["calls"]["reference.pga"]), "count"),
        "reference.pga_iters": (med(lambda s: s["pga_iters"]), "count"),
        "other_s": (med(lambda s: s["other"]), "s"),
        "trace_overhead": (median_wall(traced) / median_wall(
            [u for u in run.units if not u["traced"]]) - 1.0, "ratio"),
    })
    calls = {name: sum(s["calls"][name] for s in stats) for name in LAYERS}
    missing = [n for n in run.workload.layers if calls[n] == 0]
    not_called = [n for n in LAYERS if calls[n] == 0 and n not in run.workload.layers]
    return metrics, missing, not_called


def solve_to_gap(workload, recorder):
    """Time one extra solve on the last traced unit's cache down to the workload's gap."""
    from durp.solver import csdca_solve

    if workload.gap_target is None or recorder.last_solve_args is None:
        return 0.0, None
    cache, loss, lam, epochs, seed = recorder.last_solve_args[:5]
    with recorder.span("solver.to_gap") as span:
        solution = csdca_solve(cache, loss, lam, epochs, seed, gap_tol=workload.gap_target,
                               max_epochs=TO_GAP_MAX_EPOCHS)
    span["epochs"] = len(solution.trace)
    span["gap"] = solution.gap
    return span["end"] - span["start"], span


def main(argv=None):
    args = parse_args(argv)
    nproc, threads = limit_blas_threads()
    modules = import_durp()
    import workloads
    import_s, imports = time_import()

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    if args.tiny:
        workload = workloads.tiny(workload)
        expected = {}

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = None  # let the previous repetition's inputs go before making new ones
        inputs = workload.make_inputs(args.seed)
        workload.warm_up(inputs)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    run = Run(workload, inputs, expected)
    recorder = SpanRecorder() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace:
            run.unit()
            run.unit(recorder, modules)
            done = min(sum(u["traced"] for u in run.units),
                       sum(not u["traced"] for u in run.units))
        else:
            run.unit()
            done = len(run.units)
        if done >= (MIN_TRACED_PAIRS if args.trace else MIN_UNITS) and \
                time.perf_counter() >= deadline:
            break

    extra = {}
    if args.trace:
        try:
            to_gap_s, span = solve_to_gap(workload, recorder)
        except Exception:
            to_gap_s, span = float("nan"), None
            run.units.append({"traced": False, "wall_s": None, "to_gap": True,
                              "failures": [traceback.format_exc(limit=3)]})
        metrics, missing, not_called = per_layer(run, recorder, to_gap_s)
        if missing:
            run.units.append({"traced": True, "wall_s": None,
                              "failures": [f"layers recorded no span: {missing}"]})
        extra = {"missing": missing, "not_called": not_called, "to_gap": span,
                 "spans": recorder.spans}
    else:
        metrics = end_to_end(run, setup_s)

    attempted, failed = len(run.units), run.failed
    record = {
        "environment": environment(args, nproc, threads),
        "setup": {"import_s": imports, "inputs_and_warm_up_s": setups},
        "quality": run.first_quality,
        "units": run.units,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    tiny = "-tiny" if args.tiny else ""
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{tiny}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    for unit in run.units:
        for failure in unit["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
    if args.trace and extra["not_called"]:
        print(f"not called by this workload (reported as 0): {extra['not_called']}")
    if args.trace and extra["missing"]:
        print(f"MISSING layers (declared for this workload, no span): {extra['missing']}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
