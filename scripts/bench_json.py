"""Write a BENCH_<n>.json from the perfbench result files of a parent and a change.

    python3 scripts/bench_json.py --parent PARENT/perfbench/results \
        --change CHANGE/perfbench/results --out BENCH_11.json

Each directory holds the ``<workload>-seed<seed>-trace<t>.json`` files that
``perfbench/run.py`` writes, one per run.  A parent file and a change file
with the same workload, seed and trace setting form a pair; run the two
sides alternately, one seed per pair.  For every workload and metric the
output gives each side's median and quartiles over its runs, the number of
pairs, and the pairs the change won (ties count for neither side).
End-to-end metrics come from untraced runs (trace 0), per-layer metrics
from traced runs (trace 1).  An end-to-end metric is marked ``unresolved``
when the parent's quartile distance exceeds its bound times the parent's
median and not every change run beats every parent run: a difference
inside that spread cannot be told from run-to-run noise.  The environment
block of each side keeps the fields its runs share (the seed and workload
differ).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load_runs(folder):
    """{(workload, trace): {seed: record}} for every result file in ``folder``."""
    runs = {}
    for path in sorted(Path(folder).glob("*.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match is None:  # e.g. a --tiny run
            continue
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, {})[int(match["seed"])] = json.loads(path.read_text())
    if not runs:
        raise ValueError(f"no perfbench result files in {folder}")
    return runs


def spread(values):
    """Median and quartiles of a list of run values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def compare(parent, change, metric, better, bound=None):
    """One metric of one workload: both sides' spread, the pairs and who won them.

    With a ``bound`` (end-to-end metrics) the entry also holds the bound and
    whether the parent's spread leaves the metric ``unresolved``.
    """
    def value(record):
        return record["metrics"][metric]["value"]

    def beats(a, b):
        return a < b if better == "lower" else a > b

    paired = sorted(set(parent) & set(change))
    won = sum(1 for s in paired if beats(value(change[s]), value(parent[s])))
    before = [value(r) for r in parent.values()]
    after = [value(r) for r in change.values()]
    entry = {
        "unit": next(iter(parent.values()))["metrics"][metric]["unit"],
        "better": better,
        "parent": spread(before),
        "change": spread(after),
        "pairs": len(paired),
        "pairs_won": won,
    }
    if bound is not None:
        base = entry["parent"]
        wide = base["q3"] - base["q1"] > bound * abs(base["median"])
        entry["bound"] = bound
        entry["unresolved"] = wide and not all(beats(a, b) for a in after for b in before)
    return entry


def failures(side):
    units = [u for record in side.values() for u in record["units"]]
    return {"attempted": len(units), "failed": sum(1 for u in units if u["failures"])}


def shared_environment(runs):
    """The environment fields every run of one side agrees on."""
    envs = [record["environment"] for side in runs.values() for record in side.values()]
    return {k: v for k, v in envs[0].items() if all(e.get(k) == v for e in envs)}


def bench(parent_runs, change_runs, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            parent = parent_runs.get((workload, trace), {})
            change = change_runs.get((workload, trace), {})
            if not parent or not change:
                continue
            metrics = {}
            for m in spec[section]:
                metrics[m["name"]] = compare(parent, change, m["name"], directions[m["name"]],
                                             bounds.get(m["name"]))
            entry[section] = metrics
            entry[f"{section}_seeds"] = sorted(set(parent) & set(change))
            entry[f"{section}_units"] = {"parent": failures(parent), "change": failures(change)}
        if entry:
            workloads[workload] = entry
    return {
        "environment": {"parent": shared_environment(parent_runs),
                        "change": shared_environment(change_runs)},
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="result files of the parent commit")
    parser.add_argument("--change", required=True, help="result files of the change")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        out = bench(load_runs(args.parent), load_runs(args.change), spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
