"""The four workloads: inputs made from a seed, one unit of work, output checks.

A unit of work is one ``experiments.train_trial`` call (sample, cache,
project, solve, recover, PSD, evaluate) for a train workload, or one
``harness.verify_theorem1`` call for ``verify-t1``.  Every unit of a run
gets the same inputs, so its outputs must repeat exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from durp import experiments, harness, synth
from durp.data import LabeledDataset

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# How far a quality value may fall behind its reference before the unit
# fails.  The reference is the worst value recorded over all seeds in
# expected.json, whatever the seed, because the values spread across seeds
# (knn_acc by up to 30% of its worst value, final_gap by up to 40%) more than any
# tolerance narrow enough to catch a worse metric: a change of the sampler's
# random stream moves a seed anywhere in that spread.  Only the worse
# direction counts.
QUALITY_TOL = {"map": 0.10, "knn_acc": 0.10, "final_gap": 0.25, "recovery_err": 0.10}
HIGHER_IS_BETTER = ("map", "knn_acc")

PSD_TOL = 1e-9
ORACLE_GAP = 1e-9  # the gap verify_theorem1 asks of its oracle solve

TRAIN_LAYERS = ("triplets.sample", "triplets.cache", "triplets.project", "projection.build",
                "solver.solve", "metric.recover", "metric.psd", "evaluate.map", "evaluate.knn")


@dataclass(frozen=True)
class TrainWorkload:
    """A synthetic train/test split from ``gaussian_blobs`` and one method."""

    name: str
    method: str
    d: int
    n_train: int
    n_test: int
    n_triplets: int
    gap_target: float  # duality gap G that ``solver.to_gap_s`` solves to
    layers: tuple = TRAIN_LAYERS

    def make_inputs(self, seed):
        data = synth.gaussian_blobs(self.d, self.n_train + self.n_test, 10, seed, noise=0.05)
        train = LabeledDataset(data.points[:, :self.n_train], data.labels[:self.n_train])
        test = LabeledDataset(data.points[:, self.n_train:], data.labels[self.n_train:])
        config = experiments.RunConfig(method=self.method, m=10, n_triplets=self.n_triplets,
                                       epochs=3, k=5, seed=seed, trials=1)
        return config, train, test

    def warm_up(self, inputs):
        """One small trial on a slice of the inputs: first calls, BLAS threads."""
        config, train, test = inputs
        n_tr, n_te = min(train.n, 500), min(test.n, 200)
        small = replace(config, n_triplets=min(config.n_triplets, 300))
        experiments.train_trial(
            small,
            LabeledDataset(train.points[:, :n_tr], train.labels[:n_tr]),
            LabeledDataset(test.points[:, :n_te], test.labels[:n_te]),
            config.seed,
        )

    def run_unit(self, inputs):
        config, train, test = inputs
        return experiments.train_trial(config, train, test, config.seed)

    def quality(self, result):
        return {
            "map": result.report.map_score,
            "knn_acc": result.report.knn_accuracy,
            "final_gap": float(result.solver_trace[-1][2]),
        }

    def check(self, result):
        """Failures of the learned metric itself: finite, symmetric, PSD."""
        M = result.metric
        if not np.all(np.isfinite(M)):
            return ["metric has non-finite entries"]
        scale = max(float(np.abs(M).max()), 1e-300)
        failures = []
        if float(np.abs(M - M.T).max()) > 1e-12 * scale:
            failures.append("metric is not symmetric")
        lowest = float(np.linalg.eigvalsh(M)[0])
        if lowest < -PSD_TOL * scale:
            failures.append(f"metric is not PSD (lowest eigenvalue {lowest:.3e})")
        return failures


@dataclass(frozen=True)
class TheoremWorkload:
    """``verify_theorem1`` on a fixed harness config; the seed does not enter it."""

    name: str
    config: harness.HarnessConfig
    exact_err: float | None = 1e-2  # criterion 4's ceiling on the error at m = d
    layers: tuple = ("triplets.sample", "triplets.cache", "triplets.project",
                     "projection.build", "metric.recover", "metric.psd", "reference.pga")
    gap_target: float | None = None

    def make_inputs(self, seed):
        return self.config

    def warm_up(self, inputs):
        harness.verify_theorem1(replace(inputs, m_sweep=inputs.m_sweep[:1], seeds=inputs.seeds[:1]))

    def run_unit(self, inputs):
        return harness.verify_theorem1(inputs)

    def quality(self, result):
        medians = [row["e_median"] for row in result["rows"]]
        return {"recovery_err": float(np.mean(medians))}

    def check(self, result):
        """Criterion 4's trend: medians fall with m (one rise allowed), exact at m = d."""
        medians = [row["e_median"] for row in result["rows"]]
        failures = []
        if not result["oracle_gap"] <= ORACLE_GAP:
            failures.append(f"oracle gap {result['oracle_gap']:.3e} above {ORACLE_GAP:.0e}")
        rises = sum(1 for a, b in zip(medians, medians[1:]) if b > a + 1e-3)
        if rises > 1:
            failures.append(f"recovery error rose {rises} times along the m-sweep: {medians}")
        if (self.exact_err is not None and result["rows"][-1]["m"] == self.config.d
                and medians[-1] > self.exact_err):
            failures.append(f"recovery error {medians[-1]:.3e} at m = d exceeds {self.exact_err}")
        return failures


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        TrainWorkload(
            name="usps-durp",
            method="durp", d=256, n_train=7291, n_test=2007, n_triplets=25000,
            gap_target=0.05),
        TrainWorkload(
            name="wide-durp",
            method="durp", d=1024, n_train=3000, n_test=1000, n_triplets=12000,
            gap_target=0.2),
        TrainWorkload(
            name="orig-duori",
            method="duori", d=256, n_train=2000, n_test=1000, n_triplets=3500,
            gap_target=0.02,
            layers=tuple(x for x in TRAIN_LAYERS
                         if x not in ("triplets.project", "projection.build"))),
        TheoremWorkload(
            name="verify-t1",
            config=harness.HarnessConfig()),
    )
}


def tiny(workload):
    """The same workload at a size that runs in about a second (smoke test)."""
    if isinstance(workload, TrainWorkload):
        return replace(workload, d=32, n_train=300, n_test=100, n_triplets=600)
    # too few points for criterion 4's exactness at m = d; the trend still holds
    return replace(workload, exact_err=None, config=harness.HarnessConfig(
        d=200, n=100, n_triplets=200, m_sweep=(5, 20, 200), seeds=(0, 1, 2)))


def load_expected():
    if not EXPECTED_FILE.is_file():
        return {}
    return json.loads(EXPECTED_FILE.read_text())


def quality_failures(name, values, expected):
    """Quality values that fell behind their reference (see ``QUALITY_TOL``)."""
    records = expected.get(name, {}).values()
    failures = []
    for key, value in values.items():
        if not math.isfinite(value):
            failures.append(f"{key} is not finite")
            continue
        if not records:
            continue
        higher = key in HIGHER_IS_BETTER
        ref = (min if higher else max)(r[key] for r in records)
        limit = ref * (1 - QUALITY_TOL[key]) if higher else ref * (1 + QUALITY_TOL[key])
        if (value < limit) if higher else (value > limit):
            failures.append(f"{key} {value:.6g} is worse than {limit:.6g} "
                            f"(worst recorded {ref:.6g}, tolerance {QUALITY_TOL[key]:.0%})")
    return failures
