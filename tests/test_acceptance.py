"""Acceptance gate: eight numbered end-to-end criteria with runtime budgets.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints a ``[criterion N] PASS`` summary visible
with ``-s`` (or in the captured output of a failure).

Criterion 6 reproduces published-scale retrieval numbers when a usps
train/test pair is present (``data/usps`` + ``data/usps.t`` under the repo
root, or the ``DURP_USPS_TRAIN``/``DURP_USPS_TEST`` environment variables);
without it, the documented synthetic direction-of-effect check substitutes.
"""

import math
import os
import time
from pathlib import Path

import numpy as np

from durp import experiments
from durp.data import LabeledDataset, load_split
from durp.evaluate import knn_accuracy, ranking_map
from durp.experiments import RunConfig, run_method, train_trial
from durp.harness import T2_CONFIG, HarnessConfig, kappa, verify_theorem1, verify_theorem2
from durp.metric import psd_project
from durp.solver import LossModel, csdca_solve, dense_gram, pga_solve
from durp.synth import gaussian_blobs, isotropic_cloud
from durp.triplets import build_cache, differences, sample_active_triplets

from oracles import dense_trace_gram, gram_entry, gram_oracle, kappa_power_check
from oracles import cap_block_rows, lattice_problem, naive_knn, naive_map, with_copies

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(number, budget, started, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"[criterion {number}] PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_gram_routes_agree():
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(i)
        d = int(rng.integers(2, 21))
        n_triplets = int(rng.integers(2, 31))
        data = gaussian_blobs(d, 30, 3, seed=i)
        cache = build_cache(data, sample_active_triplets(data, n_triplets, seed=i))
        U, V = differences(cache)
        dense = dense_gram(U, V)
        trace_ref = dense_trace_gram(U, V)
        for a in range(cache.n):
            for b in range(cache.n):
                entry = gram_entry(U, V, a, b)
                kron = gram_oracle(U, V, a, b)
                scale = max(1.0, abs(trace_ref[a, b]))
                for other in (dense[a, b], kron, trace_ref[a, b]):
                    worst = max(worst, abs(entry - other) / scale)
                assert abs(entry - trace_ref[a, b]) <= 1e-9 * scale
                assert abs(entry - kron) <= 1e-9 * scale
                assert abs(entry - dense[a, b]) <= 1e-9 * scale
    _report(1, 5.0, started, f"50 instances, worst relative spread {worst:.2e}")


def test_criterion_2_solver_near_optimal_in_three_epochs():
    started = time.perf_counter()
    worst_diff = 0.0
    for loss_kind in ("hinge", "smoothed_hinge"):
        for seed in range(10):
            d = 12 + seed % 9  # p <= 20
            n_triplets = 40 + 6 * seed  # N <= 200
            data = gaussian_blobs(d, 90, 3, seed=seed, noise=0.35 / math.sqrt(2 * d))
            cache = build_cache(data, sample_active_triplets(data, n_triplets, seed=seed))
            lam = 1.0 / cache.n
            loss = LossModel(kind=loss_kind)
            solution = csdca_solve(cache, loss, lam, epochs=3, seed=seed)
            oracle = pga_solve([cache], loss, lam)
            diff = abs(solution.objective - oracle.objective[0])
            worst_diff = max(worst_diff, diff)
            assert diff <= 1e-3, f"{loss_kind} seed {seed}: off by {diff:.2e}"
            gaps = [row[2] for row in solution.trace]
            assert all(g >= -1e-12 for g in gaps)  # zero gap up to roundoff
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    _report(2, 30.0, started, f"20 instances, worst objective difference {worst_diff:.2e}")


def test_criterion_3_identity_projection_equivalence(monkeypatch):
    started = time.perf_counter()
    data = gaussian_blobs(25, 150, 3, seed=2)
    train = LabeledDataset(data.points[:, :100], data.labels[:100])
    test = LabeledDataset(data.points[:, 100:], data.labels[100:])
    config = RunConfig(method="durp", m=25, n_triplets=150, epochs=3, k=5, trials=1)
    monkeypatch.setattr(experiments, "gaussian_matrix", lambda d, m, seed: np.eye(d))
    projected = train_trial(config, train, test, 4)
    direct = train_trial(RunConfig(method="duori", n_triplets=150, epochs=3, k=5, trials=1),
                         train, test, 4)
    assert np.array_equal(projected.alpha, direct.alpha)
    assert np.array_equal(projected.metric, direct.metric)
    _report(3, 5.0, started, "alpha and metric bit-identical at m = d")


def test_criterion_4_low_rank_recovery_trend():
    started = time.perf_counter()
    result = verify_theorem1(HarnessConfig())  # d=400, r=3, n=300, N=500, 10 seeds
    medians = [row["e_median"] for row in result["rows"]]
    sweep = [row["m"] for row in result["rows"]]
    assert sweep == [5, 10, 20, 50, 100, 400]
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a + 1e-3)
    assert inversions <= 1, f"medians {medians} rose {inversions} times"
    assert medians[sweep.index(400)] <= 1e-2
    assert medians[sweep.index(50)] <= 0.5
    detail = "medians " + ", ".join(f"{m}:{e:.3g}" for m, e in zip(sweep, medians))
    _report(4, 300.0, started, detail)


def test_criterion_5_smooth_recovery_bound():
    started = time.perf_counter()
    config = T2_CONFIG
    assert (config.d, config.n, config.n_triplets, config.eta, config.gamma, config.seeds) == (
        500, 250, 200, 1e-6, 1.0, tuple(range(10)))
    result = verify_theorem2(config)
    satisfied = sum(row["satisfied"] for row in result["rows"])
    assert satisfied >= 9, f"bound held in only {satisfied}/10 seeds"

    # closed-form spectral norms against power iteration, same cache
    data = isotropic_cloud(config.d, config.n, n_classes=4, seed=config.seeds[0])
    cache = build_cache(
        data, sample_active_triplets(data, config.n_triplets, seed=config.seeds[0])
    )
    closed = kappa(*differences(cache))
    powered = max(kappa_power_check(*differences(cache)))
    assert abs(closed - powered) <= 1e-8 * max(1.0, abs(closed))
    _report(5, 300.0, started,
            f"bound held {satisfied}/10 at m={result['rows'][0]['m']}, kappa routes agree")


def _usps_paths():
    train = os.environ.get("DURP_USPS_TRAIN", REPO_ROOT / "data" / "usps")
    test = os.environ.get("DURP_USPS_TEST", REPO_ROOT / "data" / "usps.t")
    train, test = Path(train), Path(test)
    if train.is_file() and test.is_file():
        return train, test
    return None


def test_criterion_6_retrieval_beats_subspace_baseline():
    started = time.perf_counter()
    paths = _usps_paths()
    if paths is not None:
        train, test = load_split(*paths)
        base = dict(m=10, n_triplets=100000, epochs=3, loss="hinge", k=5,
                    seed=0, trials=5)
        durp, _ = run_method(RunConfig(method="durp", **base), train=train, test=test)
        srp, _ = run_method(RunConfig(method="srp", **base), train=train, test=test)
        duori, _ = run_method(RunConfig(method="duori", **base), train=train, test=test)
        assert abs(durp["map_mean"] - 0.671) <= 0.05
        assert durp["map_mean"] - srp["map_mean"] >= 0.20
        assert abs(durp["knn_mean"] - duori["knn_mean"]) <= 0.05
        detail = (f"usps: durp map {durp['map_mean']:.3f}, srp {srp['map_mean']:.3f}, "
                  f"knn durp {durp['knn_mean']:.3f} vs duori {duori['knn_mean']:.3f}")
    else:
        # direction-of-effect substitute on a matched train/test split
        data = gaussian_blobs(100, 450, 3, seed=7, noise=0.05)
        train = LabeledDataset(data.points[:, :300], data.labels[:300])
        test = LabeledDataset(data.points[:, 300:], data.labels[300:])
        base = dict(m=10, n_triplets=2000, epochs=3, loss="hinge", k=5,
                    seed=0, trials=5)
        durp, _ = run_method(RunConfig(method="durp", **base), train=train, test=test)
        srp, _ = run_method(RunConfig(method="srp", **base), train=train, test=test)
        wins = sum(d["map"] > s["map"]
                   for d, s in zip(durp["trials"], srp["trials"]))
        assert wins >= 4, f"durp beat srp in only {wins}/5 trials"
        detail = (f"substitute: durp map {durp['map_mean']:.3f} vs srp "
                  f"{srp['map_mean']:.3f}, wins {wins}/5")
    _report(6, 1200.0, started, detail)


def projected(A):
    """The dense projection L L^T from psd_project's factor L."""
    L = psd_project(A)
    return L @ L.T


def test_criterion_7_psd_projection_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    previous = None
    for _ in range(100):
        A = rng.normal(size=(20, 20))
        A = 0.5 * (A + A.T)
        P = projected(A)
        assert np.linalg.eigvalsh(P).min() >= -1e-10
        assert np.linalg.norm(projected(P) - P) <= 1e-10
        if previous is not None:
            B, Q = previous
            assert np.linalg.norm(P - Q) <= np.linalg.norm(A - B) + 1e-10
        previous = (A, P)
        dist = np.linalg.norm(A - P)
        for _ in range(100):
            g = rng.normal(size=20)
            candidate = P + abs(rng.normal()) * np.outer(g, g)
            assert dist <= np.linalg.norm(A - candidate) + 1e-10
    _report(7, 10.0, started, "idempotent, nonexpansive, Frobenius-optimal on 100 draws")


def test_criterion_8_evaluation_matches_naive(monkeypatch):
    started = time.perf_counter()
    for i in range(60):
        rng = np.random.default_rng(i)
        d = 3 + i % 6
        classes = 2 + i % 4
        n = 20 + (i * 7) % 181  # 20..200
        if i < 50:
            data = gaussian_blobs(d, n, classes, seed=i)
            B = rng.normal(size=(d, d))  # the factor of the metric B B^T
            if i % 5 == 4:  # copies of some points and a one-point class
                data = with_copies(data, seed=i)
        else:  # exact distance ties between classes
            B, data = lattice_problem(d, n, classes, seed=i)
        # two instances in three split their queries into blocks of 1 or 3 rows
        rows = (None, 1, 3)[i % 3]
        cap_block_rows(monkeypatch, rows, data.n)
        score, included, excluded = ranking_map(B, data)
        ref = naive_map(B, data.points, data.labels)
        assert (score, included, excluded) == ref
        cut = max(classes, (7 * n) // 10)
        train = LabeledDataset(data.points[:, :cut], data.labels[:cut])
        test = LabeledDataset(data.points[:, cut:], data.labels[cut:])
        k = 1 + i % 5
        cap_block_rows(monkeypatch, rows, train.n)
        acc = knn_accuracy(B, train, test, k)
        assert acc == naive_knn(B, train.points, train.labels,
                                test.points, test.labels, k)
    _report(8, 30.0, started, "mAP and k-NN equal the naive references on 60 instances")
