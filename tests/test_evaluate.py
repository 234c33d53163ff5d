"""Squared-distance blocks, retrieval and k-NN scoring against loop-based references."""

import json
import tracemalloc

import numpy as np
import pytest

from durp import evaluate
from durp.cli import main
from durp.data import LabeledDataset, save_metric
from durp.evaluate import evaluate_metric, knn_accuracy, ranking_map, sq_distance_blocks
from durp.synth import gaussian_blobs

from oracles import (
    argsort_map,
    cap_block_rows,
    lattice_problem,
    naive_knn,
    naive_map,
    naive_sq_distance,
    planted_tie_problem,
    serialize_libsvm,
    three_block_sq_distances,
    with_copies,
)

BLOCK_ROWS = (None, 1, 3)  # None: the default cap; 1 and 3 rows split every query set


def assembled(X, Y=None):
    blocks = list(sq_distance_blocks(X, Y))
    assert [rows.start for rows, _ in blocks] == list(range(0, X.shape[1], blocks[0][1].shape[0]))
    return np.vstack([D for _, D in blocks]), len(blocks)


def test_metric_distance_and_pairwise(monkeypatch):
    rng = np.random.default_rng(4)
    L = rng.normal(size=(5, 3))  # the factor of the metric L L^T
    X = rng.normal(size=(5, 7))
    Y = rng.normal(size=(5, 4))
    for rows in (None, 1, 3):
        cap_block_rows(monkeypatch, rows, 4)
        D, _ = assembled(L.T @ X, L.T @ Y)
        assert D.shape == (7, 4)
        for i in range(7):
            for j in range(4):
                ref = naive_sq_distance(L, X[:, i], Y[:, j])
                assert abs(D[i, j] - ref) < 1e-9 * (abs(ref) + 1.0)
        # one-argument form: self-distances vanish
        cap_block_rows(monkeypatch, rows, 7)
        D_self, _ = assembled(L.T @ X)
        assert D_self.shape == (7, 7)
        assert np.abs(np.diag(D_self)).max() < 1e-9


def test_pairwise_distances_bytes_match_three_block_expression():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(16, 90))
    Y = rng.normal(size=(16, 40))
    for args in ((X, Y), (X,)):
        D, n_blocks = assembled(*args)
        assert n_blocks == 1  # the default cap holds this shape whole
        assert D.tobytes() == three_block_sq_distances(*args).tobytes()


def random_factor(rng, d):
    """A d x d factor B of the metric B B^T."""
    return rng.normal(size=(d, d))


def map_cases():
    """(B, data, excluded): blobs, blobs with copies and a singleton class, lattices.

    In a lattice nearly every row ties; in a planted-tie problem one row
    ties across classes among rows that strictly increase, in one block.
    """
    for seed in range(8):
        rng = np.random.default_rng(seed)
        data = gaussian_blobs(5, 30, 3, seed=seed)
        B = random_factor(rng, 5)
        yield B, data, 0
        yield B, with_copies(data, seed=seed), 1
        B, data = lattice_problem(4, 40, 3, seed=seed)
        yield B, data, None
        B, data = planted_tie_problem(4, 80, 3, seed=seed)
        yield B, data, None


def neighbour_ties(B, data):
    """Per query row, the equal neighbours among its sorted distances to the other points."""
    dist = next(sq_distance_blocks(B.T @ data.points))[1]
    dist[np.arange(data.n), np.arange(data.n)] = -np.inf
    ranked = np.sort(dist, axis=1)
    return np.count_nonzero(ranked[:, 1:] == ranked[:, :-1], axis=1)


def test_ranking_map_matches_naive(monkeypatch):
    for B, data, expected_excluded in map_cases():
        ref_score, ref_inc, ref_exc = naive_map(B, data.points, data.labels)
        if expected_excluded is not None:
            assert ref_exc == expected_excluded
        for rows in BLOCK_ROWS:
            cap_block_rows(monkeypatch, rows, data.n)
            assert ranking_map(B, data) == (ref_score, ref_inc, ref_exc)


def test_planted_ties_share_blocks_with_increasing_rows():
    for seed in range(8):
        B, data = planted_tie_problem(4, 80, 3, seed=seed)
        ties = neighbour_ties(B, data)
        assert ties[0] > 0
        assert np.count_nonzero(ties) < data.n // 2


def test_a_signed_zero_tie_takes_the_stable_order(monkeypatch):
    # the distance route never computes -0.0 (it subtracts from a sum of
    # squares), so one is put in: a row with a +0.0 and a -0.0 still ties
    B, data = planted_tie_problem(4, 80, 3, seed=0)
    q = 3
    other = (data.labels[q] + 1) % 3
    data = LabeledDataset(np.hstack([data.points, data.points[:, [q, q]]]),
                          np.concatenate([data.labels, [other, data.labels[q]]]))
    assert neighbour_ties(B, data)[q] == 1  # the copies' zeros are the row's one tie
    real = evaluate.sq_distance_blocks

    def negative_zero(X):
        for rows, dist in real(X):
            if rows.start <= q < rows.start + len(dist):
                assert dist[q - rows.start, -1] == 0.0
                dist[q - rows.start, -1] = -0.0
            yield rows, dist

    ref = naive_map(B, data.points, data.labels)
    monkeypatch.setattr(evaluate, "sq_distance_blocks", negative_zero)
    for rows in BLOCK_ROWS:
        cap_block_rows(monkeypatch, rows, data.n)
        assert ranking_map(B, data) == ref


def test_ranking_map_matches_the_argsort_oracle_at_a_mid_shape():
    # 600 points, where naive_map would spend seconds per case in Python loops
    rng = np.random.default_rng(0)
    data = gaussian_blobs(16, 600, 10, seed=0)
    L = rng.normal(size=(16, 8))
    for case in (data, with_copies(data, seed=0)):
        assert ranking_map(L, case) == argsort_map(L, case)
    B, lattice = lattice_problem(16, 600, 10, seed=0)
    assert ranking_map(B[:, :8], lattice) == argsort_map(B[:, :8], lattice)


def test_ranking_map_excludes_singleton_classes():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(3, 5))
    labels = np.array([0, 0, 1, 1, 2])  # class 2 has a single member
    data = LabeledDataset(points, labels)
    M = np.eye(3)
    score, included, excluded = ranking_map(M, data)
    assert included == 4
    assert excluded == 1
    ref = naive_map(M, points, labels)
    assert (score, included, excluded) == ref


def test_ranking_map_validation():
    rng = np.random.default_rng(1)
    train = gaussian_blobs(2, 12, 3, seed=1)
    one = LabeledDataset(rng.normal(size=(2, 1)), np.array([0]))
    with pytest.raises(ValueError, match="two test points"):
        evaluate_metric(np.eye(2), train, one, 3)
    singletons = LabeledDataset(rng.normal(size=(2, 3)), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="same-class candidate"):
        evaluate_metric(np.eye(2), train, singletons, 3)


def test_evaluate_refuses_an_unrankable_test_set_before_knn(monkeypatch):
    def never(*args):
        raise AssertionError("k-NN ran")

    monkeypatch.setattr("durp.evaluate.knn_accuracy", never)
    train = gaussian_blobs(2, 12, 3, seed=3)
    singletons = LabeledDataset(train.points[:, :3], train.labels[:3])
    with pytest.raises(ValueError, match="same-class candidate"):
        evaluate_metric(np.eye(2), train, singletons, 3)


def knn_cases():
    """(B, train, test): blobs, then blobs with copies and a singleton class, lattices."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        train = gaussian_blobs(4, 40, 3, seed=seed)
        test = gaussian_blobs(4, 15, 3, seed=seed + 100)
        B = random_factor(rng, 4)
        yield B, train, test
        yield B, with_copies(train, seed=seed), with_copies(test, seed=seed + 100)
        B, data = lattice_problem(3, 60, 3, seed=seed)
        yield B, LabeledDataset(data.points[:, :45], data.labels[:45]), \
            LabeledDataset(data.points[:, 45:], data.labels[45:])


def test_knn_matches_naive(monkeypatch):
    for B, train, test in knn_cases():
        for k in (1, 3, 5):
            ref = naive_knn(B, train.points, train.labels, test.points, test.labels, k)
            for rows in BLOCK_ROWS:
                cap_block_rows(monkeypatch, rows, train.n)
                assert knn_accuracy(B, train, test, k) == ref


def test_knn_distance_tie_prefers_smaller_train_index():
    # two training points equidistant from the query; index 0 must win
    train = LabeledDataset(
        np.array([[1.0, -1.0, 5.0]]), np.array([1, 0, 0])
    )
    test = LabeledDataset(np.array([[0.0]]), np.array([1]))
    assert knn_accuracy(np.eye(1), train, test, 1) == 1.0
    flipped = LabeledDataset(np.array([[1.0, -1.0, 5.0]]), np.array([0, 1, 1]))
    assert knn_accuracy(np.eye(1), flipped, test, 1) == 0.0


def test_knn_vote_tie_prefers_smallest_class():
    # k=2 sees one vote for class 0 and one for class 1; class 0 must win
    train = LabeledDataset(
        np.array([[0.5, 1.5, 9.0]]), np.array([1, 0, 0])
    )
    test = LabeledDataset(np.array([[1.0, 1.0]]), np.array([0, 1]))
    acc = knn_accuracy(np.eye(1), train, test, 2)
    assert acc == 0.5  # query labeled 0 is right, query labeled 1 is wrong


def test_knn_validation():
    train = gaussian_blobs(3, 10, 2, seed=0)
    test = gaussian_blobs(3, 4, 2, seed=1)
    with pytest.raises(ValueError, match=r"k must be in \[1, 10\]"):
        evaluate_metric(np.eye(3), train, test, 0)
    with pytest.raises(ValueError, match=r"k must be in \[1, 10\]"):
        evaluate_metric(np.eye(3), train, test, 11)
    wide = gaussian_blobs(4, 4, 2, seed=2)
    with pytest.raises(ValueError, match="dimensions differ"):
        evaluate_metric(np.eye(3), train, wide, 1)


def test_eval_report_round_trip(tmp_path):
    train = gaussian_blobs(4, 30, 3, seed=3)
    test = gaussian_blobs(4, 12, 3, seed=4)
    report = evaluate_metric(np.eye(4), train, test, k=3)
    train_path, test_path, out = tmp_path / "train.svm", tmp_path / "test.svm", tmp_path / "out"
    train_path.write_text(serialize_libsvm(train))
    test_path.write_text(serialize_libsvm(test))
    save_metric(tmp_path / "M.bin", np.eye(4))
    assert main(["eval", "--metric-file", str(tmp_path / "M.bin"), "--train-file", str(train_path),
                 "--test-file", str(test_path), "--k", "3", "--out", str(out)]) == 0
    back = json.loads(out.read_text())
    assert back == {"map": report.map_score, "knn_accuracy": report.knn_accuracy, "k": 3,
                    "n_queries": report.n_queries, "excluded_queries": report.excluded_queries}
    assert report.n_queries + report.excluded_queries == test.n


def test_evaluate_rejects_non_finite_metric():
    train = gaussian_blobs(4, 30, 3, seed=3)
    test = gaussian_blobs(4, 12, 3, seed=4)
    for bad in (np.nan, np.inf, -np.inf):
        for L in (np.eye(4), np.eye(4)[:, :2], np.ones((4, 1))):
            L = L.copy()
            L[-1, -1] = bad
            with pytest.raises(ValueError, match="metric has non-finite entries"):
                evaluate_metric(L, train, test, k=3)


def test_evaluation_memory_stays_below_half_a_distance_matrix():
    # one full test x train float64 block is 61 MiB at this shape
    d, n_train, n_test = 32, 8000, 1000
    rng = np.random.default_rng(0)
    train = LabeledDataset(rng.normal(size=(d, n_train)), np.arange(n_train) % 10)
    test = LabeledDataset(rng.normal(size=(d, n_test)), np.arange(n_test) % 10)
    B = random_factor(rng, d)
    tracemalloc.start()
    try:
        report = evaluate_metric(B, train, test, k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_queries == n_test
    assert peak < n_test * n_train * 8 / 2, f"peak {peak / 2**20:.1f} MiB"
