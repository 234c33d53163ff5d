"""Training pipelines: per-method behavior, identity reduction, aggregation."""

import json
import tracemalloc

import numpy as np
import pytest

from durp import experiments
from durp.data import LabeledDataset, load_split, pca_fit
from durp.evaluate import evaluate_metric
from durp.experiments import METHODS, RunConfig, run_method, train_trial
from durp.solver import LossModel, csdca_solve, recover_metric
from durp.synth import gaussian_blobs, margin_gapped_blobs
from durp.triplets import build_cache, gaussian_matrix, project_cache, sample_active_triplets

from oracles import dense_factor, dense_subspace_metric, nuisance_blobs, serialize_libsvm


def split_blobs(d=8, n=80, seed=0):
    """Train/test with shared class means: one draw, split by columns."""
    data = gaussian_blobs(d, n, 3, seed=seed)
    cut = (2 * n) // 3
    train = LabeledDataset(data.points[:, :cut], data.labels[:cut])
    test = LabeledDataset(data.points[:, cut:], data.labels[cut:])
    return train, test


def small_config(method, **kw):
    base = dict(method=method, m=4, n_triplets=40, epochs=3, k=3, seed=0, trials=2)
    base.update(kw)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ValueError, match="method must be one of"):
        RunConfig(method="lmnn")
    with pytest.raises(ValueError, match="m must be positive"):
        small_config("durp", m=0)
    with pytest.raises(ValueError, match="n_triplets must be positive"):
        small_config("durp", n_triplets=0)
    with pytest.raises(ValueError, match="epochs"):
        small_config("durp", epochs=0)
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            small_config("durp", lam=lam)
    with pytest.raises(ValueError, match="trials"):
        small_config("durp", trials=0)
    with pytest.raises(ValueError, match="k must be positive"):
        small_config("durp", k=0)
    with pytest.raises(ValueError, match="loss kind"):
        small_config("durp", loss="logistic")
    with pytest.raises(ValueError, match="gamma"):
        small_config("durp", loss="smoothed_hinge", gamma=0.0)


def test_each_method_produces_a_usable_metric():
    train, test = split_blobs()
    for method in METHODS:
        result = train_trial(small_config(method), train, test, trial_seed=1)
        M = result.metric
        assert M.shape == (train.d, train.d)
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() >= -1e-10
        assert 0.0 <= result.report.map_score <= 1.0
        assert 0.0 <= result.report.knn_accuracy <= 1.0
        assert len(result.solver_trace) == 3
        if method in ("srp", "spca"):
            # subspace methods cannot exceed rank m
            rank = np.linalg.matrix_rank(M, tol=1e-10)
            assert rank <= 4


def test_durp_beats_reducing_the_dimension_first():
    # the paper's claim: where a high-variance nuisance subspace hides the
    # classes, PCA first (spca) keeps the nuisance and lands at chance, while
    # durp learns past the Euclidean metric.  knn_acc only: at this size durp's
    # map (0.13-0.19) barely clears the identity's (0.12), and srp beats durp
    # at seed 0, so neither is asserted
    margin = 0.2
    for seed in (0, 1, 2):
        data = nuisance_blobs(256, 900, seed)
        train = LabeledDataset(data.points[:, :600], data.labels[:600])
        test = LabeledDataset(data.points[:, 600:], data.labels[600:])
        identity = evaluate_metric(np.eye(256), train, test, k=5).knn_accuracy
        durp, spca = [train_trial(RunConfig(method=method, m=10, n_triplets=3000, epochs=3),
                                  train, test, seed).report.knn_accuracy
                      for method in ("durp", "spca")]
        assert durp >= max(identity, spca) + margin, (seed, durp, identity, spca)


def test_identity_override_reduces_durp_to_duori(monkeypatch):
    train, test = split_blobs(seed=3)
    monkeypatch.setattr(experiments, "gaussian_matrix", lambda d, m, seed: np.eye(d))
    durp = train_trial(small_config("durp"), train, test, 5)
    duori = train_trial(small_config("duori"), train, test, 5)
    assert np.array_equal(durp.alpha, duori.alpha)
    assert np.array_equal(durp.metric, duori.metric)


def test_identity_override_reduces_durp_to_duori_in_the_span(monkeypatch):
    # 30 training points at d = 80: both methods recover in the span of the points
    train, test = split_blobs(d=80, n=45, seed=3)
    monkeypatch.setattr(experiments, "gaussian_matrix", lambda d, m, seed: np.eye(d))
    durp = train_trial(small_config("durp"), train, test, 5)
    duori = train_trial(small_config("duori"), train, test, 5)
    assert durp.alpha.tobytes() == duori.alpha.tobytes()
    assert durp.factor.tobytes() == duori.factor.tobytes()


def trial_and_dense_factor(method, train, test, seed):
    """One trial and the factor of its alpha recovered and projected at d x d."""
    config = small_config(method, trials=1)
    result = train_trial(config, train, test, seed)
    cache = build_cache(train, sample_active_triplets(train, config.n_triplets, seed))
    return result, dense_factor(result.alpha, cache, 1.0 / cache.n)


def test_span_recovery_matches_the_dense_route():
    # with 2n <= d the metric is recovered and factored at size n in the
    # coordinates of the points' thin QR: the d x d route up to rounding
    gapped = margin_gapped_blobs(60, 3, 36, seed=0)  # rank 3, 24 training points
    splits = {
        "full rank": split_blobs(d=120, n=60, seed=13),
        "rank 3": (LabeledDataset(gapped.points[:, :24], gapped.labels[:24]),
                   LabeledDataset(gapped.points[:, 24:], gapped.labels[24:])),
    }
    for name, (train, test) in splits.items():
        assert 2 * train.n <= train.d
        for method in ("durp", "duori"):
            result, L = trial_and_dense_factor(method, train, test, 3)
            M = L @ L.T
            assert np.linalg.norm(result.metric - M) <= 1e-12 * np.linalg.norm(M), (name, method)
            assert result.factor.shape == L.shape, (name, method)
            dense = evaluate_metric(L, train, test, k=3)
            assert result.report.map_score == dense.map_score, (name, method)
            assert result.report.knn_accuracy == dense.knn_accuracy, (name, method)
        if name == "rank 3":
            assert result.factor.shape[1] <= 3


def test_the_route_is_chosen_by_2n_le_d(monkeypatch):
    # at 2n = d the metric is factored at size n; one point more and the
    # dense d x d route runs with its bits
    sizes = []
    project = experiments.psd_project
    monkeypatch.setattr(experiments, "psd_project", lambda M: sizes.append(len(M)) or project(M))
    for n_points, n_train in ((60, 40), (62, 41)):
        train, test = split_blobs(d=80, n=n_points, seed=14)
        assert train.n == n_train
        for method in ("durp", "duori"):
            result, L = trial_and_dense_factor(method, train, test, 2)
            if n_train == 41:
                assert result.factor.tobytes() == L.tobytes(), method
    assert sizes == [40, 40, 80, 80]  # durp and duori at n = 40, then at n = 41


def test_span_route_allocates_nothing_of_size_d_by_d():
    # d = 1024 with 100 training points: the dense route's d x d metric alone
    # would be 8 MiB
    d = 1024
    train, test = split_blobs(d=d, n=150, seed=15)
    config = RunConfig(method="durp", m=10, n_triplets=2000, epochs=3, k=5, trials=1)
    tracemalloc.start()
    try:
        train_trial(config, train, test, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8, f"peak {peak / 2**20:.1f} MiB"


def test_spca_default_projection_is_the_pca_basis(monkeypatch):
    train, test = split_blobs(seed=4)
    auto = train_trial(small_config("spca"), train, test, 2)
    monkeypatch.setattr(experiments, "gaussian_matrix", lambda d, m, seed: pca_fit(train, m)[0])
    explicit = train_trial(small_config("srp"), train, test, 2)
    assert np.array_equal(auto.metric, explicit.metric)


def test_subspace_metric_is_the_pushed_back_subspace_solve():
    # factored at size m in R's QR coordinates, the metric is the projection
    # of the d x d lift R M_s R^T up to rounding, and its rank is at most m
    train, test = split_blobs(seed=9)
    for method in ("srp", "spca"):
        config = small_config(method, seed=6, trials=1)
        report, (result,) = run_method(config, train, test)
        cache = build_cache(train, sample_active_triplets(train, config.n_triplets, 6))
        if method == "srp":
            R = gaussian_matrix(train.d, config.m, 6)
        else:
            R = pca_fit(train, config.m)[0]
        space = project_cache(cache, R)
        solution = csdca_solve(space, LossModel("hinge"), 1.0 / cache.n, config.epochs, 6)
        assert np.array_equal(result.alpha, solution.alpha)
        lifted = dense_subspace_metric(R, recover_metric(solution.alpha, space, 1.0 / cache.n))
        assert np.linalg.norm(result.metric - lifted) <= 1e-10 * np.linalg.norm(lifted)
        assert 0 < report["trials"][0]["metric_rank"] == result.factor.shape[1] <= config.m


def test_subspace_metric_ignores_the_signs_of_the_basis_columns(monkeypatch):
    # negating a column of R negates one row of the projected points exactly,
    # so neither the dual solution nor R M_s R^T moves by a bit
    train, test = split_blobs(seed=10)
    signs = np.array([-1.0, 1.0, -1.0, -1.0])
    fit, draw = experiments.pca_fit, experiments.gaussian_matrix
    for method in ("srp", "spca"):
        plain = train_trial(small_config(method), train, test, 4)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "pca_fit", lambda data, k: (fit(data, k)[0] * signs, None))
            patch.setattr(experiments, "gaussian_matrix",
                          lambda d, m, seed: draw(d, m, seed) * signs)
            flipped = train_trial(small_config(method), train, test, 4)
        assert np.array_equal(plain.alpha, flipped.alpha)
        assert np.array_equal(plain.metric, flipped.metric)


def test_run_method_aggregates_trials():
    train, test = split_blobs(seed=5)
    config = small_config("srp", trials=3, seed=11)
    report, results = run_method(config, train=train, test=test)
    assert report["method"] == "srp"
    assert [t["seed"] for t in report["trials"]] == [11, 12, 13]
    maps = [t["map"] for t in report["trials"]]
    assert report["map_mean"] == pytest.approx(np.mean(maps), abs=1e-12)
    assert report["map_std"] == pytest.approx(np.std(maps, ddof=1), abs=1e-12)
    assert report["config"]["lam"] == pytest.approx(1.0 / config.n_triplets)
    assert len(results) == 3
    # trial seeds are seed + t, so adding trials preserves earlier ones
    shorter, _ = run_method(small_config("srp", trials=2, seed=11), train=train, test=test)
    assert [t["map"] for t in shorter["trials"]] == maps[:2]


def test_run_method_reports_gap_and_epochs_per_trial():
    train, test = split_blobs(seed=8)
    report, results = run_method(small_config("durp", epochs=4), train=train, test=test)
    for trial, result in zip(report["trials"], results):
        epoch, _, gap, _, _ = result.solver_trace[-1]
        assert trial["epochs"] == epoch == 4
        assert trial["final_gap"] == gap
        assert gap >= -1e-12
        assert trial["max_drift"] == max(row[4] for row in result.solver_trace)
    json.dumps(report)  # still JSON-ready


def test_run_method_reports_dual_support_counts():
    train, test = split_blobs(seed=8)
    for loss in ("hinge", "smoothed_hinge"):
        config = small_config("duori", loss=loss)
        report, results = run_method(config, train=train, test=test)
        for trial, result in zip(report["trials"], results):
            counts = (trial["alpha_at_lower"], trial["alpha_interior"], trial["alpha_at_zero"])
            assert sum(counts) == result.alpha.size == config.n_triplets
            assert counts[0] == np.count_nonzero(result.alpha == -1.0)


def test_run_method_reports_the_metric_rank():
    # r+ is the number of eigenvalues of the metric before projection above
    # numpy's matrix_rank tolerance d * eps * (largest eigenvalue)
    train, test = split_blobs(seed=12)
    config = small_config("durp", n_triplets=60)
    report, results = run_method(config, train=train, test=test)
    for trial, result in zip(report["trials"], results):
        cache = build_cache(train, sample_active_triplets(train, config.n_triplets, result.seed))
        eigvals = np.linalg.eigvalsh(recover_metric(result.alpha, cache, 1.0 / cache.n))
        tol = train.d * np.finfo(float).eps * eigvals.max()
        assert trial["metric_rank"] == np.count_nonzero(eigvals > tol)
        assert trial["metric_rank"] == result.factor.shape[1]
        assert 0 < trial["metric_rank"] < train.d


def test_durp_path_allocates_nothing_of_size_d_by_n():
    # cache -> project -> solve -> recover at d=512, N=20000: one d x N float64
    # array would be 78 MiB; the index form needs about a tenth of that
    d, n_points, n = 512, 200, 20000
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.normal(size=(d, n_points)), np.arange(n_points) % 2)
    triplets = rng.integers(0, n_points, size=(n, 3))
    tracemalloc.start()
    try:
        cache = build_cache(data, triplets)
        projected = project_cache(cache, gaussian_matrix(d, 10, seed=0))
        solution = csdca_solve(projected, LossModel("hinge"), 1.0 / n, epochs=1, seed=0)
        M = recover_metric(solution.alpha, cache, 1.0 / n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (d, d)
    assert peak < d * n * 8, f"peak {peak / 2**20:.1f} MiB"


def test_load_split_shares_the_training_label_map(tmp_path):
    train, full_test = split_blobs(seed=6)
    # a test file without class 0 must keep the training ids of the others
    keep = full_test.labels != 0
    without_0 = LabeledDataset(full_test.points[:, keep], full_test.labels[keep])
    train_path = tmp_path / "train.svm"
    test_path = tmp_path / "test.svm"
    train_path.write_text(serialize_libsvm(train))
    for test in (full_test, without_0):
        test_path.write_text(serialize_libsvm(test))
        loaded = load_split(train_path, test_path)
        assert np.array_equal(loaded[1].labels, test.labels)
        config = small_config("duori", trials=1)
        from_files, _ = run_method(config, *loaded)
        in_memory, _ = run_method(config, train, test)
        assert from_files["map_mean"] == in_memory["map_mean"]
        assert from_files["knn_mean"] == in_memory["knn_mean"]
    # a label the training file lacks takes the next free id
    test_path.write_text("7 1:1\n1 2:1\n")
    _, unseen = load_split(train_path, test_path)
    assert unseen.labels.tolist() == [3, 1]
    assert unseen.d == train.d


def test_run_method_rejects_dimension_mismatch():
    train, _ = split_blobs(seed=7)
    bad_test = gaussian_blobs(5, 20, 2, seed=7)
    with pytest.raises(ValueError, match="dimensions differ"):
        run_method(small_config("duori"), train=train, test=bad_test)


def test_spca_refuses_m_above_min_d_n_before_fitting(monkeypatch):
    def never(*args):
        raise AssertionError("pca_fit ran")

    monkeypatch.setattr(experiments, "pca_fit", never)
    for d, n, bound in ((4, 45, 4), (12, 12, 8)):  # min(d, n) is d, then 8 training points
        train, test = split_blobs(d=d, n=n, seed=9)
        with pytest.raises(ValueError, match=rf"spca needs m <= min\(d, n\) = {bound}, got m"):
            train_trial(small_config("spca", m=bound + 1), train, test, 0)


def test_k_above_the_training_set_is_refused_before_sampling(monkeypatch):
    train, test = split_blobs(seed=8)

    def never(*args):
        raise AssertionError("sampled before the k check")

    monkeypatch.setattr(experiments, "sample_active_triplets", never)
    for method in METHODS:
        with pytest.raises(ValueError, match=rf"k must be in \[1, {train.n}\]"):
            train_trial(small_config(method, k=train.n + 1), train, test, 0)
