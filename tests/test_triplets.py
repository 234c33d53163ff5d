"""Active-triplet sampling, the index-form cache, the gathered differences, and the sketch."""

import numpy as np
import pytest

from durp import cli, triplets
from durp.data import LabeledDataset
from durp.solver import accumulator, dense_gram
from durp.synth import gaussian_blobs
from durp.triplets import (
    GENERATOR_NAME,
    TripletCache,
    build_cache,
    differences,
    gaussian_matrix,
    project_cache,
    sample_active_triplets,
)


def test_sampled_triplets_are_valid_and_active():
    for seed in range(5):
        data = gaussian_blobs(6, 60, 3, seed=seed, noise=0.2)
        tri = sample_active_triplets(data, 200, seed=seed)
        assert tri.shape == (200, 3) and tri.dtype == np.int64
        i, j, k = tri.T
        assert np.all(data.labels[i] == data.labels[j])
        assert np.all(data.labels[i] != data.labels[k])
        assert np.all(i != j)
        u = data.points[:, i] - data.points[:, k]
        v = data.points[:, i] - data.points[:, j]
        slack = 1.0 + np.einsum("dt,dt->t", v, v) - np.einsum("dt,dt->t", u, u)
        assert np.all(slack > 0)  # Euclidean-active by construction


def test_sampling_is_deterministic_per_seed():
    data = gaussian_blobs(5, 40, 2, seed=0)
    a = sample_active_triplets(data, 50, seed=3)
    b = sample_active_triplets(data, 50, seed=3)
    c = sample_active_triplets(data, 50, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_validates_class_structure():
    lone = LabeledDataset(np.ones((2, 3)), np.array([0, 0, 0]))
    with pytest.raises(ValueError, match="two distinct classes"):
        sample_active_triplets(lone, 5, seed=0)
    singletons = LabeledDataset(np.eye(2), np.array([0, 1]))
    with pytest.raises(ValueError, match="two or more members"):
        sample_active_triplets(singletons, 5, seed=0)
    data = gaussian_blobs(4, 20, 2, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_active_triplets(data, -1, seed=0)


def test_sampling_reports_dead_instances(monkeypatch):
    # classes so far apart that no Euclidean-active triplet exists
    points = np.zeros((2, 8))
    points[0, 4:] = 100.0
    data = LabeledDataset(points, np.array([0] * 4 + [1] * 4))
    monkeypatch.setattr("durp.triplets.MAX_DRAW_FACTOR", 20)
    with pytest.raises(ValueError, match=r"exceeded 200 draws \(acceptance rate"):
        sample_active_triplets(data, 10, seed=0)


def test_sampling_keeps_a_prefix_of_one_stream(monkeypatch):
    data = gaussian_blobs(5, 80, 3, seed=6, noise=0.3)
    for block_bytes in (8 * 5 * 16, triplets.SAMPLE_BYTES):  # 16 draws per step, the default
        monkeypatch.setattr(triplets, "SAMPLE_BYTES", block_bytes)
        full = sample_active_triplets(data, 500, seed=6)
        for n_prefix in (1, 37, 499):
            assert np.array_equal(sample_active_triplets(data, n_prefix, seed=6),
                                  full[:n_prefix])


def test_sampling_reaches_every_eligible_triplet_and_no_other():
    # equal points make every triplet active; classes 3 and 4 have one
    # member each, and no point has label 2
    labels = np.array([1, 0, 3, 0, 1, 0, 1, 4])
    data = LabeledDataset(np.zeros((2, labels.size)), labels)
    tri = sample_active_triplets(data, 4000, seed=0)
    eligible = [i for i in range(labels.size) if np.sum(labels == labels[i]) >= 2]
    expected = {(i, j, k) for i in eligible for j in range(labels.size)
                for k in range(labels.size)
                if j != i and labels[j] == labels[i] and labels[k] != labels[i]}
    assert set(map(tuple, tri.tolist())) == expected


def test_sampling_zero_triplets():
    data = gaussian_blobs(4, 20, 2, seed=0)
    assert sample_active_triplets(data, 0, seed=0).shape == (0, 3)


def test_cache_matches_naive_differences():
    data = gaussian_blobs(7, 50, 3, seed=1, noise=0.3)
    ts = sample_active_triplets(data, 80, seed=1)
    cache = build_cache(data, ts)
    assert cache.space_dim == 7 and cache.n == 80
    assert cache.points is data.points  # wrapped, not copied
    assert np.array_equal(cache.triplets, ts)
    U, V = differences(cache)
    for t in range(0, 80, 7):
        i, j, k = ts[t]
        u = data.points[:, i] - data.points[:, k]
        v = data.points[:, i] - data.points[:, j]
        assert np.array_equal(U[:, t], u)
        assert np.array_equal(V[:, t], v)


def test_triplet_set_validation():
    assert TripletCache(np.zeros((3, 4)), np.array([[0, 1, 2]])).n == 1
    for bad in (np.array([0, 1, 2]), np.zeros((3, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match=r"\(N, 3\) index array"):
            TripletCache(np.zeros((3, 4)), bad)
    with pytest.raises(ValueError, match="empty triplet cache"):
        TripletCache(np.zeros((3, 4)), np.empty((0, 3), dtype=np.int64))


def test_cache_validation():
    with pytest.raises(ValueError, match="2-d"):
        TripletCache(np.zeros(4), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="out of range"):
        TripletCache(np.zeros((3, 4)), np.array([[0, 1, -1]]))
    data = gaussian_blobs(4, 20, 2, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        build_cache(data, np.array([[0, 1, 99]]))


def test_cache_arrays_are_c_contiguous():
    data = gaussian_blobs(6, 30, 2, seed=2)
    ts = sample_active_triplets(data, 40, seed=2)
    cache = build_cache(data, ts)
    projected = project_cache(cache, gaussian_matrix(6, 3, seed=0))
    for U, V in (differences(cache), differences(projected)):
        assert U.flags["C_CONTIGUOUS"] and V.flags["C_CONTIGUOUS"]


def test_gaussian_matrix_statistics():
    R = gaussian_matrix(200, 50, seed=0)
    assert R.shape == (200, 50)
    # entries ~ N(0, 1/m): mean near 0, variance near 1/50
    assert abs(R.mean()) < 3.0 / np.sqrt(200 * 50 * 50)
    assert abs(R.var() * 50 - 1.0) < 0.05


def test_gaussian_matrix_determinism_and_validation():
    a = gaussian_matrix(10, 3, seed=7)
    b = gaussian_matrix(10, 3, seed=7)
    c = gaussian_matrix(10, 3, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    for d, m in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            gaussian_matrix(d, m, seed=0)
    assert GENERATOR_NAME == "numpy-default-rng-pcg64"


def test_project_cache_applies_projection():
    data = gaussian_blobs(8, 30, 2, seed=3)
    ts = sample_active_triplets(data, 40, seed=3)
    cache = build_cache(data, ts)
    R = gaussian_matrix(8, 4, seed=1)
    projected = project_cache(cache, R)
    assert projected.space_dim == 4 and projected.n == 40
    assert np.allclose(projected.points, R.T @ data.points)
    assert np.array_equal(projected.triplets, cache.triplets)
    for sketch, full in zip(differences(projected), differences(cache)):
        assert np.allclose(sketch, R.T @ full)


def test_identity_projection_preserves_cache_bits():
    data = gaussian_blobs(6, 30, 2, seed=4)
    ts = sample_active_triplets(data, 40, seed=4)
    cache = build_cache(data, ts)
    projected = project_cache(cache, np.eye(6))
    assert np.array_equal(projected.points, cache.points)
    for sketch, full in zip(differences(projected), differences(cache)):
        assert np.array_equal(sketch, full)
    assert np.array_equal(np.diag(dense_gram(*differences(projected))),
                          np.diag(dense_gram(*differences(cache))))
    alpha = -np.random.default_rng(4).random(cache.n)
    assert np.array_equal(accumulator(projected, alpha), accumulator(cache, alpha))


def test_triplets_csv_round_trip(monkeypatch, tmp_path):
    ts = np.array([[0, 1, 2], [3, 4, 5]])
    path, data = tmp_path / "triplets.csv", tmp_path / "data.svm"
    data.write_text("1 1:0\n2 1:1\n")

    def write_through_cli(path, sampled):
        monkeypatch.setattr(cli, "sample_active_triplets", lambda train, n, seed: sampled)
        assert cli.main(["sample-triplets", "--train-file", str(data), "--out", str(path)]) == 0

    write_through_cli(path, ts)
    assert path.read_text().splitlines()[0] == "i,j,k"
    back = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    assert np.array_equal(back, ts)
    write_through_cli(path, np.empty((0, 3), dtype=np.int64))
    assert path.read_text() == "i,j,k\n"
