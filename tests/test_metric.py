"""Metric recovery, PSD projection, distances, and the factor file."""

import numpy as np
import pytest

from durp.data import load_metric, save_metric
from durp.evaluate import sq_distance_blocks
from durp.solver import accumulator, psd_project, recover_metric
from durp.synth import gaussian_blobs
from durp.triplets import TripletCache, build_cache, differences, sample_active_triplets

from oracles import cap_block_rows, naive_recover, naive_sq_distance, three_block_sq_distances


def sample_cache(seed, d=6, n=30):
    data = gaussian_blobs(d, 40, 2, seed=seed, noise=0.3)
    return build_cache(data, sample_active_triplets(data, n, seed=seed))


def test_recover_metric_matches_naive():
    cache = sample_cache(0)
    rng = np.random.default_rng(0)
    alpha = -rng.random(cache.n)
    lam = 1.0 / cache.n
    M = recover_metric(alpha, cache, lam)
    ref = naive_recover(alpha, *differences(cache), lam)
    assert np.allclose(M, ref, atol=1e-11 * (np.abs(ref).max() + 1.0))
    assert np.array_equal(M, M.T)


def test_recover_metric_in_place_keeps_the_bits():
    cache = sample_cache(3, d=9, n=200)
    alpha = -np.random.default_rng(3).random(cache.n)
    for lam in (1.0 / cache.n, 0.37):  # lam N = 1 and lam N != 1
        expected = -accumulator(cache, alpha) / (lam * cache.n)
        assert recover_metric(alpha, cache, lam).tobytes() == expected.tobytes()


def test_recover_metric_validation():
    cache = sample_cache(1)
    with pytest.raises(ValueError, match="one entry per triplet"):
        recover_metric(np.zeros(cache.n + 1), cache, 0.1)
    # the cache refuses to exist, so the empty case never reaches recover_metric
    with pytest.raises(ValueError, match="empty triplet cache"):
        empty = TripletCache(np.zeros((3, 4)), np.empty((0, 3), dtype=np.int64))
        recover_metric(np.zeros(0), empty, 0.1)


def projected(A):
    """The dense projection L L^T from psd_project's factor L."""
    L = psd_project(A)
    return L @ L.T


def test_psd_project_clamps_negative_eigenvalues():
    A = np.diag([3.0, -2.0, 0.0])
    L = psd_project(A)
    assert L.shape == (3, 1)  # one column per positive eigenvalue
    P = L @ L.T
    assert np.allclose(P, np.diag([3.0, 0.0, 0.0]), atol=1e-12)
    # already-PSD input passes through (idempotence on a sample)
    assert np.allclose(projected(P), P, atol=1e-12)


def test_psd_project_refuses_non_finite_entries():
    # eigh returns NaN eigenvalues here without raising, and the rank cut-off
    # would then keep no column at all
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((0, 0), (1, 0), (0, 1)):
            M = np.eye(2)
            M[entry] = bad
            with pytest.raises(ValueError, match="metric has non-finite entries"):
                psd_project(M)


def test_psd_project_of_a_negative_definite_matrix_is_empty():
    L = psd_project(-np.eye(3))
    assert L.shape == (3, 0)
    assert np.array_equal(L @ L.T, np.zeros((3, 3)))


def test_psd_project_keeps_one_column_per_nonzero_eigenvalue():
    # L L^T of a rank-5 L has 45 eigenvalues at rounding level, about half of them
    # positive; the relative cutoff drops every one of them
    rng = np.random.default_rng(7)
    for _ in range(5):
        L = rng.normal(size=(50, 5))
        assert psd_project(L @ L.T).shape == (50, 5)


def test_psd_project_properties_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.normal(size=(8, 8))
        A = 0.5 * (A + A.T)
        B = rng.normal(size=(8, 8))
        B = 0.5 * (B + B.T)
        PA, PB = projected(A), projected(B)
        assert np.linalg.eigvalsh(PA).min() >= -1e-10
        # idempotent and nonexpansive
        assert np.allclose(projected(PA), PA, atol=1e-10)
        assert np.linalg.norm(PA - PB) <= np.linalg.norm(A - B) + 1e-10
        # Frobenius-closer to A than random PSD candidates
        dist = np.linalg.norm(A - PA)
        for _ in range(5):
            C = rng.normal(size=(8, 8))
            cand = C @ C.T
            assert dist <= np.linalg.norm(A - cand) + 1e-10


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


def test_metric_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "metric.bin"
    for L in (rng.normal(size=(6, 3)), np.zeros((6, 0)), np.zeros((0, 0))):
        save_metric(path, L)
        back = load_metric(path)
        assert back.shape == L.shape
        assert back.tobytes() == L.tobytes()  # the factor file is bit-exact
    save_metric(path, rng.normal(size=(6, 3)))
    raw = path.read_bytes()
    assert len(raw) == 16 + 6 * 3 * 8  # d and r, then the entries
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload has 136 bytes, expected 144 for a 6 x 3"):
        load_metric(path)
    path.write_bytes(raw[:12])
    with pytest.raises(ValueError, match="truncated"):
        load_metric(path)
