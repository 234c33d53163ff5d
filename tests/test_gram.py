"""Gram entries, products, dense materialization, the factor, the accumulator, and the spectral summary."""

import numpy as np
import pytest

from durp import solver
from durp.data import LabeledDataset
from durp.harness import kappa
from durp.metric import span_basis
from durp.solver import DENSE_LIMIT, accumulator, dense_gram, gram_factor
from durp.synth import gaussian_blobs
from durp.triplets import (
    TripletCache,
    build_cache,
    differences,
    project_cache,
    sample_active_triplets,
)

from oracles import (
    KRON_DIM_LIMIT,
    columnwise_accumulator,
    dense_trace_gram,
    gram_entry,
    gram_oracle,
    gram_vector_product,
    naive_accumulator,
    spectral_norm,
)


def random_columns(rng, p, n):
    """Random difference columns U, V (p x n each), not tied to any points."""
    return rng.normal(size=(p, n)), rng.normal(size=(p, n))


def random_cache(rng, p, n_points, n):
    """Index-form cache: random points and n random (i, j, k) rows over them."""
    return TripletCache(rng.normal(size=(p, n_points)), rng.integers(0, n_points, size=(n, 3)))


def assert_accumulator_matches_naive(cache, alpha):
    S = accumulator(cache, alpha)
    S_naive = naive_accumulator(*differences(cache), alpha)
    assert np.abs(S - S_naive).max() <= 1e-12 * np.abs(S_naive).max()
    assert np.array_equal(S, S.T)


def test_gram_entry_hand_example():
    # u_a=(1,0), v_a=(0,1), u_b=(1,1), v_b=(2,0):
    # (u_a.u_b)^2=1, (v_a.v_b)^2=0, (u_a.v_b)^2=4, (v_a.u_b)^2=1 -> G = -4
    U = np.array([[1.0, 1.0], [0.0, 1.0]])
    V = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert gram_entry(U, V, 0, 1) == 1.0 + 0.0 - 4.0 - 1.0


def test_gram_three_routes_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(2, 12))
        n = int(rng.integers(2, 15))
        U, V = random_columns(rng, p, n)
        dense = dense_gram(U, V)
        trace = dense_trace_gram(U, V)
        scale = np.abs(trace).max() + 1.0
        assert np.allclose(dense, trace, atol=1e-9 * scale)
        for a in range(n):
            for b in range(n):
                e = gram_entry(U, V, a, b)
                assert abs(e - trace[a, b]) <= 1e-9 * scale
                assert abs(gram_oracle(U, V, a, b) - e) <= 1e-9 * scale


def test_gram_diag_matches_entries():
    rng = np.random.default_rng(1)
    U, V = random_columns(rng, 6, 20)
    diag = np.diag(dense_gram(U, V))
    for t in range(20):
        assert np.isclose(diag[t], gram_entry(U, V, t, t), rtol=1e-12)


def test_gram_factor_reproduces_the_gram():
    # (p, N) on both sides of the reference solver's rule p(p + 1) <= N
    rng = np.random.default_rng(13)
    for p, n in [(1, 3), (2, 6), (3, 12), (4, 30), (6, 40), (5, 12), (8, 20), (12, 15)]:
        U, V = random_columns(rng, p, n)
        Phi = gram_factor(U, V)
        assert Phi.shape == (p * (p + 1) // 2, n)
        G = Phi.T @ Phi
        for reference in (dense_gram(U, V), dense_trace_gram(U, V)):
            assert np.abs(G - reference).max() <= 1e-12 * np.abs(reference).max()


def test_gram_is_positive_semidefinite():
    rng = np.random.default_rng(2)
    eigs = np.linalg.eigvalsh(dense_gram(*random_columns(rng, 5, 25)))
    assert eigs.min() > -1e-9 * max(eigs.max(), 1.0)


def test_kron_oracle_dimension_guard():
    rng = np.random.default_rng(3)
    U, V = random_columns(rng, KRON_DIM_LIMIT + 1, 3)
    with pytest.raises(ValueError, match="Kronecker oracle"):
        gram_oracle(U, V, 0, 1)


def test_dense_gram_size_guard(monkeypatch):
    rng = np.random.default_rng(4)
    U, V = random_columns(rng, 3, 10)
    monkeypatch.setattr(solver, "DENSE_LIMIT", 5)
    with pytest.raises(ValueError, match="dense Gram limited to 5 triplets"):
        dense_gram(U, V)
    assert DENSE_LIMIT == 4000


def test_accumulator_matches_naive():
    rng = np.random.default_rng(5)
    cache = random_cache(rng, 7, 12, 30)
    alpha = -rng.random(30)
    assert_accumulator_matches_naive(cache, alpha)
    # a longer alpha would index cleanly and silently drop its extra entries
    for wrong in (alpha[:-1], np.r_[alpha, -0.5], alpha[:, None]):
        with pytest.raises(ValueError, match="alpha must have one entry per triplet"):
            accumulator(cache, wrong)


def test_accumulator_index_form_edge_cases():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(5, 6))
    cases = {
        "repeated anchors": [[0, 1, 2], [0, 3, 4], [0, 1, 5], [2, 3, 1]],
        "duplicate triplets": [[1, 2, 3], [1, 2, 3], [1, 2, 3], [4, 0, 5]],
        "anchor is another's j or k": [[0, 1, 2], [1, 2, 0], [2, 0, 1], [3, 0, 1]],
        "single triplet": [[3, 4, 5]],
    }
    for name, rows in cases.items():
        cache = TripletCache(X, np.array(rows))
        assert_accumulator_matches_naive(cache, -rng.random(cache.n))
    with pytest.raises(ValueError, match="empty triplet cache"):
        accumulator(TripletCache(X, np.empty((0, 3), dtype=np.int64)), np.zeros(0))


def test_accumulator_anchor_runs_across_chunks(monkeypatch):
    # with 3-column chunks, most anchors' runs of triplets span a chunk boundary
    rng = np.random.default_rng(10)
    cache = random_cache(rng, 4, 5, 40)
    alpha = -rng.random(40)
    monkeypatch.setattr(solver, "CHUNK", 3)
    assert_accumulator_matches_naive(cache, alpha)


def banding_caches():
    """Caches over 60 points each: d = 24 above and below CHUNK triplets, a p = 3 span, p = 10."""
    train = gaussian_blobs(24, 60, 3, seed=12, noise=0.3)
    rng = np.random.default_rng(12)
    flat = LabeledDataset(rng.normal(size=(24, 3)) @ rng.normal(size=(3, 60)), train.labels)
    wide = build_cache(train, sample_active_triplets(train, 2500, seed=12))
    return {
        "N > CHUNK": wide,
        "N < CHUNK": build_cache(train, sample_active_triplets(train, 300, seed=13)),
        "span p = 3": project_cache(build_cache(flat, sample_active_triplets(flat, 300, seed=14)),
                                    span_basis(flat.points)),
        "projected p = 10": project_cache(wide, rng.normal(size=(24, 10))),
    }


@pytest.mark.parametrize("band_rows", [1, 7, None], ids=["one-row", "7-row", "single-band"])
@pytest.mark.parametrize("chunk", [solver.CHUNK, 3], ids=["CHUNK", "CHUNK=3"])
def test_accumulator_bands_keep_the_columnwise_bytes(monkeypatch, band_rows, chunk):
    # a row of 60 float64 points is 480 bytes; 7-row bands leave an uneven
    # last band at p = 24 and p = 10 and make one band at p = 3
    monkeypatch.setattr(solver, "BAND_BYTES", 8 * 60 * band_rows if band_rows else 1 << 40)
    monkeypatch.setattr(solver, "CHUNK", chunk)
    rng = np.random.default_rng(15)
    for name, cache in banding_caches().items():
        alpha = -rng.random(cache.n)
        alpha[::3] = 0.0
        S = accumulator(cache, alpha)
        assert S.tobytes() == columnwise_accumulator(cache, alpha).tobytes(), name


def test_accumulator_on_sampled_data():
    data = gaussian_blobs(9, 50, 3, seed=11, noise=0.3)
    cache = build_cache(data, sample_active_triplets(data, 300, seed=11))
    alpha = -np.random.default_rng(11).random(cache.n)
    alpha[::3] = 0.0  # inactive coordinates as the solver leaves them
    assert_accumulator_matches_naive(cache, alpha)


def test_gram_vector_product_matches_dense():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cache = random_cache(rng, 5, 15, 25)
        alpha = -rng.random(25)
        fast = gram_vector_product(cache, alpha)
        dense = dense_gram(*differences(cache)) @ alpha
        assert np.allclose(fast, dense, atol=1e-10 * np.abs(dense).max())


def test_kappa_closed_form_hand_example():
    # |u| = (sqrt 3, 2) -> p = (3, 4), |p| = 5; q = (0, 0) -> kappa = |p|^2 = 25
    U = np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 0.0]])
    assert kappa(U, np.zeros((3, 2))) == 25.0


def test_kappa_matches_spectral_norm_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        U, V = random_columns(rng, 4, 15)
        p = np.einsum("pt,pt->t", U, U)
        q = np.einsum("pt,pt->t", V, V)
        dense_norms = [
            spectral_norm(np.outer(p, p)),
            spectral_norm(np.outer(q, q)),
            spectral_norm(np.outer(p, q)),
            spectral_norm(np.outer(q, p)),
        ]
        assert np.isclose(kappa(U, V), max(dense_norms), rtol=1e-10)


def test_dense_gram_on_sampled_data():
    data = gaussian_blobs(10, 40, 2, seed=8, noise=0.3)
    cache = build_cache(data, sample_active_triplets(data, 60, seed=8))
    U, V = differences(cache)
    dense = dense_gram(U, V)
    trace = dense_trace_gram(U, V)
    assert np.allclose(dense, trace, atol=1e-9 * (np.abs(trace).max() + 1.0))
