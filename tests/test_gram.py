"""Gram entries, products, dense materialization, and the spectral summary."""

import numpy as np
import pytest

from durp.gram import DENSE_LIMIT, accumulator, dense_gram, gram_diag, kappa
from durp.synth import gaussian_blobs
from durp.triplets import TripletCache, build_cache, sample_active_triplets

from oracles import (
    KRON_DIM_LIMIT,
    dense_trace_gram,
    gram_entry,
    gram_oracle,
    gram_vector_product,
    naive_accumulator,
    spectral_norm,
)


def random_cache(rng, p, n):
    U = rng.normal(size=(p, n))
    V = rng.normal(size=(p, n))
    return TripletCache(U, V)


def test_gram_entry_hand_example():
    # u_a=(1,0), v_a=(0,1), u_b=(1,1), v_b=(2,0):
    # (u_a.u_b)^2=1, (v_a.v_b)^2=0, (u_a.v_b)^2=4, (v_a.u_b)^2=1 -> G = -4
    U = np.array([[1.0, 1.0], [0.0, 1.0]])
    V = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert gram_entry(TripletCache(U, V), 0, 1) == 1.0 + 0.0 - 4.0 - 1.0


def test_gram_three_routes_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(2, 12))
        n = int(rng.integers(2, 15))
        cache = random_cache(rng, p, n)
        dense = dense_gram(cache)
        trace = dense_trace_gram(cache.U, cache.V)
        scale = np.abs(trace).max() + 1.0
        assert np.allclose(dense, trace, atol=1e-9 * scale)
        for a in range(n):
            for b in range(n):
                e = gram_entry(cache, a, b)
                assert abs(e - trace[a, b]) <= 1e-9 * scale
                assert abs(gram_oracle(cache, a, b) - e) <= 1e-9 * scale


def test_gram_diag_matches_entries():
    rng = np.random.default_rng(1)
    cache = random_cache(rng, 6, 20)
    diag = gram_diag(cache)
    for t in range(20):
        assert np.isclose(diag[t], gram_entry(cache, t, t), rtol=1e-12)


def test_gram_is_positive_semidefinite():
    rng = np.random.default_rng(2)
    eigs = np.linalg.eigvalsh(dense_gram(random_cache(rng, 5, 25)))
    assert eigs.min() > -1e-9 * max(eigs.max(), 1.0)


def test_kron_oracle_dimension_guard():
    rng = np.random.default_rng(3)
    cache = random_cache(rng, KRON_DIM_LIMIT + 1, 3)
    with pytest.raises(ValueError, match="Kronecker oracle"):
        gram_oracle(cache, 0, 1)


def test_dense_gram_size_guard():
    rng = np.random.default_rng(4)
    cache = random_cache(rng, 3, 10)
    with pytest.raises(ValueError, match="dense Gram"):
        dense_gram(cache, limit=5)
    assert DENSE_LIMIT == 4000


def test_accumulator_matches_naive():
    rng = np.random.default_rng(5)
    cache = random_cache(rng, 7, 30)
    alpha = -rng.random(30)
    S = accumulator(cache, alpha)
    S_naive = naive_accumulator(cache.U, cache.V, alpha)
    assert np.allclose(S, S_naive, atol=1e-12 * np.abs(S_naive).max())
    assert np.array_equal(S, S.T)
    with pytest.raises(ValueError):
        accumulator(cache, alpha[:-1])


def test_gram_vector_product_matches_dense():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cache = random_cache(rng, 5, 25)
        alpha = -rng.random(25)
        fast = gram_vector_product(cache, alpha)
        dense = dense_gram(cache) @ alpha
        assert np.allclose(fast, dense, atol=1e-10 * np.abs(dense).max())


def test_kappa_closed_form_hand_example():
    # |u| = (sqrt 3, 2) -> p = (3, 4), |p| = 5; q = (0, 0) -> kappa = |p|^2 = 25
    U = np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 0.0]])
    cache = TripletCache(U, np.zeros((3, 2)))
    stats = kappa(cache)
    assert stats.kappa == 25.0
    assert stats.norms == (25.0, 0.0, 0.0, 0.0)


def test_kappa_matches_spectral_norm_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        cache = random_cache(rng, 4, 15)
        stats = kappa(cache)
        p = np.einsum("pt,pt->t", cache.U, cache.U)
        q = np.einsum("pt,pt->t", cache.V, cache.V)
        dense_norms = [
            spectral_norm(np.outer(p, p)),
            spectral_norm(np.outer(q, q)),
            spectral_norm(np.outer(p, q)),
            spectral_norm(np.outer(q, p)),
        ]
        assert np.allclose(stats.norms, dense_norms, rtol=1e-10)
        assert stats.kappa == max(stats.norms)


def test_dense_gram_on_sampled_data():
    data = gaussian_blobs(10, 40, 2, seed=8, noise=0.3)
    cache = build_cache(data, sample_active_triplets(data, 60, seed=8))
    dense = dense_gram(cache)
    trace = dense_trace_gram(cache.U, cache.V)
    assert np.allclose(dense, trace, atol=1e-9 * (np.abs(trace).max() + 1.0))
