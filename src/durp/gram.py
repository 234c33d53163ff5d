"""Triplet Gram diagonal, dense Gram, accumulator and norm bounds.

With A_t = u_t u_t^T - v_t v_t^T, the Gram entry expands into four squared
dot products:

    G[a, b] = (u_a.u_b)^2 + (v_a.v_b)^2 - (u_a.v_b)^2 - (v_a.u_b)^2

so no p x p outer products are ever formed.  The full N x N matrix is only
materialized by :func:`dense_gram` for the small dense reference solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENSE_LIMIT = 4000


def _column_sqnorms(A):
    return np.einsum("pt,pt->t", A, A)


def gram_diag(cache):
    """G[t, t] = |u_t|^4 + |v_t|^4 - 2 (u_t.v_t)^2, one pass over the cache."""
    cross = np.einsum("pt,pt->t", cache.U, cache.V)
    return _column_sqnorms(cache.U) ** 2 + _column_sqnorms(cache.V) ** 2 - 2.0 * cross**2


def accumulator(cache, alpha):
    """S = sum_t alpha_t (u_t u_t^T - v_t v_t^T), built in O(N p^2)."""
    if alpha.shape != (cache.n,):
        raise ValueError("alpha must have one entry per triplet")
    S = (cache.U * alpha) @ cache.U.T - (cache.V * alpha) @ cache.V.T
    return 0.5 * (S + S.T)


def dense_gram(cache, limit=DENSE_LIMIT):
    """Materialize G for small N; the per-block squares keep it O(N^2 p)."""
    if cache.n > limit:
        raise ValueError(f"dense Gram limited to {limit} triplets, got {cache.n}")
    U, V = cache.U, cache.V
    UU = U.T @ U
    VV = V.T @ V
    UV = U.T @ V
    G = UU**2 + VV**2 - UV**2 - (UV.T) ** 2
    return 0.5 * (G + G.T)


@dataclass(frozen=True)
class KappaStats:
    """Spectral norms of the four norm-product matrices and their max."""

    kappa: float
    norms: tuple


def kappa(cache):
    """Largest spectral norm among the four norm-product matrices.

    The matrices pairing squared norms, e.g. K1[a, b] = |u_a|^2 |u_b|^2,
    are rank one, so their spectral norms collapse to products of vector
    norms: |p|^2, |q|^2, and |p||q| for the two cross matrices, with
    p_t = |u_t|^2 and q_t = |v_t|^2.
    """
    p = np.linalg.norm(_column_sqnorms(cache.U))
    q = np.linalg.norm(_column_sqnorms(cache.V))
    norms = (p * p, q * q, p * q, q * p)
    return KappaStats(kappa=float(max(norms)), norms=tuple(float(x) for x in norms))
