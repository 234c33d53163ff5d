"""Triplet margins, the Gram product, accumulator and norm bounds.

With A_t = u_t u_t^T - v_t v_t^T, the Gram entry expands into four squared
dot products:

    G[a, b] = (u_a.u_b)^2 + (v_a.v_b)^2 - (u_a.v_b)^2 - (v_a.u_b)^2

so no p x p outer products are ever formed.  :func:`dense_gram` is the one
dense Gram route: the coordinate sweep calls it per block, and
:func:`gram_product` calls it on all N columns when p(p + 1) > N.  It
refuses more than ``DENSE_LIMIT`` columns, the only cap on Gram work.

G also factors as G = Phi^T Phi.  <A_a, A_b>_F is the inner product of the
symmetric vectorisations of A_a and A_b, so :func:`gram_factor` gives Phi
one row per pair i <= j of the p coordinates, r = p(p + 1)/2 rows in all:
row (i, j) holds U[i] U[j] - V[i] V[j] over the columns, times sqrt(2) off
the diagonal.  :func:`gram_product` multiplies by Phi^T (Phi alpha) when
that factor is thinner than G, i.e. p(p + 1) <= N, and takes lambda_max(G)
from the r x r matrix Phi Phi^T; that route never forms G and takes any N.
The Gram, its factor and the margins read the gathered difference columns
U, V (see :func:`durp.triplets.differences`); the accumulator reads the
index-form cache: its ``CHUNK`` column splits set its bits, and its
``BAND_BYTES`` row bands only the memory each gather walks.
:func:`dense_gram`, :func:`gram_factor` and :func:`gram_product` also take
a stack of K problems, U and V of shape K x p x N, and give each problem
the bits it gets alone.
"""

from __future__ import annotations

import numpy as np

DENSE_LIMIT = 4000
CHUNK = 1024  # triplet columns per accumulator split, which sets its bits; cache_margins slices too
BAND_BYTES = 1 << 20  # bytes of point rows per band of the accumulator; sets locality, never bits


def margins(U, V, M):
    """<A_t, M> = u_t^T M u_t - v_t^T M v_t for every column t of U, V."""
    return np.einsum("pt,pt->t", U, M @ U) - np.einsum("pt,pt->t", V, M @ V)


def accumulator(cache, alpha):
    """S = sum_t alpha_t (u_t u_t^T - v_t v_t^T) from the n points, O(n p^2 + N p).

    In u u^T - v v^T the x_i x_i^T terms cancel, leaving
    x_k x_k^T - x_j x_j^T + x_i (x_j - x_k)^T + (x_j - x_k) x_i^T, so
    S = X Z^T + Z X^T with Z = X diag(w)/2 + Y, where
    w = bincount(k, alpha) - bincount(j, alpha) and column a of Y sums
    alpha_t (x_j - x_k) over the triplets anchored at a.  Y is built in
    anchor-sorted chunks of ``CHUNK`` columns with ``np.add.reduceat``, one
    band of point rows at a time: every step acts row by row, so the bands
    change which memory each gather walks, not the bits.
    """
    if alpha.shape != (cache.n,):
        raise ValueError("alpha must have one entry per triplet")
    X = cache.points
    n_points = X.shape[1]
    order = np.argsort(cache.triplets[:, 0], kind="stable")
    i, j, k = cache.triplets[order].T
    a = alpha[order]
    w = np.bincount(k, a, n_points) - np.bincount(j, a, n_points)
    Z = X * (0.5 * w)
    chunks = []
    for s in range(0, cache.n, CHUNK):
        anchors = i[s:s + CHUNK]
        starts = np.flatnonzero(np.r_[True, anchors[1:] != anchors[:-1]])
        chunks.append((j[s:s + CHUNK], k[s:s + CHUNK], a[s:s + CHUNK], starts, anchors[starts]))
    band = max(1, BAND_BYTES // (8 * n_points))
    for r in range(0, X.shape[0], band):
        Xb, Zb = X[r:r + band], Z[r:r + band]
        for jc, kc, ac, starts, heads in chunks:
            D = Xb.take(jc, axis=1)
            D -= Xb.take(kc, axis=1)
            D *= ac
            # += through a fancy index keeps one update per repeated index; the
            # anchors are sorted, so each run start names a different anchor
            Zb[:, heads] += np.add.reduceat(D, starts, axis=1)
    P = X @ Z.T
    del Z
    return P + P.T


def dense_gram(U, V):
    """Materialize G for N <= ``DENSE_LIMIT``; the per-block squares keep it O(N^2 p)."""
    if U.shape[-1] > DENSE_LIMIT:
        raise ValueError(f"dense Gram limited to {DENSE_LIMIT} triplets, got {U.shape[-1]}")
    Ut = U.swapaxes(-1, -2)
    UU = Ut @ U
    VV = V.swapaxes(-1, -2) @ V
    UV = Ut @ V
    G = UU**2 + VV**2 - UV**2 - UV.swapaxes(-1, -2) ** 2
    return 0.5 * (G + G.swapaxes(-1, -2))


def gram_factor(U, V):
    """Phi, r x N with r = p(p + 1)/2, such that G = Phi^T Phi (module docstring).

    Phi is filled one row at a time, so no temporary exceeds one row.
    """
    p = U.shape[-2]
    Phi = np.empty(U.shape[:-2] + (p * (p + 1) // 2, U.shape[-1]))
    for q, (i, j) in enumerate(zip(*np.triu_indices(p))):
        row = Phi[..., q, :]
        np.multiply(U[..., i, :], U[..., j, :], out=row)
        row -= V[..., i, :] * V[..., j, :]
        if i != j:
            row *= np.sqrt(2.0)
    return Phi


def gram_product(U, V):
    """(B, product, top) for the K problems of U, V (K x p x N each).

    ``product(B, a)`` gives G_k a_k for every row a_k of the K x N ``a``,
    and ``top[k]`` is lambda_max(G_k).  B stacks the thinner of the Gram
    factor Phi (K x r x N) and the dense G (K x N x N); ``B[rows]`` keeps
    the problems ``rows``.  Each product is a new array; the stacked
    ``np.matmul`` takes, problem by problem, the product ``@`` takes on
    one matrix and one vector, so each row has ``@``'s bits.
    """
    p, n = U.shape[-2:]
    if p * (p + 1) <= n:
        Phi = gram_factor(U, V)
        # Phi Phi^T and Phi^T Phi = G share their nonzero eigenvalues
        top = np.linalg.eigvalsh(Phi @ Phi.transpose(0, 2, 1))[:, -1]
        return Phi, _factor_product, top
    G = dense_gram(U, V)
    # G is symmetric PSD, so its spectral norm is its top eigenvalue
    return G, _dense_product, np.linalg.eigvalsh(G)[:, -1]


def _factor_product(Phi, a):
    return np.matmul(Phi.transpose(0, 2, 1), np.matmul(Phi, a[:, :, None]))[:, :, 0]


def _dense_product(G, a):
    return np.matmul(G, a[:, :, None])[:, :, 0]


def kappa(U, V):
    """Largest spectral norm among the four norm-product matrices.

    The matrices pairing squared norms, e.g. K1[a, b] = |u_a|^2 |u_b|^2,
    are rank one, so their spectral norms collapse to products of vector
    norms: |p|^2, |q|^2, and |p||q| for the two cross matrices, with
    p_t = |u_t|^2 and q_t = |v_t|^2.  The cross products never exceed the
    larger square, so kappa = max(|p|, |q|)^2.
    """
    top = max(np.linalg.norm(np.einsum("pt,pt->t", U, U)),
              np.linalg.norm(np.einsum("pt,pt->t", V, V)))
    return float(top * top)
