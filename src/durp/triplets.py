"""Active-triplet sampling, the difference-vector cache the solver runs on, and the sketch.

A triplet (i, j, k) pairs an anchor i with a same-class neighbor j and a
different-class point k.  It is *active* when the unit-margin Euclidean
hinge is violated, i.e. ``1 + ||x_i - x_j||^2 - ||x_i - x_k||^2 > 0``.
The cache keeps triplets as indices into the points; the solver gathers
the difference vectors u = x_i - x_k (across classes) and
v = x_i - x_j (within class) block by block, in the space it runs in.

The sketch is a plain d x m array R; points map as x -> R^T x.  Its
entries are N(0, 1/m), so the map preserves squared norms in expectation,
drawn by numpy's PCG64 (``default_rng``); the recorded generator name
makes a sketch reconstructible from (d, m, seed, generator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DRAW_FACTOR = 1000  # sampling gives up after this many draws per requested triplet
SAMPLE_BYTES = 512 * 1024  # size of one gathered block of point rows; sets the draws per step
GENERATOR_NAME = "numpy-default-rng-pcg64"


@dataclass(frozen=True)
class TripletCache:
    """A triplet set in index form over the points it indexes.

    ``points`` is p x n (one column per point, kept as given, without a
    copy) and ``triplets`` the (N, 3) rows (i, j, k), N >= 1: every layer
    below the cache may assume at least one triplet.  Nothing of size
    p x N is stored: the solver gathers the difference columns of the
    space it runs in block by block (:func:`differences`), and the
    accumulator rebuilds sum_t alpha_t A_t from the n points.
    ``space_dim`` is the ambient dimension, which changes under projection.
    """

    points: np.ndarray
    triplets: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.triplets, dtype=np.int64)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triplets must be an (N, 3) index array")
        if t.shape[0] == 0:
            raise ValueError("empty triplet cache: need at least one triplet")
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d (p, n) array")
        if t.min() < 0 or t.max() >= self.points.shape[1]:
            raise ValueError("triplet indices out of range")
        object.__setattr__(self, "triplets", t)

    @property
    def space_dim(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.triplets.shape[0]


def sample_active_triplets(data, n_triplets, seed):
    """Rejection-sample ``n_triplets`` active triplets as an (N, 3) int64 array.

    Each draw picks an anchor i uniformly, a same-class j != i uniformly,
    and a different-class k uniformly; the draw is kept only when the
    Euclidean margin 1 + ||x_i - x_j||^2 - ||x_i - x_k||^2 is positive, in
    that direct form on rows of one C-contiguous n x d copy of the points.
    An anchor in a class of one is a rejected draw.  Draws come in blocks
    of max(1, SAMPLE_BYTES // (8 d)); the first N kept, in draw order, are
    returned, and only the first MAX_DRAW_FACTOR * N draws count, so a
    smaller N gives a prefix of a larger one.  Deterministic given
    ``seed``; the stream depends on d through the block size.

    Raises
    ------
    ValueError
        If the label structure cannot support sampling, or more than
        ``MAX_DRAW_FACTOR * n_triplets`` draws were needed.
    """
    if n_triplets < 0:
        raise ValueError("n_triplets must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    labels = data.labels
    if np.unique(labels).size < 2:
        raise ValueError("need at least two distinct classes to sample triplets")
    counts = np.bincount(labels)
    if not np.any(counts >= 2):
        raise ValueError("need at least one class with two or more members")

    rng = np.random.default_rng(seed)
    n = data.n
    order = np.argsort(labels, kind="stable")  # each class one block, in index order
    start = np.cumsum(counts) - counts
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - start[labels[order]]
    Xt = np.ascontiguousarray(data.points.T)
    block = max(1, SAMPLE_BYTES // (8 * Xt.shape[1]))
    accepted = np.empty((n_triplets, 3), dtype=np.int64)
    n_accepted = 0
    draws = 0
    cap = MAX_DRAW_FACTOR * n_triplets
    while n_accepted < n_triplets:
        if draws >= cap:
            raise ValueError(
                "triplet sampling exceeded %d draws (acceptance rate %.4f); "
                "check the label geometry" % (cap, n_accepted / draws)
            )
        i = rng.integers(n, size=block)
        c = labels[i]
        count = counts[c]
        r = rng.integers(np.maximum(count - 1, 1))  # rank in the class, skipping i's own
        r += (r >= rank[i]) & (count > 1)  # a class of one leaves j = i: rejected below
        j = order[start[c] + r]
        q = rng.integers(n - count)  # position in the label order, skipping i's class
        k = order[q + np.where(q >= start[c], count, 0)]
        xi = Xt[i]
        v = xi - Xt[j]
        u = xi - Xt[k]
        margin = 1.0 + np.einsum("td,td->t", v, v) - np.einsum("td,td->t", u, u)
        active = ((i != j) & (margin > 0.0))[:cap - draws]  # draws past the cap go unused
        draws += active.size
        kept = np.flatnonzero(active)[:n_triplets - n_accepted]
        accepted[n_accepted:n_accepted + kept.size] = np.column_stack((i[kept], j[kept], k[kept]))
        n_accepted += kept.size
    return accepted


def build_cache(data, triplets):
    """Index-form cache of (N, 3) triplet rows over ``data.points`` (not copied)."""
    return TripletCache(data.points, triplets)


def gaussian_matrix(d, m, seed):
    """Draw a d x m array with i.i.d. N(0, 1/m) entries, deterministic in seed."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(m), size=(d, m))


def project_cache(cache, R):
    """Push a cache through x -> R^T x for a d x m ``R``: the n points are projected once."""
    return TripletCache(R.T @ cache.points, cache.triplets)


def differences(cache, index=slice(None)):
    """The difference columns U = x_i - x_k and V = x_i - x_j of ``triplets[index]`` (default all).

    ``take`` gathers into C order, so both are C-contiguous; V is the anchors less x_j, in place.
    """
    X, t = cache.points, cache.triplets[index]
    V = X.take(t[:, 0], axis=1)
    U = V - X.take(t[:, 2], axis=1)
    V -= X.take(t[:, 1], axis=1)
    return U, V
