"""Active-triplet sampling and the difference-vector cache the solver runs on.

A triplet (i, j, k) pairs an anchor i with a same-class neighbor j and a
different-class point k.  It is *active* when the unit-margin Euclidean
hinge is violated, i.e. ``1 + ||x_i - x_j||^2 - ||x_i - x_k||^2 > 0``.
The cache keeps triplets as indices into the points; the solver gathers
the difference vectors u = x_i - x_k (across classes) and
v = x_i - x_j (within class) once, in the space it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TripletSet:
    """Immutable (N, 3) array of point indices, one (i, j, k) row per triplet."""

    triplets: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.triplets, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("triplets must be an (N, 3) index array")
        object.__setattr__(self, "triplets", arr)

    @property
    def n(self) -> int:
        return self.triplets.shape[0]


@dataclass(frozen=True)
class TripletCache:
    """A triplet set in index form over the points it indexes.

    ``points`` is p x n (one column per point, kept as given, without a
    copy) and ``triplets`` the (N, 3) rows (i, j, k).  Nothing of size
    p x N is stored: the solver gathers the difference columns of the
    space it runs in (:func:`differences`), and the accumulator rebuilds
    sum_t alpha_t A_t from the n points.  ``anchor_order`` sorts the
    triplets by anchor (stable), computed once for that rebuild.
    ``space_dim`` is the ambient dimension, which changes under projection.
    """

    points: np.ndarray
    triplets: np.ndarray
    anchor_order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = TripletSet(self.triplets).triplets
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d (p, n) array")
        if t.size and (t.min() < 0 or t.max() >= self.points.shape[1]):
            raise ValueError("triplet indices out of range")
        object.__setattr__(self, "triplets", t)
        object.__setattr__(self, "anchor_order", np.argsort(t[:, 0], kind="stable"))

    @property
    def space_dim(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.triplets.shape[0]


def sample_active_triplets(data, n_triplets, seed, max_draw_factor=1000):
    """Rejection-sample ``n_triplets`` active triplets.

    Each draw picks an anchor i uniformly, a same-class j != i uniformly,
    and a different-class k uniformly; the draw is kept only when the
    Euclidean margin 1 + ||x_i - x_j||^2 - ||x_i - x_k||^2 is positive.
    Anchors whose class has no second member are redrawn (counted as a
    rejected draw).  Deterministic given ``seed``.

    Raises
    ------
    ValueError
        If the label structure cannot support sampling, or more than
        ``max_draw_factor * n_triplets`` draws were needed.
    """
    if n_triplets < 0:
        raise ValueError("n_triplets must be nonnegative")
    labels = data.labels
    if np.unique(labels).size < 2:
        raise ValueError("need at least two distinct classes to sample triplets")
    counts = np.bincount(labels)
    if not np.any(counts >= 2):
        raise ValueError("need at least one class with two or more members")
    if n_triplets == 0:
        return TripletSet(np.empty((0, 3), dtype=np.int64))

    rng = np.random.default_rng(seed)
    members = [np.flatnonzero(labels == c) for c in range(counts.size)]
    others = [np.flatnonzero(labels != c) for c in range(counts.size)]
    points = data.points
    accepted = np.empty((n_triplets, 3), dtype=np.int64)
    n_accepted = 0
    draws = 0
    cap = max_draw_factor * n_triplets
    while n_accepted < n_triplets:
        if draws >= cap:
            raise ValueError(
                "triplet sampling exceeded %d draws (acceptance rate %.4f); "
                "check the label geometry" % (cap, n_accepted / draws)
            )
        draws += 1
        i = int(rng.integers(data.n))
        c = labels[i]
        same = members[c]
        if same.size < 2:
            continue
        j = i
        while j == i:
            j = int(same[rng.integers(same.size)])
        diff = others[c]
        k = int(diff[rng.integers(diff.size)])
        vv = points[:, i] - points[:, j]
        uu = points[:, i] - points[:, k]
        if 1.0 + vv @ vv - uu @ uu > 0.0:
            accepted[n_accepted] = (i, j, k)
            n_accepted += 1
    return TripletSet(accepted)


def build_cache(data, triplet_set):
    """Index-form cache of a triplet set over ``data.points`` (not copied)."""
    return TripletCache(data.points, triplet_set.triplets)


def project_cache(cache, projection):
    """Push a cache through x -> R^T x: the n points are projected once."""
    R = projection.entries
    if R.shape[0] != cache.space_dim:
        raise ValueError(
            f"projection rows ({R.shape[0]}) must match cache dimension ({cache.space_dim})"
        )
    return TripletCache(R.T @ cache.points, cache.triplets)


def differences(cache):
    """The gathered difference columns U = x_i - x_k and V = x_i - x_j, p x N each.

    ``take`` gathers into C order, so both come out C-contiguous.
    """
    X, t = cache.points, cache.triplets
    anchors = X.take(t[:, 0], axis=1)
    return anchors - X.take(t[:, 2], axis=1), anchors - X.take(t[:, 1], axis=1)


def save_triplets(path, triplet_set):
    """Write a triplet set as ``i,j,k`` CSV (0-based indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,k\n")
        for i, j, k in triplet_set.triplets:
            fh.write(f"{i},{j},{k}\n")


def load_triplets(path):
    """Read a triplet CSV written by :func:`save_triplets`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "i,j,k":
        raise ValueError("expected header line 'i,j,k'")
    rows = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    arr = np.array(rows, dtype=np.int64) if rows else np.empty((0, 3), dtype=np.int64)
    return TripletSet(arr)
