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

MAX_DRAW_FACTOR = 1000  # sampling gives up after this many draws per requested triplet


@dataclass(frozen=True)
class TripletCache:
    """A triplet set in index form over the points it indexes.

    ``points`` is p x n (one column per point, kept as given, without a
    copy) and ``triplets`` the (N, 3) rows (i, j, k), N >= 1: every layer
    below the cache may assume at least one triplet.  Nothing of size
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
        object.__setattr__(self, "anchor_order", np.argsort(t[:, 0], kind="stable"))

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
    Euclidean margin 1 + ||x_i - x_j||^2 - ||x_i - x_k||^2 is positive.
    Anchors whose class has no second member are redrawn (counted as a
    rejected draw).  Deterministic given ``seed``.

    Raises
    ------
    ValueError
        If the label structure cannot support sampling, or more than
        ``MAX_DRAW_FACTOR * n_triplets`` draws were needed.
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
        return np.empty((0, 3), dtype=np.int64)

    rng = np.random.default_rng(seed)
    members = [np.flatnonzero(labels == c) for c in range(counts.size)]
    others = [np.flatnonzero(labels != c) for c in range(counts.size)]
    points = data.points
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
    return accepted


def build_cache(data, triplets):
    """Index-form cache of (N, 3) triplet rows over ``data.points`` (not copied)."""
    return TripletCache(data.points, triplets)


def project_cache(cache, R):
    """Push a cache through x -> R^T x for a d x m ``R``: the n points are projected once."""
    if R.ndim != 2:
        raise ValueError(f"projection must be a 2-d (d, m) array, got {R.ndim}-d")
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


def save_triplets(path, triplets):
    """Write (N, 3) triplet rows as ``i,j,k`` CSV (0-based indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,k\n")
        for i, j, k in triplets:
            fh.write(f"{i},{j},{k}\n")


def load_triplets(path):
    """Read the (N, 3) int64 triplet rows of a CSV written by :func:`save_triplets`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != "i,j,k":
        raise ValueError("expected header line 'i,j,k'")
    arr = np.empty((len(lines) - 1, 3), dtype=np.int64)
    for row, (lineno, text) in enumerate(lines[1:]):
        try:  # unpacking raises ValueError on a wrong field count too
            i, j, k = (int(x) for x in text.split(","))
            arr[row] = i, j, k
        except (ValueError, OverflowError):
            raise ValueError(
                f"triplet line {lineno}: expected three integers i,j,k, got {text!r}"
            ) from None
    return arr
