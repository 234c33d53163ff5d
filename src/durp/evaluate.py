"""Retrieval (mean average precision) and k-NN evaluation of a learned metric.

Every test point queries the remaining test points, ranked by ascending
metric distance.  A retrieved point is relevant when it shares the query's
class.  Queries with no relevant candidates are dropped from the average.
Ties are deterministic: equal computed distances keep index order (stable
sort), k-NN vote ties go to the smallest class id.  Rounding may give copies
of one point different computed distances, and so decide their order.

mAP sorts each query row's values, not its indices: in a row whose sorted
distances strictly increase, a relevant point's rank is the place of its
distance in that sort (``searchsorted``).  Rows with equal neighbours (a
tie, NaN, or +0.0 next to -0.0) rank by a stable index sort instead, so
both routes give the stable order's ranks.

Distances between the embedded points L^T x of a metric's factor L arrive
in query blocks from :func:`sq_distance_blocks`, each sorted and compared
with whole-block array operations, so memory is bounded by a few blocks.
``BLOCK_BYTES`` caps a block; at r+ = 128 a block's row count changes the
distance bytes, so the cap sets bits too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_BYTES = 2 << 20  # cap on one block of squared distances; 2-4 MiB ran fastest of 0.5-8 MiB


@dataclass(frozen=True)
class EvalReport:
    """One evaluation of a metric against a train/test split."""

    map_score: float
    knn_accuracy: float
    n_queries: int
    excluded_queries: int

    def scores(self):
        """The report's JSON entries."""
        return {"map": self.map_score, "knn_accuracy": self.knn_accuracy,
                "n_queries": self.n_queries, "excluded_queries": self.excluded_queries}


def require_scorable(train, test, k):
    """The split gate of train and eval: equal d, a query with a same-class peer, 1 <= k <= n."""
    if test.d != train.d:
        raise ValueError("train and test dimensions differ")
    if test.n < 2:
        raise ValueError("retrieval evaluation needs at least two test points")
    if np.bincount(test.labels).max() < 2:
        raise ValueError("no query had a same-class candidate")
    if not 1 <= k <= train.n:
        raise ValueError(f"k must be in [1, {train.n}]")


def sq_distance_blocks(X, Y=None):
    """Squared Euclidean distances from the columns of X to those of Y, in row blocks.

    The columns are embedded points L^T x, so these are the distances of
    the metric L L^T.  Yields ``(rows, D)``: ``D[r, t]`` is the distance
    from column ``rows.start + r`` of X to column t of Y (Y defaults to X).
    A block holds at most ``BLOCK_BYTES`` (at least one row), so memory
    stays bounded however many columns X has.
    """
    if Y is None:
        Y = X
    y_q = np.einsum("pt,pt->t", Y, Y)
    x_q = y_q if Y is X else np.einsum("pt,pt->t", X, X)
    step = max(1, BLOCK_BYTES // (8 * Y.shape[1]))
    for start in range(0, X.shape[1], step):
        rows = slice(start, start + step)
        K = X[:, rows].T @ Y
        # x + y - 2K in two blocks of the output's size instead of three
        D = x_q[rows, None] + y_q[None, :]
        K *= 2.0
        np.subtract(D, K, out=D)
        del K  # not held while the caller works on D
        yield rows, D


def ranking_map(L, test):
    """Mean average precision of the metric L L^T, plus query bookkeeping.

    Returns
    -------
    (float, int, int)
        (map, queries scored, queries excluded for lack of relevant points)
    """
    labels = test.labels
    ap_values = []
    excluded = 0
    for rows, dist in sq_distance_blocks(L.T @ test.points):
        queries = np.arange(test.n)[rows]
        # each query sorts first in its own row, ahead of every other point
        dist[np.arange(queries.size), queries] = -np.inf
        same = labels == labels[queries, None]
        ranked = np.sort(dist, axis=1)
        relevant = np.where(same, dist, np.inf)
        relevant.sort(axis=1)
        tied = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        counts = np.count_nonzero(same, axis=1) - 1  # the query's own entry is not retrieved
        for r, count in enumerate(counts.tolist()):
            if count == 0:
                excluded += 1
                continue
            if tied[r]:
                # equal (or NaN) values: rank by the stable order, as index order decides
                pos = np.flatnonzero(same[r, np.argsort(dist[r], kind="stable")[1:]]) + 1
            else:
                # one ascending order: a value's place in the sorted row is its rank
                pos = ranked[r].searchsorted(relevant[r, 1:count + 1])
            ap_values.append(sum((np.arange(1, count + 1) / pos).tolist()) / count)
    # builtin sum at both levels, as in the naive oracle, so the two agree bit
    # for bit on any Python (from 3.12 on, sum of floats is compensated and
    # no longer equals a left-to-right loop)
    return sum(ap_values) / len(ap_values), len(ap_values), excluded


def knn_accuracy(L, train, test, k):
    """Majority-vote k-NN accuracy of the metric L L^T.

    Equal computed distances resolve to the smaller training index (rounding
    may decide between copies of one point); vote ties to the smallest class
    id among the tied classes.
    """
    n_classes = train.n_classes
    correct = 0
    for rows, dist in sq_distance_blocks(L.T @ test.points, L.T @ train.points):
        nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(dist, nearest[:, k - 1:], axis=1)
        # the k smallest are one set unless ties straddle the k-th distance
        # (or it is NaN); there the first k of a stable sort decide
        for r in np.flatnonzero(np.count_nonzero(dist <= kth, axis=1) != k):
            nearest[r] = np.argsort(dist[r], kind="stable")[:k]
        offsets = np.arange(nearest.shape[0])[:, None] * n_classes
        votes = np.bincount((offsets + train.labels[nearest]).ravel(),
                            minlength=nearest.shape[0] * n_classes)
        predicted = votes.reshape(-1, n_classes).argmax(axis=1)
        correct += int(np.count_nonzero(predicted == test.labels[rows]))
    return correct / test.n


def evaluate_metric(L, train, test, k):
    """Score the metric L L^T into an :class:`EvalReport`; the one gate for evaluation."""
    if len(L) != train.d:
        raise ValueError(f"metric is {len(L)} x {len(L)} but the data have {train.d} features")
    require_scorable(train, test, k)
    if not np.isfinite(L).all():
        raise ValueError("metric has non-finite entries")
    acc = knn_accuracy(L, train, test, k)
    score, included, excluded = ranking_map(L, test)
    return EvalReport(map_score=score, knn_accuracy=acc, n_queries=included,
                      excluded_queries=excluded)
