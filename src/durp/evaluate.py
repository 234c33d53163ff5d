"""Retrieval (mean average precision) and k-NN evaluation of a learned metric.

Every test point queries the remaining test points, ranked by ascending
metric distance.  A retrieved point is relevant when it shares the query's
class.  Queries with no relevant candidates are dropped from the average.
Ties are deterministic: equal distances keep index order (stable sort),
k-NN vote ties go to the smallest class id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .metric import pairwise_sq_distances


@dataclass(frozen=True)
class EvalReport:
    """One evaluation of a metric against a train/test split."""

    map_score: float
    knn_accuracy: float
    k: int
    n_queries: int
    excluded_queries: int

    def to_json(self):
        return json.dumps(
            {
                "map": self.map_score,
                "knn_accuracy": self.knn_accuracy,
                "k": self.k,
                "n_queries": self.n_queries,
                "excluded_queries": self.excluded_queries,
            },
            indent=2,
        )


def ranking_map(M, test):
    """Mean average precision plus query bookkeeping.

    Returns
    -------
    (float, int, int)
        (map, queries scored, queries excluded for lack of relevant points)
    """
    if test.n < 2:
        raise ValueError("retrieval evaluation needs at least two test points")
    dist = pairwise_sq_distances(M, test.points)
    labels = test.labels
    ap_values = []
    excluded = 0
    for i in range(test.n):
        other_labels = np.delete(labels, i)
        relevant = other_labels == labels[i]
        if not relevant.any():
            excluded += 1
            continue
        order = np.argsort(np.delete(dist[i], i), kind="stable")
        hits = relevant[order]
        ranks = np.flatnonzero(hits) + 1
        precisions = np.arange(1, ranks.size + 1) / ranks
        ap_values.append(sum(precisions.tolist()) / precisions.size)
    if not ap_values:
        raise ValueError("no query had a same-class candidate")
    # builtin sum at both levels, as in the naive oracle, so the two agree bit
    # for bit on any Python (from 3.12 on, sum of floats is compensated and
    # no longer equals a left-to-right loop)
    return sum(ap_values) / len(ap_values), len(ap_values), excluded


def knn_accuracy(M, train, test, k):
    """Majority-vote k-NN accuracy of metric M.

    Distance ties resolve to the smaller training index; vote ties to the
    smallest class id among the tied classes.
    """
    if not 1 <= k <= train.n:
        raise ValueError(f"k must be in [1, {train.n}]")
    if train.d != test.d:
        raise ValueError("train and test dimensions differ")
    dist = pairwise_sq_distances(M, test.points, train.points)
    n_classes = int(train.labels.max()) + 1
    correct = 0
    for i in range(test.n):
        nearest = np.argsort(dist[i], kind="stable")[:k]
        votes = np.bincount(train.labels[nearest], minlength=n_classes)
        if votes.argmax() == test.labels[i]:
            correct += 1
    return correct / test.n


def evaluate_metric(M, train, test, k):
    """Bundle retrieval and k-NN results into an :class:`EvalReport`."""
    if M.shape != (train.d, train.d):
        raise ValueError(
            f"metric is {M.shape[0]} x {M.shape[1]} but the data have {train.d} features"
        )
    score, included, excluded = ranking_map(M, test)
    acc = knn_accuracy(M, train, test, k)
    return EvalReport(
        map_score=float(score),
        knn_accuracy=float(acc),
        k=int(k),
        n_queries=int(included),
        excluded_queries=int(excluded),
    )
