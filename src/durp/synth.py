"""Synthetic labeled datasets for the verification harnesses and tests."""

from __future__ import annotations

import numpy as np

from .data import LabeledDataset

MEAN_GAP = 3.0  # gaussian_blobs: expected distance between class means, in units of noise

# margin_gapped_blobs geometry
GAP_SCALE = 0.15  # simplex radius: close-pair margins ~ 0.6
GAP_EDGE_MULT = 4.0  # far-class offset along an edge: its margins >= 1.9
GAP_JITTER = 0.02  # within-class spread relative to GAP_SCALE


def _round_robin_labels(n, n_classes):
    return np.arange(n, dtype=np.int64) % n_classes


def gaussian_blobs(d, n, n_classes, seed, noise=1.0):
    """Isotropic Gaussian blobs whose class means sit ``MEAN_GAP * noise`` apart.

    Means are drawn isotropically with scale MEAN_GAP * noise / sqrt(2 d),
    so the expected distance between two class means is MEAN_GAP * noise.
    """
    if n_classes < 2 or n < 2 * n_classes:
        raise ValueError("need at least two classes with two points each")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, MEAN_GAP * noise / np.sqrt(2 * d), size=(d, n_classes))
    labels = _round_robin_labels(n, n_classes)
    points = means[:, labels] + rng.normal(0.0, noise, size=(d, n))
    return LabeledDataset(points, labels)


def _simplex_vertices(k):
    """k unit vectors in R^(k-1) with equal pairwise angles (a centered simplex)."""
    pts = np.eye(k) - 1.0 / k
    q, _ = np.linalg.qr(pts.T)
    verts = pts @ q[:, : k - 1]
    return (verts / np.linalg.norm(verts, axis=1, keepdims=True)).T


def margin_gapped_blobs(d, r, n, seed):
    """Rank-r blobs whose learned-metric margins avoid the unit threshold.

    Three tight classes sit on a centered simplex of radius ``GAP_SCALE`` inside
    a random rank-r subspace; a fourth class sits further out along one edge
    direction of that simplex.  At the dual optimum the close-pair triplets
    are all strongly violated and the far-class triplets are all strongly
    satisfied, so the active set has a wide stability margin: moderate
    distortion of the triplet geometry leaves the optimal dual point (and
    hence the recovered metric) unchanged.  The recovery-trend harness
    relies on this to expose sketch-size effects instead of data noise.
    """
    if not 2 <= r <= d:
        raise ValueError("need 2 <= r <= d")
    if n < 8:
        raise ValueError("need at least two points per class")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(d, r)))
    tri = _simplex_vertices(3)
    verts = np.zeros((r, 4))
    verts[:2, :3] = tri
    edge = tri[:, 0] - tri[:, 1]
    verts[:2, 3] = GAP_EDGE_MULT * edge / np.linalg.norm(edge)
    means = GAP_SCALE * verts
    labels = _round_robin_labels(n, 4)
    latent = means[:, labels] + rng.normal(0.0, GAP_SCALE * GAP_JITTER, size=(r, n))
    return LabeledDataset(basis @ latent, labels)


def isotropic_cloud(d, n, n_classes, seed):
    """Full-rank isotropic cloud with random labels, scaled for spectral checks.

    The per-coordinate scale sigma = (2 d^1.5)^(-1/2) makes squared
    difference norms concentrate near 1/sqrt(d), which puts the Gram
    spectral summary at the N/d magnitude the theory quotes for isotropic
    data.  Label structure is uninformative by design; these clouds
    exercise dual recovery, not generalization.
    """
    if n_classes < 2 or n < 2 * n_classes:
        raise ValueError("need at least two classes with two points each")
    rng = np.random.default_rng(seed)
    sigma = 1.0 / np.sqrt(2.0 * d**1.5)
    points = rng.normal(0.0, sigma, size=(d, n))
    labels = _round_robin_labels(n, n_classes)
    return LabeledDataset(points, labels)
