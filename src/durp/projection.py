"""Random, PCA, and identity projection matrices.

The Gaussian construction draws entries N(0, 1/m) so that x -> R^T x
preserves squared norms in expectation.  The generator is numpy's PCG64
via ``default_rng``; the name is recorded so a projection is fully
reconstructible from (d, m, seed, generator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATOR_NAME = "numpy-default-rng-pcg64"


@dataclass(frozen=True)
class ProjectionMatrix:
    """A d x m projection with provenance (kind and, for gaussian, seed)."""

    entries: np.ndarray
    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise ValueError("projection entries must be a 2-d array")
        if self.kind not in ("gaussian", "pca", "identity"):
            raise ValueError(f"unknown projection kind {self.kind!r}")

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]


def gaussian_matrix(d, m, seed):
    """Draw a d x m matrix with i.i.d. N(0, 1/m) entries, deterministic in seed."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    rng = np.random.default_rng(seed)
    entries = rng.normal(0.0, 1.0 / np.sqrt(m), size=(d, m))
    return ProjectionMatrix(entries=entries, kind="gaussian", seed=seed)


def identity_matrix(d):
    """The identity embedding; projecting with it is a no-op."""
    if d < 1:
        raise ValueError("d must be positive")
    return ProjectionMatrix(entries=np.eye(d), kind="identity", seed=None)


def pca_matrix(basis):
    """Wrap a fitted PCA basis as a projection (columns already orthonormal)."""
    return ProjectionMatrix(entries=basis.basis, kind="pca", seed=None)

