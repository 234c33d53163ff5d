"""Gaussian random projections.

A projection is a plain d x m array R; points map as x -> R^T x.  The
Gaussian construction draws entries N(0, 1/m) so that the map preserves
squared norms in expectation.  The generator is numpy's PCG64 via
``default_rng``; the name is recorded so a projection is fully
reconstructible from (d, m, seed, generator).
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "numpy-default-rng-pcg64"


def gaussian_matrix(d, m, seed):
    """Draw a d x m array with i.i.d. N(0, 1/m) entries, deterministic in seed."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(m), size=(d, m))
