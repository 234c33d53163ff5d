"""Projection matrices: Gaussian sketches, identity, and PCA bases."""

import numpy as np
import pytest

from durp.data import LabeledDataset, pca_fit
from durp.projection import (
    GENERATOR_NAME,
    ProjectionMatrix,
    gaussian_matrix,
    identity_matrix,
    pca_matrix,
)


def test_projection_matrix_validation():
    with pytest.raises(ValueError, match="2-d"):
        ProjectionMatrix(np.zeros(3), kind="gaussian", seed=0)
    with pytest.raises(ValueError, match="unknown projection kind"):
        ProjectionMatrix(np.zeros((3, 2)), kind="fourier", seed=0)
    proj = ProjectionMatrix(np.zeros((5, 2)), kind="gaussian", seed=1)
    assert proj.d == 5 and proj.m == 2


def test_gaussian_matrix_statistics():
    proj = gaussian_matrix(200, 50, seed=0)
    assert proj.entries.shape == (200, 50)
    assert proj.kind == "gaussian" and proj.seed == 0
    # entries ~ N(0, 1/m): mean near 0, variance near 1/50
    assert abs(proj.entries.mean()) < 3.0 / np.sqrt(200 * 50 * 50)
    assert abs(proj.entries.var() * 50 - 1.0) < 0.05


def test_gaussian_matrix_determinism_and_validation():
    a = gaussian_matrix(10, 3, seed=7)
    b = gaussian_matrix(10, 3, seed=7)
    c = gaussian_matrix(10, 3, seed=8)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    for d, m in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            gaussian_matrix(d, m, seed=0)
    assert GENERATOR_NAME == "numpy-default-rng-pcg64"


def test_identity_matrix():
    proj = identity_matrix(4)
    assert proj.kind == "identity"
    assert np.array_equal(proj.entries, np.eye(4))
    with pytest.raises(ValueError):
        identity_matrix(0)


def test_pca_matrix_wraps_fitted_basis():
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.normal(size=(8, 40)), np.zeros(40, dtype=np.int64))
    fit = pca_fit(data, 3)
    proj = pca_matrix(fit)
    assert proj.kind == "pca"
    assert np.array_equal(proj.entries, fit.basis)
