"""Gaussian projection matrices."""

import numpy as np
import pytest

from durp.projection import GENERATOR_NAME, gaussian_matrix


def test_gaussian_matrix_statistics():
    R = gaussian_matrix(200, 50, seed=0)
    assert R.shape == (200, 50)
    # entries ~ N(0, 1/m): mean near 0, variance near 1/50
    assert abs(R.mean()) < 3.0 / np.sqrt(200 * 50 * 50)
    assert abs(R.var() * 50 - 1.0) < 0.05


def test_gaussian_matrix_determinism_and_validation():
    a = gaussian_matrix(10, 3, seed=7)
    b = gaussian_matrix(10, 3, seed=7)
    c = gaussian_matrix(10, 3, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    for d, m in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            gaussian_matrix(d, m, seed=0)
    assert GENERATOR_NAME == "numpy-default-rng-pcg64"
