"""Dataset container, LIBSVM round trips, the metric factor file, PCA, and the covariance
spectrum."""

import numpy as np
import pytest

from durp import cli
from durp.data import (LabeledDataset, ParseError, eigen_spectrum, load_metric, parse_libsvm,
                       pca_fit, save_metric)

from oracles import serialize_libsvm


def test_dataset_validation():
    good = LabeledDataset(np.zeros((3, 4)), np.zeros(4, dtype=np.int64))
    assert good.d == 3 and good.n == 4 and good.n_classes == 1
    with pytest.raises(ValueError, match="points must be a 2-d array"):
        LabeledDataset(np.zeros(3), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="labels must be 1-d with one entry per point column"):
        LabeledDataset(np.zeros((3, 4)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="no features"):
        LabeledDataset(np.zeros((0, 4)), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="points must be finite"):
        LabeledDataset(np.full((2, 2), np.nan), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="labels must be nonnegative integers"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, -1]))


def test_dataset_points_are_c_contiguous_float64():
    data = LabeledDataset(np.asfortranarray(np.ones((3, 5), dtype=np.float32)),
                          np.zeros(5, dtype=np.int64))
    assert data.points.dtype == np.float64
    assert data.points.flags["C_CONTIGUOUS"]


def test_parse_basic_and_label_remap():
    text = "3 1:0.5 3:-2\n7 2:1\n3 1:1 2:2 3:3\n"
    data, label_map = parse_libsvm(text)
    assert data.d == 3 and data.n == 3
    assert label_map == {3.0: 0, 7.0: 1}
    assert data.labels.tolist() == [0, 1, 0]
    expected = np.array([[0.5, 0.0, 1.0], [0.0, 1.0, 2.0], [-2.0, 0.0, 3.0]])
    assert np.array_equal(data.points, expected)


def test_parse_extends_a_training_label_map():
    train_map = {3.0: 0, 7.0: 1, 9.0: 2}
    data, label_map = parse_libsvm("9 1:1\n11 1:2\n7 1:3\n5 1:4\n", label_map=train_map)
    # known labels keep their ids, unseen ones follow in ascending order
    assert label_map == {3.0: 0, 7.0: 1, 9.0: 2, 5.0: 3, 11.0: 4}
    assert data.labels.tolist() == [2, 4, 1, 3]
    assert train_map == {3.0: 0, 7.0: 1, 9.0: 2}


def test_parse_blank_and_label_only_lines():
    data, _ = parse_libsvm("\n1 1:2 3:4\n  \n2\n\n1 2:5\n")
    assert data.labels.tolist() == [0, 1, 0]
    # the label-only line is a zero column; blank lines are no column at all
    assert np.array_equal(data.points, [[2.0, 0.0, 0.0], [0.0, 0.0, 5.0], [4.0, 0.0, 0.0]])
    with pytest.raises(ParseError, match="line 4: indices are 1-based"):
        parse_libsvm("\n1 1:1\n\n2 0:3\n")


def test_parse_d_override():
    data, _ = parse_libsvm("1 1:1\n", d=5)
    assert data.d == 5
    with pytest.raises(ParseError, match="feature index 4 exceeds d = 3"):
        parse_libsvm("1 1:1 4:2\n", d=3)


def test_parse_rejects_malformed_lines():
    cases = [
        ("abc 1:1\n", "line 1: bad label"),
        ("1 1:1\n2 0:3\n", "line 2: indices are 1-based"),
        ("1 2:1 2:2\n", "strictly increasing"),
        ("1 3:1 2:2\n", "strictly increasing"),
        ("1 1\n", "expected index:value"),
        ("1 1:x\n", "bad feature entry"),
        ("1 1:inf\n", "non-finite"),
        ("nan 1:1\n", "label must be finite"),
        ("", "no data lines"),
        ("\n\n", "no data lines"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError, match=message):
            parse_libsvm(text)


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)


def test_serialize_skips_zeros_and_round_trips():
    rng = np.random.default_rng(0)
    for trial in range(10):
        d, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        points = rng.normal(size=(d, n))
        points[rng.random(size=points.shape) < 0.4] = 0.0
        labels = rng.integers(0, 3, size=n)
        data = LabeledDataset(points, labels)
        text = serialize_libsvm(data)
        assert ":0 " not in text and ":0\n" not in text
        back, _ = parse_libsvm(text, d=d)
        assert np.array_equal(back.points, data.points)  # %.17g is lossless
        # labels come back remapped to contiguous ids, rank-order preserved
        assert np.array_equal(back.labels, np.unique(data.labels, return_inverse=True)[1])


def test_metric_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "metric.bin"
    for L in (rng.normal(size=(6, 3)), np.zeros((6, 0)), np.zeros((0, 0))):
        save_metric(path, L)
        back = load_metric(path)
        assert back.shape == L.shape
        assert back.tobytes() == L.tobytes()  # the factor file is bit-exact
    save_metric(path, rng.normal(size=(6, 3)))
    raw = path.read_bytes()
    assert len(raw) == 16 + 6 * 3 * 8  # d and r, then the entries
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload has 136 bytes, expected 144 for a 6 x 3"):
        load_metric(path)
    path.write_bytes(raw[:12])
    with pytest.raises(ValueError, match="truncated"):
        load_metric(path)


def test_pca_primal_and_dual_paths_agree():
    rng = np.random.default_rng(1)
    # tall data (d > n) exercises the Gram path; wide data the covariance path
    for d, n in ((30, 10), (10, 30)):
        points = rng.normal(size=(d, n))
        data = LabeledDataset(points, np.zeros(n, dtype=np.int64))
        k = 5
        basis, values = pca_fit(data, k)
        assert basis.shape == (d, k) and values.shape == (k,)
        assert np.allclose(basis.T @ basis, np.eye(k), atol=1e-10)
        assert np.all(np.diff(values) <= 1e-12)
        assert np.all(values >= 0)
        # eigenpairs of the centered covariance
        centered = points - points.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / n
        for j in range(k):
            residual = cov @ basis[:, j] - values[j] * basis[:, j]
            assert np.linalg.norm(residual) < 1e-8


def test_pca_recovers_planted_subspace():
    rng = np.random.default_rng(2)
    d, n, k = 20, 200, 3
    basis, _ = np.linalg.qr(rng.normal(size=(d, k)))
    latent = rng.normal(size=(k, n)) * np.array([[5.0], [3.0], [2.0]])
    points = basis @ latent + 0.01 * rng.normal(size=(d, n))
    fitted, _ = pca_fit(LabeledDataset(points, np.zeros(n, dtype=np.int64)), k)
    # projector distance, invariant to basis rotation
    P_true = basis @ basis.T
    P_fit = fitted @ fitted.T
    assert np.linalg.norm(P_true - P_fit) < 0.05


def test_pca_rank_deficient_data_keeps_only_directions_of_variance():
    # rank-1 data, ask for 3 directions: one column with a positive eigenvalue,
    # on the covariance route (d <= n) and on the Gram route (d > n)
    rng = np.random.default_rng(4)
    for d, n in ((8, 20), (20, 8)):
        u = rng.normal(size=(d, 1))
        points = u @ rng.normal(size=(1, n))
        data = LabeledDataset(points, np.zeros(n, dtype=np.int64))
        basis, values = pca_fit(data, 3)
        assert basis.shape == (d, 1) and values.shape == (1,)
        assert values[0] > 0
        assert abs(np.linalg.norm(basis[:, 0]) - 1.0) < 1e-10
        assert abs(abs(basis[:, 0] @ u[:, 0]) - np.linalg.norm(u)) < 1e-10
        again, _ = pca_fit(data, 3)
        assert np.array_equal(basis, again)


def test_pca_refuses_zero_variance_data():
    data = LabeledDataset(np.full((3, 5), 2.0), np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError, match="degenerate dataset: zero total variance"):
        pca_fit(data, 2)


def test_constant_features_are_refused_whatever_their_mean_rounds_to():
    # constant 0.1 or 1/3 centers to rounding noise rather than zeros, and the
    # refusal must not depend on that; variance that underflows is refused too
    cases = [np.full((3, n), v) for v in (0.1, 1.0 / 3.0, 2.0, 0.3) for n in (7, 100, 1000)]
    cases.append(np.random.default_rng(6).normal(size=(4, 10)) * 1e-170)
    for points in cases:
        data = LabeledDataset(points, np.zeros(points.shape[1], dtype=np.int64))
        with pytest.raises(ValueError, match="degenerate dataset: zero total variance"):
            pca_fit(data, 2)
        with pytest.raises(ValueError, match="degenerate dataset: zero total variance"):
            eigen_spectrum(data)


def test_eigen_spectrum_normalization():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(5, 30))
    spectrum = eigen_spectrum(LabeledDataset(points, np.zeros(30, dtype=np.int64)))
    assert spectrum.shape == (5,)
    assert np.all(np.diff(spectrum) <= 1e-12)
    assert abs(spectrum.sum() - 1.0) < 1e-12

    flat = LabeledDataset(np.ones((3, 4)), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="zero total variance"):
        eigen_spectrum(flat)  # centered data is all zero


def test_eigen_spectrum_matches_the_singular_values_and_pca():
    # one covariance eigensolve for both: squared singular values of the
    # centered points, normalized, and pca_fit's eigenvalues up to scale
    rng = np.random.default_rng(7)
    for d, n in ((12, 40), (40, 12)):
        points = rng.normal(size=(d, n)) * rng.uniform(0.1, 3.0, size=(d, 1))
        data = LabeledDataset(points, np.zeros(n, dtype=np.int64))
        spectrum = eigen_spectrum(data)
        singular = np.linalg.svd(points - points.mean(axis=1, keepdims=True), compute_uv=False)
        reference = singular**2 / np.sum(singular**2)
        assert spectrum.shape == reference.shape == (min(d, n),)
        large = reference > 1e-12
        assert np.allclose(spectrum[large], reference[large], rtol=1e-13, atol=0)
        assert np.all(spectrum >= 0)
        values = pca_fit(data, 5)[1]
        assert np.allclose(spectrum[:5], values / values.sum() * spectrum[:5].sum(), rtol=1e-13)


def test_spectrum_csv_format(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "eigen_spectrum", lambda data: np.array([0.75, 0.25]))
    path = tmp_path / "data.svm"
    path.write_text("1 1:0 2:1\n2 1:1 2:0\n")
    assert cli.main(["spectrum", "--train-file", str(path)]) == 0
    text = capsys.readouterr().out
    assert text == "rank,normalized_eigenvalue\n1,0.75\n2,0.25\n"
    lines = text.strip().splitlines()
    assert lines[0] == "rank,normalized_eigenvalue"
    assert lines[1].startswith("1,")
    assert len(lines) == 3
