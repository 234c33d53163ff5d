"""Labeled dataset container, the on-disk layouts, PCA, and spectrum diagnostics.

Points are stored column-wise: ``points[:, i]`` is the i-th example.  Labels are
contiguous 0-based integer class ids; :func:`parse_libsvm` remaps whatever label
values appear in the input and returns the mapping it used; :func:`load_split`
reads a train/test pair that shares the training file's map.  A learned
metric is stored as its d x r factor (:func:`save_metric`, :func:`load_metric`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Raised when a LIBSVM text stream violates the expected format."""


@dataclass(frozen=True)
class LabeledDataset:
    """A d x n matrix of points (one column per example) plus integer labels.

    Parameters
    ----------
    points : ndarray of shape (d, n)
        Feature matrix, float64, all entries finite.
    labels : ndarray of shape (n,)
        Nonnegative integer class ids.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array (d rows, n columns)")
        if points.shape[0] == 0:
            raise ValueError("points have no features (d = 0)")
        if labels.ndim != 1 or labels.shape[0] != points.shape[1]:
            raise ValueError(
                "labels must be 1-d with one entry per point column "
                f"(got {labels.shape} labels for {points.shape[1]} points)"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be nonnegative integers")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def d(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def parse_libsvm(text, d=None, label_map=None):
    """Parse LIBSVM-format text into a dataset.

    Each nonempty line is ``<label> <index>:<value> ...`` with 1-based,
    strictly increasing indices.  Labels are remapped (sorted ascending) to
    contiguous 0-based ids.

    Parameters
    ----------
    text : str
        The file contents.
    d : int, optional
        Feature dimension.  Defaults to the largest index seen;
        must be at least that large when given.
    label_map : dict, optional
        A mapping to extend, e.g. the training file's, so that a test file
        shares its class ids: known labels keep their ids and unseen ones
        get the next free ids in ascending order.

    Returns
    -------
    (LabeledDataset, dict)
        The dataset and the mapping from original label value to class id.
    """
    raw_labels = []
    rows, cols, values = [], [], []  # one entry per stored feature value
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(f"line {lineno}: label must be finite")
        col = len(raw_labels)
        prev_index = 0
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected index:value, got {token!r}")
            try:
                index = int(head)
                value = float(tail)
            except ValueError:
                raise ParseError(f"line {lineno}: bad feature entry {token!r}") from None
            if index < 1:
                raise ParseError(f"line {lineno}: indices are 1-based, got {index}")
            if index <= prev_index:
                raise ParseError(
                    f"line {lineno}: indices must be strictly increasing "
                    f"({index} after {prev_index})"
                )
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: non-finite value in {token!r}")
            prev_index = index
            rows.append(index - 1)
            cols.append(col)
            values.append(value)
        max_index = max(max_index, prev_index)
        raw_labels.append(label)
    if not raw_labels:
        raise ParseError("no data lines found")
    if d is None:
        d = max_index
    elif d < max_index:
        raise ParseError(f"feature index {max_index} exceeds d = {d}")
    points = np.zeros((d, len(raw_labels)))
    points[rows, cols] = values
    # G is quartic in the features: within [1e-70, 1e70] its entries stay normal floats
    top = np.abs(points).max(initial=0.0)
    if top and not 1e-70 <= top <= 1e70:
        raise ParseError(f"largest |value| {top:.3g} is outside [1e-70, 1e70]")
    label_map = dict(label_map or {})
    next_id = max(label_map.values(), default=-1) + 1
    for value in sorted(set(raw_labels) - set(label_map)):
        label_map[value] = next_id
        next_id += 1
    labels = np.array([label_map[v] for v in raw_labels], dtype=np.int64)
    return LabeledDataset(points, labels), label_map


def load_libsvm(path, d=None, label_map=None):
    """Read a LIBSVM file; see :func:`parse_libsvm`.  Errors its contents cause name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_libsvm(fh.read(), d=d, label_map=label_map)
    except ValueError as exc:  # ParseError, UnicodeDecodeError, LabeledDataset's checks
        raise ParseError(f"{path}: {exc}") from None
    except MemoryError as exc:
        raise MemoryError(f"{path}: {exc}") from None


def load_split(train_path, test_path):
    """Read a train/test pair of LIBSVM files; the test file takes the training d and label map."""
    train, label_map = load_libsvm(train_path)
    test, _ = load_libsvm(test_path, d=train.d, label_map=label_map)
    return train, test


def save_metric(path, L):
    """Write the d x r factor L of L L^T: d, r as u64, then d*r f64 row-major, little-endian."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<2Q", *L.shape) + L.astype("<f8", copy=False).tobytes())


def load_metric(path):
    """Read the d x r factor written by :func:`save_metric`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError("truncated metric file (missing d x r header)")
    d, r = struct.unpack_from("<2Q", raw)
    if len(raw) - 16 != d * r * 8:
        raise ValueError(f"metric payload has {len(raw) - 16} bytes, expected {d * r * 8} "
                         f"for a {d} x {r} factor")
    if max(d, 1) * max(r, 1) * 8 > np.iinfo(np.intp).max:  # numpy's array size cap
        raise ValueError(f"metric header {d} x {r} is larger than any array can hold")
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(d, r).astype(np.float64)


def _covariance_eigh(data):
    """Covariance eigenpairs of the point cloud, eigenvalues ascending.

    Runs ``eigh`` on the smaller of the d x d covariance and the n x n Gram
    system of the centered points, and returns ``(centered, eigvals,
    eigvecs)``; the eigenvectors are the Gram system's when d > n.  Raises
    ValueError when the variance underflows or no feature varies, decided on
    the points: a constant feature can center to rounding noise, not zeros.
    """
    centered = data.points - data.points.mean(axis=1, keepdims=True)
    system = centered.T @ centered if data.d > data.n else centered @ centered.T
    eigvals, eigvecs = np.linalg.eigh(system / data.n)
    if not (np.ptp(data.points, axis=1).any() and eigvals[-1] > 0.0):
        raise ValueError("degenerate dataset: zero total variance")
    return centered, eigvals, eigvecs


def pca_fit(data, k):
    """Top principal directions of the (centered) point cloud.

    Returns ``(basis, eigenvalues)`` for those of the top k in [1, min(d, n)]
    covariance eigenpairs whose eigenvalue exceeds 1e-12 of the largest:
    ``basis`` is d x r with r <= k orthonormal columns, and ``eigenvalues``
    the r positive eigenvalues, nonincreasing.  Raises ValueError when no feature varies.
    """
    centered, eigvals, eigvecs = _covariance_eigh(data)
    order = np.argsort(eigvals)[::-1][:k]
    order = order[eigvals[order] > eigvals[order[0]] * 1e-12]
    values, vectors = eigvals[order], eigvecs[:, order]
    if data.d > data.n:
        # covariance eigenvector recovered as centered @ w / sqrt(n * eigval)
        vectors = centered @ vectors / np.sqrt(data.n * values)
    return vectors, values


def eigen_spectrum(data):
    """Normalized covariance spectrum of the centered point cloud.

    Returns the min(d, n) eigenvalues, nonincreasing and summing to 1, with
    rounding-size negatives set to 0.  Raises ValueError when no feature
    varies.
    """
    spectrum = np.maximum(_covariance_eigh(data)[1][::-1], 0.0)
    return spectrum / spectrum.sum()
