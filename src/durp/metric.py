"""Metric recovery, PSD projection, blocked pairwise distances, and the factor file.

Recovery rebuilds the full-dimension metric from dual variables, the
triplet indices and the *original* points, so only one PSD projection is
ever needed at the end of the pipeline.  That metric lies in the span of
the points, so it can also be recovered and factored in the coordinates of
any orthonormal basis whose range holds the points: training uses the
thin QR of the points when they number at most d/2, and theorem 1 the
rank-revealing :func:`span_basis`.
"""

from __future__ import annotations

import struct

import numpy as np

from .solver import accumulator

BLOCK_BYTES = 2 << 20  # cap on one block of squared distances; 2-4 MiB ran fastest of 0.5-8 MiB


def recover_metric(alpha, cache, lam):
    """M = -S / (lam N) with S = sum_t alpha_t (u_t u_t^T - v_t v_t^T) over the cache's space."""
    S = accumulator(cache, alpha)
    S /= -(lam * cache.n)  # in place, with the bits of -S / (lam N)
    return S


def span_basis(points):
    """Orthonormal d x q basis of the span of the d x n ``points``, q <= min(d, n).

    A metric recovered from these points lies in their span, so it can be
    recovered and factored in the q coordinates of this basis.  Its columns
    are the left singular vectors whose singular values exceed numpy's
    ``matrix_rank`` tolerance max(d, n) * eps * s_max.  ``verify_theorem1``
    needs q to be the rank, which sets the dimension its sketched solves
    share; training needs only a range that holds the points and takes the
    thin QR, which took 0.06 s against this SVD's 0.17 s at d = 1024, n = 500
    (2-core x86-64, OpenBLAS 0.3.31).
    """
    d, n = points.shape
    U, s, _ = np.linalg.svd(points, full_matrices=False)
    return U[:, s > max(d, n) * np.finfo(float).eps * s.max(initial=0.0)]


def psd_project(M):
    """Factor of the nearest positive-semidefinite matrix in Frobenius norm.

    Eigendecomposes the symmetric M (``eigh`` reads its lower triangle) and returns
    L = V+ sqrt(Lambda+), d x r+ with one column per eigenvalue above numpy's
    ``matrix_rank`` tolerance d * eps * max(Lambda): the projection is L L^T.
    """
    if not np.isfinite(M).all():  # eigh gives NaN eigenvalues, and the cut-off keeps none
        raise ValueError("metric has non-finite entries")
    eigvals, eigvecs = np.linalg.eigh(M)
    tol = len(M) * np.finfo(float).eps * eigvals.max(initial=0.0)
    first = int(np.searchsorted(eigvals, tol, side="right"))  # eigh sorts ascending
    return eigvecs[:, first:] * np.sqrt(eigvals[first:])


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
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(d, r).astype(np.float64)
