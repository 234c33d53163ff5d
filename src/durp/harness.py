"""Verification harnesses for the two recovery guarantees.

Both harnesses build synthetic data at desk scale, solve the original
dual to near-exactness with the reference solver, and then compare
projected runs against it.  The published constants target far larger
regimes than any desk run, so alongside the measured errors the outputs
carry the literal bound curves for reference; headers say so explicitly.

Scaled vs mean-loss-scale gaps: the dual objective reported everywhere
is the N-scaled form, while ``duality_gap`` is per-triplet (mean-loss
scale).  Suboptimality targets ``eta`` are in the scaled form, so a run
certifies eta by driving the per-triplet gap below eta / N.

Smoothness convention: ``gamma`` in a :class:`LossModel` is the smoothing
width, making the loss derivative (1/gamma)-Lipschitz.  The recovery
bound wants the Lipschitz constant, so the harness uses 1/gamma there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import eigen_spectrum, load_libsvm, spectrum_csv
from .gram import kappa
from .metric import psd_project, recover_metric
from .projection import gaussian_matrix
from .reference import pga_solve
from .solver import LossModel, csdca_solve
from .synth import isotropic_cloud, margin_gapped_blobs
from .triplets import build_cache, differences, project_cache, sample_active_triplets

T1_ORACLE_GAP = 1e-9  # gap of the original-space solve the sweep is measured against
T1_RUN_GAP = 1e-8  # gap of each projected solve
T2_ORACLE_GAP_SCALE = 0.01  # oracle gap as a fraction of the eta it certifies against


@dataclass(frozen=True)
class HarnessConfig:
    """Shared knobs for both verification harnesses."""

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
        if not 1 <= self.r <= self.d:
            raise ValueError("need 1 <= r <= d")
        if self.n_triplets < 1:
            raise ValueError("n_triplets must be positive")
        outside = [m for m in self.m_sweep if not 1 <= m <= self.d]
        if outside:
            raise ValueError(
                f"every m in the sweep must lie in [1, d] = [1, {self.d}]; "
                f"out of range: {', '.join(map(str, outside))}"
            )
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.eta <= 0 or self.gamma <= 0:
            raise ValueError("eta and gamma must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")


def _sq_error(M_ref, M_hat):
    return float(np.linalg.norm(M_ref - M_hat)) / max(float(np.linalg.norm(M_ref)), 1e-30)


def verify_theorem1(config):
    """Low-rank recovery trend: error of the PSD-projected metric vs m.

    Generates exactly-rank-r data, solves the original dual once to high
    accuracy (hinge loss, lam = 1/N), then for every (m, seed) solves the
    projected dual, rebuilds the metric in the original space, and
    records the relative PSD-projected error.  Rows carry the literal
    sampling-condition curve (c = 1/3) for reference.

    Returns a dict with per-m summaries and all raw errors.
    """
    # margin-gapped data keeps the optimal active set stable under the
    # sketch distortion, so the error curve reflects m rather than noise
    data = margin_gapped_blobs(config.d, config.r, config.n, seed=config.seeds[0])
    triplets = sample_active_triplets(data, config.n_triplets, seed=config.seeds[0])
    cache = build_cache(data, triplets)
    n = cache.n
    lam = 1.0 / n
    loss = LossModel(kind="hinge")
    oracle = pga_solve(cache, loss, lam, gap_tol=T1_ORACLE_GAP)
    M_star = psd_project(recover_metric(oracle.alpha, cache, lam))

    rows = []
    errors = {}
    for m in config.m_sweep:
        errs = []
        for seed in config.seeds:
            R = gaussian_matrix(config.d, m, seed)
            projected = project_cache(cache, R)
            run = pga_solve(projected, loss, lam, gap_tol=T1_RUN_GAP)
            M_hat = psd_project(recover_metric(run.alpha, cache, lam))
            errs.append(_sq_error(M_star, M_hat))
        errs = np.array(errs)
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
        errors[m] = errs
    return {"rows": rows, "errors": errors, "oracle_gap": oracle.gap}


def theorem1_csv(result):
    lines = [
        "# low-rank recovery trend; bound columns are the literal sampling-condition",
        "# curve (c=1/3), quoted for reference only -- desk-scale m cannot meet it",
        "m,e_median,e_q25,e_q75,eps_ref,bound_ref",
    ]
    for row in result["rows"]:
        lines.append(
            "%d,%.17g,%.17g,%.17g,%.17g,%.17g"
            % (row["m"], row["e_median"], row["e_q25"], row["e_q75"],
               row["eps_ref"], row["bound_ref"])
        )
    return "\n".join(lines) + "\n"


def smooth_recovery_m(n_triplets, delta, epsilon=0.5):
    """Smallest m meeting the smooth-case sampling condition for a target epsilon."""
    return int(np.ceil(8.0 / epsilon**2 * np.log(8.0 * n_triplets / delta)))


def verify_theorem2(config, m=None):
    """Smooth-loss dual recovery: measured ||alpha* - alpha_hat|| vs its bound.

    Fixes one full-rank dataset and triplet set, solves the original dual
    (smoothed hinge, lam = 1/N) to well below eta, then for each seed
    draws a fresh projection, runs the production solver to certified
    suboptimality eta, and checks

        ||alpha* - alpha_hat|| <= max(8 eps L kappa ||alpha*||, sqrt(2 L eta))

    with L = 1/gamma the loss-derivative Lipschitz constant and eps taken
    from the sampling condition at the configured delta.
    """
    data = isotropic_cloud(config.d, config.n, n_classes=4, seed=config.seeds[0])
    triplets = sample_active_triplets(data, config.n_triplets, seed=config.seeds[0])
    cache = build_cache(data, triplets)
    n = cache.n
    lam = 1.0 / n
    loss = LossModel(kind="smoothed_hinge", gamma=config.gamma)
    lipschitz = 1.0 / config.gamma
    if m is None:
        m = smooth_recovery_m(n, config.delta)
    if m < 1:
        raise ValueError(f"m must be positive, got m = {m}")
    if m > config.d:
        raise ValueError(f"sampling condition needs m = {m} <= d = {config.d}")
    epsilon = np.sqrt(8.0 * np.log(8.0 * n / config.delta) / m)

    oracle = pga_solve(cache, loss, lam, gap_tol=T2_ORACLE_GAP_SCALE * config.eta / n)
    alpha_star = oracle.alpha
    alpha_norm = float(np.linalg.norm(alpha_star))
    stats = kappa(*differences(cache))

    rows = []
    for seed in config.seeds:
        R = gaussian_matrix(config.d, m, seed)
        projected = project_cache(cache, R)
        run = csdca_solve(projected, loss, lam, epochs=2, seed=seed,
                          gap_tol=config.eta / n, max_epochs=500)
        measured = float(np.linalg.norm(alpha_star - run.alpha))
        eps_term = 8.0 * epsilon * lipschitz * stats.kappa * alpha_norm
        eta_term = float(np.sqrt(2.0 * lipschitz * config.eta))
        bound = max(eps_term, eta_term)
        rows.append(
            {
                "m": m,
                "seed": seed,
                "epsilon": float(epsilon),
                "kappa": stats.kappa,
                "eta": config.eta,
                "alpha_norm": alpha_norm,
                "measured": measured,
                "eps_term": eps_term,
                "eta_term": eta_term,
                "bound": bound,
                "satisfied": bool(measured <= bound),
            }
        )
    return {"rows": rows, "kappa_stats": stats, "oracle_gap": oracle.gap, "m": m}


def theorem2_csv(result):
    lines = [
        "# smooth-loss dual recovery; bound = max(eps term, eta term) per seed",
        "m,seed,epsilon,kappa,eta,alpha_norm,measured,eps_term,eta_term,bound,satisfied",
    ]
    for row in result["rows"]:
        lines.append(
            "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d"
            % (
                row["m"], row["seed"], row["epsilon"], row["kappa"], row["eta"],
                row["alpha_norm"], row["measured"], row["eps_term"], row["eta_term"],
                row["bound"], int(row["satisfied"]),
            )
        )
    return "\n".join(lines) + "\n"


def emit_spectrum(data_path):
    """Spectrum CSV for a dataset on disk (see :func:`durp.data.eigen_spectrum`)."""
    data, _ = load_libsvm(data_path)
    spectrum, normalized = eigen_spectrum(data)
    if not normalized:
        raise ValueError("degenerate dataset: zero total variance")
    return spectrum_csv(spectrum)
