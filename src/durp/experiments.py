"""End-to-end training pipelines for the four methods and trial aggregation.

Methods
-------
durp  : project the points to m dimensions with a Gaussian map, solve the
        projected dual, rebuild the metric from the *original* points,
        PSD-project once.
duori : solve in the original space directly (no projection).
srp   : solve the projected dual, recover the subspace metric M_s from
        the *projected* points, push it back as R M_s R^T = Q (T M_s T^T) Q^T
        (thin QR R = Q T): PSD-project the m x m middle, lift its factor by Q.
spca  : srp with the projection replaced by the top-m PCA basis (fewer
        columns when the data has fewer than m directions of variance).

Every method recovers and factors its metric on one route: ``recover_metric``
and ``psd_project`` on a cache of coordinates, then the factor is lifted
back to d rows.  durp and duori with n training points lift nothing when 2n > d.
When 2n <= d they recover on the coordinates C of the thin QR X = Q C of
the points and lift by Q: the metric lies in range(X), so this is the
d x d route up to rounding, with an n x n ``eigh`` instead of a d x d one.
The rule depends on the shapes alone; at d = 2048 the two routes break
even near n = 0.8-0.9 d.

Trial t runs with seed ``seed + t`` throughout (triplets, projection,
solver), so extending the trial count preserves earlier trials.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import pca_fit
from .evaluate import evaluate_metric, require_scorable
from .metric import psd_project, recover_metric
from .solver import LossModel, csdca_solve
from .triplets import (GENERATOR_NAME, TripletCache, build_cache, gaussian_matrix,
                       project_cache, sample_active_triplets)

METHODS = ("durp", "duori", "srp", "spca")


@dataclass(frozen=True)
class RunConfig:
    """Everything one ``train`` invocation depends on."""

    method: str = "durp"
    train_file: str = ""
    test_file: str = ""
    m: int = 10
    n_triplets: int = 100000
    epochs: int = 3
    lam: float | None = None  # None means 1/N
    loss: str = "hinge"
    gamma: float = 1.0
    k: int = 5
    seed: int = 0
    trials: int = 5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.n_triplets < 1:
            raise ValueError("n_triplets must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.lam is not None and not 1e-150 < self.lam * self.n_triplets < 1e150:
            raise ValueError("lambda must be positive and finite, with lambda * triplets in "
                             f"(1e-150, 1e150); got {self.lam:g} * {self.n_triplets}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        LossModel(kind=self.loss, gamma=self.gamma)  # refuses a bad loss before any data loads


@dataclass
class TrialResult:
    """One trial's learned metric, kept as its PSD factor, and its evaluation."""

    seed: int
    report: "object"
    factor: np.ndarray  # L, d x r+: the metric is L L^T
    alpha: np.ndarray
    solver_trace: list
    seconds: float

    @property
    def metric(self):
        """The dense d x d metric L L^T, formed on each read."""
        return self.factor @ self.factor.T


def train_trial(config, train, test, trial_seed):
    """Run one trial of the configured method on already-loaded datasets.

    duori is durp without the projection: it solves on the cache itself.
    Both recover in the span of the training points when 2n <= d.
    """
    require_scorable(train, test, config.k)
    method = config.method
    if method != "duori":
        bound, name = (min(train.d, train.n), "min(d, n)") if method == "spca" else (train.d, "d")
        if config.m > bound:
            raise ValueError(f"{method} needs m <= {name} = {bound}, got m = {config.m}")
    started = time.perf_counter()
    triplets = sample_active_triplets(train, config.n_triplets, trial_seed)
    cache = build_cache(train, triplets)
    lam = (1.0 / cache.n) if config.lam is None else config.lam
    loss = LossModel(kind=config.loss, gamma=config.gamma)

    space = cache
    if method != "duori":
        if method == "spca":
            projection = pca_fit(train, config.m)[0]
        else:
            projection = gaussian_matrix(train.d, config.m, trial_seed)
        space = project_cache(cache, projection)
    solution = csdca_solve(space, loss, lam, config.epochs, trial_seed)
    # one recovery route: recover and factor on ``coords``, then lift the factor
    lift, coords = None, cache
    if method in ("srp", "spca"):  # R = Q T: R M_s R^T = Q (T M_s T^T) Q^T, factored at size m
        lift, T = np.linalg.qr(projection)
        coords = project_cache(space, T.T)
    elif 2 * train.n <= train.d:  # X = Q C: the metric lies in range(Q), factored at size n
        lift, C = np.linalg.qr(cache.points)
        coords = TripletCache(C, cache.triplets)
    factor = psd_project(recover_metric(solution.alpha, coords, lam))
    if lift is not None:
        factor = lift @ factor

    report = evaluate_metric(factor, train, test, config.k)
    return TrialResult(
        seed=trial_seed,
        report=report,
        factor=factor,
        alpha=solution.alpha,
        solver_trace=solution.trace,
        seconds=time.perf_counter() - started,
    )


def run_method(config, train, test):
    """Run all trials on already-loaded datasets and aggregate mean/std of the scores.

    Files are read by :func:`durp.data.load_split`; ``config.train_file``
    and ``config.test_file`` are only reported.  Returns a JSON-ready dict;
    per-trial metrics are kept on the side in the ``trials`` entries only
    as scores, each with the duality gap and epoch count its solve reached,
    the largest accumulator drift of its epochs, the dual variables at -1,
    inside the box and at 0, and the metric's rank (matrices are not serialized).
    """
    if not np.ptp(train.points, axis=1).any():  # every u and v would be 0
        raise ValueError("degenerate dataset: zero total variance")
    results = []
    for t in range(config.trials):
        results.append(train_trial(config, train, test, config.seed + t))
    maps = np.array([r.report.map_score for r in results])
    accs = np.array([r.report.knn_accuracy for r in results])
    ddof = 1 if config.trials > 1 else 0
    report = {
        "method": config.method,
        "config": {
            **asdict(config),
            "lam": (1.0 / config.n_triplets) if config.lam is None else config.lam,
            "generator": GENERATOR_NAME,
        },
        "map_mean": float(maps.mean()),
        "map_std": float(maps.std(ddof=ddof)),
        "knn_mean": float(accs.mean()),
        "knn_std": float(accs.std(ddof=ddof)),
        "trials": [
            {
                "seed": r.seed,
                **r.report.scores(),
                "final_gap": r.solver_trace[-1].duality_gap,
                "epochs": r.solver_trace[-1].epoch,
                "max_drift": max(row.accumulator_drift for row in r.solver_trace),
                "alpha_at_lower": int(np.count_nonzero(r.alpha == -1.0)),
                "alpha_interior": int(np.count_nonzero((r.alpha > -1.0) & (r.alpha < 0.0))),
                "alpha_at_zero": int(np.count_nonzero(r.alpha == 0.0)),
                "metric_rank": int(r.factor.shape[1]),
                "seconds": r.seconds,
            }
            for r in results
        ],
    }
    return report, results
