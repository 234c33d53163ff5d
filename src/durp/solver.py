"""Box-constrained dual ascent for the regularized triplet-margin problem.

Primal (over symmetric p x p matrices M):

    P(M) = lam/2 ||M||_F^2 + (1/N) sum_t loss(<M, A_t>)

Dual (reported in the N-scaled form, variables boxed to [-1, 0]):

    D(alpha) = -sum_t conj(alpha_t) - (1/(2 lam N)) alpha^T G alpha

linked by M(alpha) = -S / (lam N) with S = sum_t alpha_t A_t.  The solver
keeps S (p x p) instead of G: one coordinate step costs O(p^2), and
alpha^T G alpha = ||S||_F^2.

Both phases run on one state (alpha, S) and one kernel: read the margin
<A_t, S> = u^T S u - v^T S v, set alpha_t, add the change times A_t to S.
The first epoch is stochastic subgradient with step 1/(lam s) written in
dual variables (Shalev-Shwartz & Zhang, JMLR 2013): after s visits its
iterate is -S/(lam s), so visit s sets alpha_t = loss'(-<A_t, S>/(lam s)).
Exact coordinate-ascent passes in fresh random order follow, starting
from the same S, so the handoff is exact.  Every epoch ends by rebuilding
S from alpha and checking the drift of the running S.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gram import accumulator, gram_diag
from .triplets import differences

FEASIBILITY_TOL = 1e-12
DRIFT_TOL = 1e-6

_LOSS_KINDS = ("hinge", "smoothed_hinge")


@dataclass(frozen=True)
class LossModel:
    """Unit-margin loss: plain hinge or its quadratically smoothed variant.

    ``gamma`` is the smoothing width (the loss derivative is 1/gamma-
    Lipschitz); it is ignored for the plain hinge.  Derivatives live in
    [-1, 0], which is why the dual box is [-1, 0].
    """

    kind: str = "hinge"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in _LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {_LOSS_KINDS}, got {self.kind!r}")
        if self.kind == "smoothed_hinge" and self.gamma <= 0:
            raise ValueError("gamma must be positive for the smoothed hinge")

    def value(self, z):
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "hinge":
            return np.maximum(0.0, 1.0 - z)
        g = self.gamma
        return np.where(
            z >= 1.0,
            0.0,
            np.where(z >= 1.0 - g, (1.0 - z) ** 2 / (2.0 * g), 1.0 - z - g / 2.0),
        )

    def derivative(self, z):
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "hinge":
            return np.where(z < 1.0, -1.0, 0.0)
        g = self.gamma
        return np.where(z >= 1.0, 0.0, np.where(z >= 1.0 - g, -(1.0 - z) / g, -1.0))

    def conjugate(self, alpha):
        """Fenchel conjugate on the box [-1, 0] (infinite elsewhere)."""
        alpha = np.asarray(alpha, dtype=np.float64)
        if self.kind == "hinge":
            return alpha
        return alpha + 0.5 * self.gamma * alpha**2


@dataclass
class SolverState:
    """The problem (cache, its gathered columns U, V, Gram diagonal, lam) plus alpha and S."""

    cache: object
    U: np.ndarray
    V: np.ndarray
    diag: np.ndarray
    lam: float
    alpha: np.ndarray
    S: np.ndarray


@dataclass
class DualSolution:
    """Final iterate plus the per-epoch trace (epoch, objective, gap, seconds)."""

    alpha: np.ndarray
    objective: float
    gap: float
    trace: list = field(default_factory=list)


def init_state(cache, lam):
    """The zero iterate alpha = 0, S = 0 on ``cache``, whose columns it gathers once."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    p = cache.space_dim
    U, V = differences(cache)
    return SolverState(cache=cache, U=U, V=V, diag=gram_diag(U, V), lam=lam,
                       alpha=np.zeros(cache.n), S=np.zeros((p, p)))


def _check_feasible(alpha):
    if alpha.size and (alpha.min() < -1.0 - FEASIBILITY_TOL or alpha.max() > FEASIBILITY_TOL):
        raise ValueError("alpha leaves the box [-1, 0]")


def dual_objective(state, loss):
    """D(alpha) using the identity alpha^T G alpha = ||S||_F^2."""
    _check_feasible(state.alpha)
    n = state.cache.n
    if n == 0:
        return 0.0
    quad = float(np.sum(state.S * state.S))
    return float(-np.sum(loss.conjugate(state.alpha)) - quad / (2.0 * state.lam * n))


def primal_objective(U, V, M, loss, lam):
    """P(M) = lam/2 ||M||_F^2 + mean hinge-type loss over the columns U, V."""
    reg = 0.5 * lam * float(np.sum(M * M))
    if U.shape[1] == 0:
        return reg
    margins = np.einsum("pt,pt->t", U, M @ U) - np.einsum("pt,pt->t", V, M @ V)
    return reg + float(np.mean(loss.value(margins)))


def duality_gap(state, loss):
    """P(M(alpha)) - D(alpha)/N, the mean-loss-scale optimality certificate."""
    n = state.cache.n
    if n == 0:
        return 0.0
    M = -state.S / (state.lam * n)
    return primal_objective(state.U, state.V, M, loss, state.lam) - dual_objective(state, loss) / n


def _inner(S, u, v):
    """<A_t, S> = u^T S u - v^T S v for A_t = u u^T - v v^T."""
    return float(u @ (S @ u) - v @ (S @ v))


def _set_coordinate(state, t, u, v, new):
    """Move alpha_t to ``new`` and S by the same change times A_t."""
    delta = new - state.alpha[t]
    if delta != 0.0:
        state.S += delta * np.outer(u, u)
        state.S -= delta * np.outer(v, v)
        state.alpha[t] = new


def sdca_update(state, loss, t):
    """Exact coordinate maximization of the dual at coordinate t, O(p^2).

    With c_t = <A_t, S> - alpha_t G[t, t], the stationary point is
    -(lam N + c_t) / (G[t, t])           for the hinge, and
    -(lam N + c_t) / (gamma lam N + G[t, t])  for the smoothed hinge,
    clipped to [-1, 0].  A zero diagonal makes the hinge subproblem
    linear: the coordinate goes to -1 when the slope is negative, else 0.
    """
    u = state.U[:, t]
    v = state.V[:, t]
    g_tt = state.diag[t]
    lam_n = state.lam * state.cache.n
    c_t = _inner(state.S, u, v) - state.alpha[t] * g_tt
    if loss.kind == "hinge":
        if g_tt > 0.0:
            new = min(0.0, max(-1.0, -(lam_n + c_t) / g_tt))
        else:
            new = -1.0 if -(1.0 + c_t / lam_n) < 0.0 else 0.0
    else:
        denom = loss.gamma * lam_n + max(g_tt, 0.0)
        new = min(0.0, max(-1.0, -(lam_n + c_t) / denom))
    _set_coordinate(state, t, u, v, new)
    return state


def sgd_epoch(state, loss, order):
    """One strongly-convex-schedule subgradient pass seeding the dual.

    Starts from the zero state of :func:`init_state` and visits ``order``
    (a permutation of the triplets).  After s visits the subgradient
    iterate with step 1/(lam t) is -S/(lam s), so visit s reads the margin
    z = -<A_t, S>/(lam s) (z = 0 at s = 0), sets alpha_t = loss'(z) and
    adds alpha_t A_t to S.  Ends with the drift check every epoch ends with.
    """
    n = state.cache.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all triplet indices")
    for s, t in enumerate(order):
        u = state.U[:, t]
        v = state.V[:, t]
        z = -_inner(state.S, u, v) / (state.lam * s) if s else 0.0
        _set_coordinate(state, t, u, v, float(loss.derivative(z)))
    return _refresh_accumulator(state)


def _refresh_accumulator(state):
    rebuilt = accumulator(state.cache, state.alpha)
    scale = max(float(np.abs(rebuilt).max()), 1e-30)
    drift = float(np.abs(state.S - rebuilt).max()) / scale
    if drift > DRIFT_TOL:
        raise ValueError(f"accumulator drift {drift:.3e} exceeds {DRIFT_TOL:.1e}")
    state.S = rebuilt
    return state


def csdca_solve(cache, loss, lam, epochs, seed, gap_tol=None, max_epochs=None):
    """Run the combined schedule: one subgradient epoch, then coordinate ascent.

    Parameters
    ----------
    epochs : int
        Total passes (the first is the subgradient seed pass).
    gap_tol : float, optional
        When set, keep adding coordinate-ascent epochs past ``epochs``
        until ``duality_gap <= gap_tol`` or ``max_epochs`` is hit.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    state = init_state(cache, lam)
    n = cache.n
    if n == 0:
        return DualSolution(alpha=state.alpha, objective=0.0, gap=0.0, trace=[])
    rng = np.random.default_rng(seed)
    trace = []
    start = time.perf_counter()

    def record(epoch):
        obj = dual_objective(state, loss)
        gap = duality_gap(state, loss)
        trace.append((epoch, obj, gap, time.perf_counter() - start))
        return gap

    sgd_epoch(state, loss, list(rng.permutation(n)))
    gap = record(1)
    limit = epochs if max_epochs is None else max(epochs, max_epochs)
    epoch = 1
    while epoch < limit:
        epoch += 1
        for t in rng.permutation(n):
            sdca_update(state, loss, int(t))
        _refresh_accumulator(state)
        gap = record(epoch)
        if epoch >= epochs and gap_tol is not None and gap <= gap_tol:
            break
    if gap_tol is not None and gap > gap_tol:
        raise ValueError(f"solver stopped at gap {gap:.3e} > tolerance {gap_tol:.1e}")
    return DualSolution(
        alpha=state.alpha,
        objective=dual_objective(state, loss),
        gap=gap,
        trace=trace,
    )


def trace_csv(trace):
    """Render per-epoch trace rows as ``epoch,dual_objective,duality_gap,seconds``."""
    lines = ["epoch,dual_objective,duality_gap,seconds"]
    lines.extend("%d,%.17g,%.17g,%.6f" % (epoch, obj, gap, sec) for epoch, obj, gap, sec in trace)
    return "\n".join(lines) + "\n"
