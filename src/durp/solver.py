"""Box-constrained dual ascent for the regularized triplet-margin problem.

Primal (over symmetric p x p matrices M):

    P(M) = lam/2 ||M||_F^2 + (1/N) sum_t loss(<M, A_t>)

Dual (reported in the N-scaled form, variables boxed to [-1, 0]):

    D(alpha) = -sum_t conj(alpha_t) - (1/(2 lam N)) alpha^T G alpha

linked by M(alpha) = -S / (lam N) with S = sum_t alpha_t A_t.  The solver
keeps S (p x p) instead of G, and alpha^T G alpha = ||S||_F^2.

Both phases run on one state (alpha, S) and one block sweep.  A step at
coordinate t reads the margin <A_t, S> = u^T S u - v^T S v and G[t, t]
and sets alpha_t.  The sweep walks the epoch's order in blocks of
``BLOCK`` coordinates: it reads the block's margins from S and forms the
block Gram G_B at once, takes the steps in order, each reading its G[t, t]
from the diagonal of G_B, and after each nonzero change delta_q adds
delta_q G[q, q'] to the margins of the block's later coordinates q'.
S then takes the whole block as U_B diag(delta) U_B^T - V_B diag(delta)
V_B^T, two GEMMs.  Every
step sees the margin a one-at-a-time visit would see, so the iterates are
those of sequential coordinate ascent up to rounding (the maintained-``w``
trick of Hsieh et al., ICML 2008), not those of mini-batch ascent.

The first epoch is stochastic subgradient with step 1/(lam s) written in
dual variables (Shalev-Shwartz & Zhang, JMLR 2013): after s visits its
iterate is -S/(lam s), so visit s sets alpha_t = loss'(-<A_t, S>/(lam s)).
Exact coordinate-ascent passes in fresh random order follow, starting
from the same S, so the handoff is exact.  Every epoch ends by rebuilding
S from alpha and checking, and recording, the drift of the running S.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gram import accumulator, dense_gram, margins
from .triplets import differences

FEASIBILITY_TOL = 1e-12
DRIFT_TOL = 1e-6
BLOCK = 64  # coordinates per sweep block; measured, see CHANGES.md

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
        """loss'(z) for one float z, in plain float arithmetic (the seed step's hot path)."""
        if self.kind == "hinge":
            return -1.0 if z < 1.0 else 0.0
        g = self.gamma
        if z >= 1.0:
            return 0.0
        if z >= 1.0 - g:
            return -(1.0 - z) / g
        return -1.0

    def conjugate(self, alpha):
        """Fenchel conjugate on the box [-1, 0] (infinite elsewhere)."""
        alpha = np.asarray(alpha, dtype=np.float64)
        if self.kind == "hinge":
            return alpha
        return alpha + 0.5 * self.gamma * alpha**2


@dataclass
class SolverState:
    """The problem (cache, its gathered columns U, V, lam) plus alpha and S."""

    cache: object
    U: np.ndarray
    V: np.ndarray
    lam: float
    alpha: np.ndarray
    S: np.ndarray


@dataclass
class DualSolution:
    """Final iterate plus the per-epoch trace (epoch, objective, gap, seconds, drift).

    ``drift`` is the relative max-entry difference between the running S
    and S rebuilt from alpha at the end of the epoch.  The reference
    solver's ``pga_solve`` runs no epochs: its trace is the single row
    (iterations, objective, gap, 0.0).
    """

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
    return SolverState(cache=cache, U=U, V=V, lam=lam, alpha=np.zeros(cache.n), S=np.zeros((p, p)))


def _check_feasible(alpha):
    if alpha.min() < -1.0 - FEASIBILITY_TOL or alpha.max() > FEASIBILITY_TOL:
        raise ValueError("alpha leaves the box [-1, 0]")


def dual_objective(state, loss):
    """D(alpha) using the identity alpha^T G alpha = ||S||_F^2."""
    _check_feasible(state.alpha)
    quad = float(np.sum(state.S * state.S))
    return float(-np.sum(loss.conjugate(state.alpha)) - quad / (2.0 * state.lam * state.cache.n))


def primal_objective(U, V, M, loss, lam):
    """P(M) = lam/2 ||M||_F^2 + mean hinge-type loss over the columns U, V."""
    return 0.5 * lam * float(np.sum(M * M)) + float(np.mean(loss.value(margins(U, V, M))))


def duality_gap(state, loss):
    """max(P(M(alpha)) - D(alpha)/N, 0), the mean-loss-scale optimality certificate.

    Weak duality makes it nonnegative; the clamp removes rounding below 0.
    """
    n = state.cache.n
    M = -state.S / (state.lam * n)
    gap = primal_objective(state.U, state.V, M, loss, state.lam) - dual_objective(state, loss) / n
    return max(gap, 0.0)


def _sweep(state, order, step):
    """Visit ``order`` in blocks of ``BLOCK`` coordinates (see the module docstring).

    ``step(s, t, r, g)`` returns the new alpha_t at visit s of the epoch,
    given the current margin r = <A_t, S> of its coordinate t and
    g = G[t, t], read from the block Gram.
    """
    alpha, S = state.alpha, state.S
    for b in range(0, len(order), BLOCK):
        block = order[b:b + BLOCK]
        U_B = state.U.take(block, axis=1)
        V_B = state.V.take(block, axis=1)
        r = margins(U_B, V_B, S)
        G_B = dense_gram(U_B, V_B)
        deltas = np.zeros(len(block))
        for q, t in enumerate(block.tolist()):
            new = step(b + q, t, float(r[q]), G_B[q, q])
            delta = new - alpha[t]
            if delta != 0.0:
                alpha[t] = new
                deltas[q] = delta
                r[q + 1:] += delta * G_B[q, q + 1:]
        S += (U_B * deltas) @ U_B.T
        S -= (V_B * deltas) @ V_B.T


def _sdca_step(state, loss):
    """Exact coordinate maximization of the dual at coordinate t, O(1) given its margin.

    With c_t = <A_t, S> - alpha_t G[t, t], the stationary point is
    -(lam N + c_t) / (G[t, t])           for the hinge, and
    -(lam N + c_t) / (gamma lam N + G[t, t])  for the smoothed hinge,
    clipped to [-1, 0].  A zero diagonal makes the hinge subproblem
    linear: the coordinate goes to -1 when the slope is negative, else 0.
    """
    alpha = state.alpha
    lam_n = state.lam * state.cache.n
    hinge = loss.kind == "hinge"

    def step(s, t, margin, g_tt):
        c_t = margin - alpha[t] * g_tt
        if hinge:
            if g_tt > 0.0:
                return min(0.0, max(-1.0, -(lam_n + c_t) / g_tt))
            return -1.0 if -(1.0 + c_t / lam_n) < 0.0 else 0.0
        denom = loss.gamma * lam_n + max(g_tt, 0.0)
        return min(0.0, max(-1.0, -(lam_n + c_t) / denom))

    return step


def _check_permutation(order, n):
    order = np.asarray(order)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("order must be a permutation of all triplet indices")
    return order


def sdca_update(state, loss, t):
    """Exact coordinate maximization of the dual at coordinate t: a sweep over t alone."""
    _sweep(state, np.array([t]), _sdca_step(state, loss))
    return state


def sdca_epoch(state, loss, order):
    """One exact coordinate-ascent pass over ``order``; returns the accumulator drift."""
    _sweep(state, _check_permutation(order, state.cache.n), _sdca_step(state, loss))
    return _refresh_accumulator(state)


def sgd_epoch(state, loss, order):
    """One strongly-convex-schedule subgradient pass seeding the dual.

    Starts from the zero state of :func:`init_state` and visits ``order``
    (a permutation of the triplets).  After s visits the subgradient
    iterate with step 1/(lam t) is -S/(lam s), so visit s reads the margin
    z = -<A_t, S>/(lam s) (z = 0 at s = 0), sets alpha_t = loss'(z) and
    adds alpha_t A_t to S.  Ends with the drift check every epoch ends
    with, and returns the drift.
    """
    lam = state.lam

    def step(s, t, margin, g_tt):
        return loss.derivative(-margin / (lam * s) if s else 0.0)

    _sweep(state, _check_permutation(order, state.cache.n), step)
    return _refresh_accumulator(state)


def _refresh_accumulator(state):
    """Rebuild S from alpha; return the relative drift of the running S."""
    rebuilt = accumulator(state.cache, state.alpha)
    scale = max(float(np.abs(rebuilt).max()), 1e-30)
    drift = float(np.abs(state.S - rebuilt).max()) / scale
    if drift > DRIFT_TOL:
        raise ValueError(f"accumulator drift {drift:.3e} exceeds {DRIFT_TOL:.1e}")
    state.S = rebuilt
    return drift


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
    rng = np.random.default_rng(seed)
    trace = []
    start = time.perf_counter()

    def record(epoch, drift):
        obj = dual_objective(state, loss)
        gap = duality_gap(state, loss)
        trace.append((epoch, obj, gap, time.perf_counter() - start, drift))
        return gap

    gap = record(1, sgd_epoch(state, loss, rng.permutation(n)))
    limit = epochs if max_epochs is None else max(epochs, max_epochs)
    epoch = 1
    while epoch < limit:
        epoch += 1
        gap = record(epoch, sdca_epoch(state, loss, rng.permutation(n)))
        if epoch >= epochs and gap_tol is not None and gap <= gap_tol:
            break
    if gap_tol is not None and gap > gap_tol:
        raise ValueError(f"solver stopped at gap {gap:.3e} > tolerance {gap_tol:.1e}")
    return DualSolution(alpha=state.alpha, objective=trace[-1][1], gap=gap, trace=trace)


def trace_csv(trace):
    """Render per-epoch trace rows as ``epoch,dual_objective,duality_gap,seconds,accumulator_drift``."""
    lines = ["epoch,dual_objective,duality_gap,seconds,accumulator_drift"]
    lines.extend("%d,%.17g,%.17g,%.6f,%.3e" % row for row in trace)
    return "\n".join(lines) + "\n"
