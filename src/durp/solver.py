"""Box-constrained dual ascent for the regularized triplet-margin problem.

Primal (over symmetric p x p matrices M):

    P(M) = lam/2 ||M||_F^2 + (1/N) sum_t loss(<M, A_t>)

Dual (reported in the N-scaled form, variables boxed to [-1, 0]):

    D(alpha) = -sum_t conj(alpha_t) - (1/(2 lam N)) alpha^T G alpha

linked by M(alpha) = -S / (lam N) with S = sum_t alpha_t A_t.  The solver
keeps S (p x p) instead of G.  Both dual solvers read D(alpha) and the
duality gap off the margins G alpha = (<A_t, S>)_t, in :func:`certificate`.

With A_t = u_t u_t^T - v_t v_t^T, the Gram entry expands into four squared
dot products:

    G[a, b] = (u_a.u_b)^2 + (v_a.v_b)^2 - (u_a.v_b)^2 - (v_a.u_b)^2

so no p x p outer products are ever formed.  :func:`dense_gram` is the one
dense Gram route: the sweep calls it per block, and :func:`gram_product`
on all N columns when p(p + 1) > N.  It refuses more than ``DENSE_LIMIT``
columns, the only cap on Gram work.  G also factors as G = Phi^T Phi:
<A_a, A_b>_F is the inner product of the symmetric vectorisations of A_a
and A_b, so :func:`gram_factor` gives Phi one row per pair i <= j of the
p coordinates, r = p(p + 1)/2 rows in all: row (i, j) holds
U[i] U[j] - V[i] V[j] over the columns, times sqrt(2) off the diagonal.
:func:`gram_product` multiplies by Phi^T (Phi alpha) when that factor is
thinner than G, i.e. p(p + 1) <= N, and takes lambda_max(G) from the
r x r matrix Phi Phi^T; that route never forms G and takes any N.  These
three also take a stack of K problems, U and V of shape K x p x N, and
give each problem the bits it gets alone.  The Gram, its factor and the
margins read gathered difference columns U, V (see
:func:`durp.triplets.differences`); :func:`accumulator` reads the
index-form cache: its ``CHUNK`` column splits set its bits, and its
``BAND_BYTES`` row bands only the memory each gather walks.

Both phases run on one state (alpha, S) and one block sweep.  A step at
coordinate t reads the margin <A_t, S> = u^T S u - v^T S v and G[t, t]
and sets alpha_t.  The sweep walks the epoch's order in blocks of
``BLOCK`` coordinates: it reads the block's margins from S and forms the
block Gram G_B at once, takes the steps in order, each reading its G[t, t]
from the diagonal of G_B, and after each nonzero change delta_q adds
delta_q G[q, q'] to the margins of the block's later coordinates q'.
S then takes the whole block as U_B diag(delta) U_B^T - V_B diag(delta)
V_B^T, two GEMMs.  Every step sees the margin a one-at-a-time visit would
see, so the iterates are those of sequential coordinate ascent up to
rounding (the maintained-``w`` trick of Hsieh et al., ICML 2008), not
those of mini-batch ascent.  No p x N array is held: blocks and
:func:`cache_margins` gather from the points.

The first epoch is stochastic subgradient with step 1/(lam s) written in
dual variables (Shalev-Shwartz & Zhang, JMLR 2013): after s visits its
iterate is -S/(lam s), so visit s sets alpha_t = loss'(-<A_t, S>/(lam s)).
Exact coordinate-ascent passes in fresh random order follow, starting
from the same S, so the handoff is exact.  Every epoch ends by rebuilding
S from alpha and checking, and recording, the drift of the running S.

:func:`recover_metric` evaluates M(alpha) on any cache, so a metric rebuilt
from the *original* points needs one PSD projection, :func:`psd_project`,
at the end of the pipeline.  That metric lies in the span of the points,
so it can also be recovered and factored in the coordinates of any
orthonormal basis whose range holds them: training uses the thin QR of
the points when they number at most d/2, and theorem 1 the rank-revealing
:func:`durp.harness.span_basis`.

The oracle :func:`pga_solve`, with which the theorem harnesses solve small
duals close to exactly, is projected gradient with Nesterov momentum and
objective restarts on :func:`gram_product`, stepping with 1/L
where L = lambda_max(G) / (lam N) + width.  It forms neither S nor a metric.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .triplets import differences

FEASIBILITY_TOL = 1e-12
DRIFT_TOL = 1e-6
BLOCK = 64  # coordinates per sweep block; measured, see CHANGES.md
MAX_ITERS = 200000  # pga_solve's step budget, shared by its rows
CHECK_EVERY = 50  # pga_solve's steps between certificates
DENSE_LIMIT = 4000
CHUNK = 1024  # triplet columns per accumulator split, which sets its bits; cache_margins slices too
BAND_BYTES = 1 << 20  # bytes of point rows per band of the accumulator; sets locality, never bits

LOSS_KINDS = ("hinge", "smoothed_hinge")

TraceRow = namedtuple("TraceRow", "epoch dual_objective duality_gap seconds accumulator_drift")


def margins(U, V, M):
    """<A_t, M> = u_t^T M u_t - v_t^T M v_t for every column t of U, V."""
    return np.einsum("pt,pt->t", U, M @ U) - np.einsum("pt,pt->t", V, M @ V)


def accumulator(cache, alpha):
    """S = sum_t alpha_t (u_t u_t^T - v_t v_t^T) from the n points, O(n p^2 + N p).

    In u u^T - v v^T the x_i x_i^T terms cancel, leaving
    x_k x_k^T - x_j x_j^T + x_i (x_j - x_k)^T + (x_j - x_k) x_i^T, so
    S = X Z^T + Z X^T with Z = X diag(w)/2 + Y, where
    w = bincount(k, alpha) - bincount(j, alpha) and column a of Y sums
    alpha_t (x_j - x_k) over the triplets anchored at a.  Y is built in
    anchor-sorted chunks of ``CHUNK`` columns with ``np.add.reduceat``, one
    band of point rows at a time: every step acts row by row, so the bands
    change which memory each gather walks, not the bits.
    """
    if alpha.shape != (cache.n,):
        raise ValueError("alpha must have one entry per triplet")
    X = cache.points
    n_points = X.shape[1]
    order = np.argsort(cache.triplets[:, 0], kind="stable")
    i, j, k = cache.triplets[order].T
    a = alpha[order]
    w = np.bincount(k, a, n_points) - np.bincount(j, a, n_points)
    Z = X * (0.5 * w)
    chunks = []
    for s in range(0, cache.n, CHUNK):
        anchors = i[s:s + CHUNK]
        starts = np.flatnonzero(np.r_[True, anchors[1:] != anchors[:-1]])
        chunks.append((j[s:s + CHUNK], k[s:s + CHUNK], a[s:s + CHUNK], starts, anchors[starts]))
    band = max(1, BAND_BYTES // (8 * n_points))
    for r in range(0, X.shape[0], band):
        Xb, Zb = X[r:r + band], Z[r:r + band]
        for jc, kc, ac, starts, heads in chunks:
            D = Xb.take(jc, axis=1)
            D -= Xb.take(kc, axis=1)
            D *= ac
            # += through a fancy index keeps one update per repeated index; the
            # anchors are sorted, so each run start names a different anchor
            Zb[:, heads] += np.add.reduceat(D, starts, axis=1)
    P = X @ Z.T
    del Z
    return P + P.T


def recover_metric(alpha, cache, lam):
    """M = -S / (lam N) with S = sum_t alpha_t (u_t u_t^T - v_t v_t^T) over the cache's space."""
    S = accumulator(cache, alpha)
    S /= -(lam * cache.n)  # in place, with the bits of -S / (lam N)
    return S


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


def dense_gram(U, V):
    """Materialize G for N <= ``DENSE_LIMIT``; the per-block squares keep it O(N^2 p)."""
    if U.shape[-1] > DENSE_LIMIT:
        raise ValueError(f"dense Gram limited to {DENSE_LIMIT} triplets, got {U.shape[-1]}")
    Ut = U.swapaxes(-1, -2)
    UU = Ut @ U
    VV = V.swapaxes(-1, -2) @ V
    UV = Ut @ V
    G = UU**2 + VV**2 - UV**2 - UV.swapaxes(-1, -2) ** 2
    return 0.5 * (G + G.swapaxes(-1, -2))


def gram_factor(U, V):
    """Phi, r x N with r = p(p + 1)/2, such that G = Phi^T Phi (module docstring).

    Phi is filled one row at a time, so no temporary exceeds one row.
    """
    p = U.shape[-2]
    Phi = np.empty(U.shape[:-2] + (p * (p + 1) // 2, U.shape[-1]))
    for q, (i, j) in enumerate(zip(*np.triu_indices(p))):
        row = Phi[..., q, :]
        np.multiply(U[..., i, :], U[..., j, :], out=row)
        row -= V[..., i, :] * V[..., j, :]
        if i != j:
            row *= np.sqrt(2.0)
    return Phi


def gram_product(U, V):
    """(B, product, top) for the K problems of U, V (K x p x N each).

    ``product(B, a)`` gives G_k a_k for every row a_k of the K x N ``a``,
    and ``top[k]`` is lambda_max(G_k).  B stacks the thinner of the Gram
    factor Phi (K x r x N) and the dense G (K x N x N); ``B[rows]`` keeps
    the problems ``rows``.  Each product is a new array; the stacked
    ``np.matmul`` takes, problem by problem, the product ``@`` takes on
    one matrix and one vector, so each row has ``@``'s bits.
    """
    p, n = U.shape[-2:]
    if p * (p + 1) <= n:
        Phi = gram_factor(U, V)
        # Phi Phi^T and Phi^T Phi = G share their nonzero eigenvalues
        top = np.linalg.eigvalsh(Phi @ Phi.transpose(0, 2, 1))[:, -1]
        return Phi, _factor_product, top
    G = dense_gram(U, V)
    # G is symmetric PSD, so its spectral norm is its top eigenvalue
    return G, _dense_product, np.linalg.eigvalsh(G)[:, -1]


def _factor_product(Phi, a):
    return np.matmul(Phi.transpose(0, 2, 1), np.matmul(Phi, a[:, :, None]))[:, :, 0]


def _dense_product(G, a):
    return np.matmul(G, a[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class LossModel:
    """Unit-margin loss: plain hinge or its quadratically smoothed variant.

    ``gamma`` is the smoothing width (the loss derivative is 1/gamma-
    Lipschitz); it is ignored for the plain hinge.  ``width`` is the width
    in force: gamma for the smoothed hinge, 0 for the plain hinge, whose
    value, conjugate and coordinate step are the smoothed ones at width 0.
    Derivatives live in [-1, 0], which is why the dual box is [-1, 0].
    """

    kind: str = "hinge"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.kind == "smoothed_hinge" and self.gamma <= 0:
            raise ValueError("gamma must be positive for the smoothed hinge")

    @property
    def width(self):
        return self.gamma if self.kind == "smoothed_hinge" else 0.0

    def value(self, z):
        """loss(z) elementwise; the quadratic piece is evaluated only where it applies."""
        z = np.asarray(z, dtype=np.float64)
        w = self.width
        out = np.where(z >= 1.0, 0.0, 1.0 - z - w / 2.0)
        if w:
            quad = (z >= 1.0 - w) & (z < 1.0)
            out[quad] = (1.0 - z[quad]) ** 2 / (2.0 * w)
        return out

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
        return alpha + 0.5 * self.width * alpha**2


@dataclass
class SolverState:
    """The problem (cache, lam) plus alpha and S; each sweep block gathers its own columns."""

    cache: object
    lam: float
    alpha: np.ndarray
    S: np.ndarray


@dataclass
class DualSolution:
    """Final iterate plus the trace: one :data:`TraceRow` per epoch, the trace CSV's columns.

    ``accumulator_drift`` is the relative max-entry difference between the
    running S and S rebuilt from alpha at the end of the epoch.
    :func:`pga_solve` runs no epochs and solves K problems at once:
    ``alpha`` is K x N, ``objective`` and ``gap`` have one entry per
    problem, and the trace is the single row (steps summed over the K
    problems, objective, gap, 0.0).
    """

    alpha: np.ndarray
    objective: float
    gap: float
    trace: list


def init_state(cache, lam):
    """The zero iterate alpha = 0, S = 0 on ``cache``; it gathers no columns."""
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    p = cache.space_dim
    return SolverState(cache=cache, lam=lam, alpha=np.zeros(cache.n), S=np.zeros((p, p)))


def cache_margins(cache, S):
    """``margins(*differences(cache), S)`` in column slices that start at multiples of ``CHUNK``.

    The last slice runs to N, so no slice is narrower than CHUNK columns
    unless N is (README, Determinism: where the slices keep the bits).
    """
    edges = [*range(0, max(cache.n - CHUNK, 1), CHUNK), cache.n]
    return np.concatenate([margins(*differences(cache, slice(a, b)), S)
                           for a, b in zip(edges, edges[1:])])


def certificate(alpha, r, loss, lam):
    """(D(alpha), max(P(M(alpha)) - D(alpha)/N, 0)) from the margins r = G alpha, row by row.

    r_t = <A_t, S>, so alpha^T G alpha = alpha . r, the margins of
    M = -S / (lam N) are -r / (lam N) and ||M||_F^2 = alpha . r / (lam N)^2.
    The gap is the mean-loss-scale optimality certificate; weak duality
    makes it nonnegative, and the clamp removes rounding below 0.

    alpha and r hold one problem (length N, giving two scalars) or a K x N
    stack, one problem per row (giving two length-K arrays); every value
    reads only its row, so each row gets the bits of its one-row call.
    """
    if alpha.min() < -1.0 - FEASIBILITY_TOL or alpha.max() > FEASIBILITY_TOL:
        raise ValueError("alpha leaves the box [-1, 0]")
    n = alpha.shape[-1]
    lam_n = lam * n
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gap is refused below
        # per row, 1 x N times N x 1 is the dot that alpha @ r takes on one row
        quad = np.matmul(alpha[..., None, :], r[..., :, None])[..., 0, 0]
        dual = -np.sum(loss.conjugate(alpha), axis=-1) - quad / (2.0 * lam_n)
        # 0.5 * lam * quad can overflow where the term does not; applying quad's
        # power of two last keeps the bits of 0.5 * lam * quad / lam_n**2
        mant, exp = np.frexp(quad)
        norm_term = np.ldexp(0.5 * lam * mant / lam_n**2, exp)
        primal = norm_term + np.mean(loss.value(-r / lam_n), axis=-1)
        gap = primal - dual / n
    if not np.isfinite(gap).all():
        raise ValueError(f"the duality gap overflows at lambda = {lam:g}; the data are too large")
    return dual, np.maximum(gap, 0.0)


def _sweep(state, order, step):
    """Visit ``order`` in blocks of ``BLOCK`` coordinates (see the module docstring).

    ``step(s, a_t, r, g)`` returns the new alpha_t at visit s of the epoch,
    given the value a_t and margin r = <A_t, S> of its coordinate t and
    g = G[t, t], read as Python floats once per block (t occurs once in
    an epoch, so a_t is still current at its step).  Ends the epoch: S is
    rebuilt from alpha, and the relative drift of the running S is checked
    against ``DRIFT_TOL`` and returned.
    """
    alpha, S = state.alpha, state.S
    order = np.asarray(order)
    for b in range(0, len(order), BLOCK):
        block = order[b:b + BLOCK]
        U_B, V_B = differences(state.cache, block)
        r = margins(U_B, V_B, S)
        G_B = dense_gram(U_B, V_B)
        deltas = np.zeros(len(block))
        current = zip(block.tolist(), alpha[block].tolist(), G_B.diagonal().tolist())
        for q, (t, a_t, g) in enumerate(current):
            new = step(b + q, a_t, float(r[q]), g)
            delta = new - a_t
            if delta != 0.0:
                alpha[t] = new
                deltas[q] = delta
                r[q + 1:] += delta * G_B[q, q + 1:]
        S += (U_B * deltas) @ U_B.T
        S -= (V_B * deltas) @ V_B.T
    rebuilt = accumulator(state.cache, alpha)
    scale = max(float(np.abs(rebuilt).max()), 1e-30)
    drift = float(np.abs(S - rebuilt).max()) / scale
    if drift > DRIFT_TOL:
        raise ValueError(f"accumulator drift {drift:.3e} exceeds {DRIFT_TOL:.1e}: large feature "
                         "values make S tiny next to the rank-one terms summed into it, so "
                         "rounding swamps it; rescale the features (e.g. to a largest "
                         "|value| of 1)")
    state.S = rebuilt
    return drift


def sdca_epoch(state, loss, order):
    """One exact coordinate-ascent pass over ``order``; returns the accumulator drift.

    The step at coordinate t maximizes the dual exactly, in O(1) given its
    margin.  With c_t = <A_t, S> - alpha_t G[t, t], the stationary point is
    -(lam N + c_t) / (width lam N + G[t, t]), clipped to [-1, 0].  When
    that denominator is zero (the hinge at a zero diagonal) the subproblem
    is linear: the coordinate goes to -1 when the slope is negative, else 0.
    """
    lam_n = state.lam * state.cache.n
    width = loss.width

    def step(s, a_t, margin, g_tt):
        c_t = margin - a_t * g_tt
        denom = width * lam_n + max(g_tt, 0.0)
        if denom > 0.0:
            return min(0.0, max(-1.0, -(lam_n + c_t) / denom))
        return -1.0 if -(1.0 + c_t / lam_n) < 0.0 else 0.0

    return _sweep(state, order, step)


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

    def step(s, a_t, margin, g_tt):
        return loss.derivative(-margin / (lam * s) if s else 0.0)

    return _sweep(state, order, step)


def csdca_solve(cache, loss, lam, epochs, seed, gap_tol=None, max_epochs=None):
    """Run the combined schedule: one subgradient epoch, then coordinate ascent.

    Parameters
    ----------
    epochs : int
        Total passes (the first is the subgradient seed pass).
    gap_tol : float, optional
        When set, stop after the first epoch from ``epochs`` on (the seed
        pass included) whose :func:`certificate` gap is at most
        ``gap_tol``, adding coordinate-ascent epochs past ``epochs`` up to
        ``max_epochs``, which is refused without ``gap_tol``.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if max_epochs is not None and gap_tol is None:
        raise ValueError("max_epochs needs gap_tol")
    state = init_state(cache, lam)
    n = cache.n
    rng = np.random.default_rng(seed)
    trace = []
    start = time.perf_counter()

    def record(epoch, drift):
        obj, gap = certificate(state.alpha, cache_margins(cache, state.S), loss, lam)
        trace.append(TraceRow(epoch, obj, gap, time.perf_counter() - start, drift))
        return gap

    gap = record(1, sgd_epoch(state, loss, rng.permutation(n)))
    epoch = 1
    while epoch < epochs or (max_epochs is not None and epoch < max_epochs and gap > gap_tol):
        epoch += 1
        gap = record(epoch, sdca_epoch(state, loss, rng.permutation(n)))
    if gap_tol is not None and gap > gap_tol:
        raise ValueError(f"solver stopped at gap {gap:.3e} > tolerance {gap_tol:.1e}")
    return DualSolution(alpha=state.alpha, objective=trace[-1].dual_objective, gap=gap,
                        trace=trace)


def pga_solve(caches, loss, lam, gap_tol=1e-8):
    """Maximize the boxed dual of every cache in ``caches`` by projected gradient.

    The K problems share one shape (one N, one ``space_dim``) and run in
    lockstep, one row of K x N arrays each: the product is one stacked
    ``np.matmul``, and the step size and restart state are per-row vectors.
    Every ``CHECK_EVERY`` steps one :func:`certificate` call checks the
    running rows; a row whose mean-loss-scale gap is at most ``gap_tol``
    keeps its iterate, and the rows still running are compacted.  Momentum
    coefficients depend only on the steps since a row's last restart, so
    every row reads them from one table.  Each step runs in place but in the
    operation order of the allocating textbook loop (``textbook_pga`` in
    ``tests/oracles.py``), so every row's iterates are that loop's bits on
    its problem alone.  Raises if ``MAX_ITERS`` steps, one budget shared by
    all rows, run out first.  Returns one :class:`DualSolution` whose fields
    stack the K problems in the order of ``caches``.
    """
    if not caches:
        raise ValueError("pga_solve needs at least one cache")
    n, p = caches[0].n, caches[0].space_dim
    if any(cache.n != n or cache.space_dim != p for cache in caches):
        raise ValueError("pga_solve needs caches of one shape: one N and one space_dim")
    k = len(caches)
    U = np.empty((k, p, n))
    V = np.empty_like(U)
    for row, cache in enumerate(caches):
        U[row], V[row] = differences(cache)
    B, product, top = gram_product(U, V)
    del U, V  # only B is needed from here
    lam_n = lam * n
    width = loss.width
    step = (1.0 / np.maximum(top / lam_n + width, 1e-30))[:, None]

    alpha = np.zeros((k, n))
    momentum = alpha.copy()
    since = np.zeros(k, dtype=np.int64)  # step of each row's last restart
    coefs, t_end = np.empty(0), 1.0  # the coefficient table and the t after its last entry
    best_obj = np.full(k, -np.inf)
    live = np.arange(k)  # the problem each running row solves
    solved = np.empty_like(alpha)
    objective, gap = np.empty(k), np.empty(k)
    iters_done = steps = 0
    while True:
        if iters_done % CHECK_EVERY == 0:
            r = product(B, alpha)
            obj, row_gap = certificate(alpha, r, loss, lam)
            objective[live], gap[live] = obj, row_gap
            if iters_done:
                # objective went backwards under momentum: restart those rows
                back = obj < best_obj
                momentum[back] = alpha[back]
                since[back] = iters_done
                np.maximum(best_obj, obj, out=best_obj)
            met = row_gap <= gap_tol
            if met.any():
                solved[live[met]] = alpha[met]
                steps += iters_done * int(met.sum())
                keep = ~met
                live, B, step, alpha, momentum, since, best_obj = (
                    x[keep] for x in (live, B, step, alpha, momentum, since, best_obj))
            coefs, t_end = _momentum_coefficients(coefs, t_end, iters_done + CHECK_EVERY)
            # block[q, row] is the row's coefficient q + 1 steps from here
            block = coefs[np.arange(CHECK_EVERY)[:, None] + (iters_done - since)][:, :, None]
            columns = iter(block)
        if not live.size or iters_done >= MAX_ITERS:
            break
        iters_done += 1
        # new = clip(momentum + step * (-1 - G momentum / (lam N) - width momentum))
        new = product(B, momentum)
        new /= lam_n
        np.subtract(-1.0, new, out=new)
        if width:
            new -= width * momentum
        new *= step
        new += momentum
        new.clip(-1.0, 0.0, out=new)
        # momentum = clip(new + (t - 1) / t_next * (new - alpha))
        np.subtract(new, alpha, out=momentum)
        momentum *= next(columns)
        momentum += new
        momentum.clip(-1.0, 0.0, out=momentum)
        alpha = new
    if live.size:
        raise ValueError(f"reference solve stalled at gap {gap[live].max():.3e} > {gap_tol:.1e}")
    return DualSolution(alpha=solved, objective=objective, gap=gap,
                        trace=[(steps, objective, gap, 0.0)])


def _momentum_coefficients(coefs, t, steps):
    """The table ``coefs`` extended to ``steps`` entries, and the t after its last entry.

    Entry s is (t_s - 1) / t_(s+1), the momentum coefficient s steps after a
    (re)start, with t_0 = 1 and t_(s+1) = (1 + sqrt(1 + 4 t_s^2)) / 2 in the
    textbook loop's float operations; ``t`` is t_(len(coefs)).
    """
    more = np.empty(steps - coefs.size)
    for s in range(more.size):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        more[s] = (t - 1.0) / t_next
        t = t_next
    return np.concatenate((coefs, more)), t
