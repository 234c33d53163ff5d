"""Projected-gradient reference solver for small dual instances.

An independent optimization path used to certify the coordinate-ascent
solver and to compute near-exact optima inside the verification
harnesses.  It runs projected gradient with Nesterov momentum and
objective restarts on :func:`durp.gram.gram_product`, stepping with 1/L
where L = lambda_max(G) / (lam N).  The duality gap is
:func:`durp.solver.certificate` on the same product G alpha, so the check
never forms S or a metric.

One call solves K problems of one shape (one N, one ``space_dim``) in
lockstep, one row of K x N arrays each: the product is one stacked
``np.matmul``, and the step size and restart state are per-row vectors.
The momentum coefficient depends only on the steps since a row's last
restart, so the rows read it from one table of that sequence.  Every
``CHECK_EVERY`` steps one :func:`durp.solver.certificate` call certifies the
running rows, each with its one-row bits; a row that meets the gap keeps
its iterate, the rows still running are compacted, and the coefficients
of each row's next ``CHECK_EVERY`` steps are read from the table into one
block, of which each step takes the next entry per row.  Each step runs
in place but in the operation order of the allocating textbook loop
(``textbook_pga`` in ``tests/oracles.py``), so every row's iterates are
that loop's bits on its problem alone.
"""

from __future__ import annotations

import math

import numpy as np

from .gram import gram_product
from .solver import DualSolution, certificate
from .triplets import differences

MAX_ITERS = 200000
CHECK_EVERY = 50


def pga_solve(caches, loss, lam, gap_tol=1e-8):
    """Maximize the boxed dual of every cache in ``caches`` by projected gradient.

    Each problem stops when its mean-loss-scale duality gap, checked every
    ``CHECK_EVERY`` steps, drops below ``gap_tol``.  Raises if ``MAX_ITERS``
    steps, one budget shared by all rows, run out first.  Returns one
    :class:`DualSolution` whose fields stack the K problems in the order
    of ``caches``.
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
