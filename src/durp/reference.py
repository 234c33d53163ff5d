"""Projected-gradient reference solver for small dual instances.

An independent optimization path used to certify the coordinate-ascent
solver and to compute near-exact optima inside the verification
harnesses.  It runs projected gradient with Nesterov momentum and
objective restarts on :func:`durp.gram.gram_product`, stepping with 1/L
where L = lambda_max(G) / (lam N).  The duality gap is
:func:`durp.solver.certificate` on the same product G alpha, so the check
never forms S or a metric.  Each step runs in place but in the operation
order of the allocating textbook loop (``textbook_pga`` in
``tests/oracles.py``), so its iterates are that loop's bits.
"""

from __future__ import annotations

import math

import numpy as np

from .gram import gram_product
from .solver import DualSolution, certificate
from .triplets import differences

MAX_ITERS = 200000
CHECK_EVERY = 50


def pga_solve(cache, loss, lam, gap_tol=1e-8):
    """Maximize the boxed dual by projected gradient on G (module docstring).

    Stops when the mean-loss-scale duality gap, checked every
    ``CHECK_EVERY`` steps, drops below ``gap_tol``.  Raises if ``MAX_ITERS``
    steps run out first.
    """
    n = cache.n
    product, top = gram_product(*differences(cache))
    lam_n = lam * n
    width = loss.width
    step = 1.0 / max(top / lam_n + width, 1e-30)

    alpha = np.zeros(n)
    momentum = alpha.copy()
    t_accel = 1.0
    best_obj = -np.inf
    obj, gap = certificate(alpha, product(alpha), loss, lam)
    iters_done = 0
    while gap > gap_tol and iters_done < MAX_ITERS:
        iters_done += 1
        # new = clip(momentum + step * (-1 - G momentum / (lam N) - width momentum))
        new = product(momentum)
        new /= lam_n
        np.subtract(-1.0, new, out=new)
        if width:
            new -= width * momentum
        new *= step
        new += momentum
        new.clip(-1.0, 0.0, out=new)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_accel * t_accel))
        # momentum = clip(new + (t - 1) / t_next * (new - alpha))
        np.subtract(new, alpha, out=momentum)
        momentum *= (t_accel - 1.0) / t_next
        momentum += new
        momentum.clip(-1.0, 0.0, out=momentum)
        t_accel = t_next
        alpha = new
        if iters_done % CHECK_EVERY == 0:
            obj, gap = certificate(alpha, product(alpha), loss, lam)
            if obj < best_obj:
                # objective went backwards under momentum: restart it
                momentum = alpha.copy()
                t_accel = 1.0
            best_obj = max(best_obj, obj)
    if gap > gap_tol:
        raise ValueError(f"reference solve stalled at gap {gap:.3e} > {gap_tol:.1e}")
    return DualSolution(alpha=alpha, objective=obj, gap=gap, trace=[(iters_done, obj, gap, 0.0)])
