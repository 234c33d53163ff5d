"""Independent reference implementations used to cross-check the package.

Everything here is written for clarity over speed: explicit loops,
explicit d x d matrices, textbook formulas.  Unit and acceptance tests
compare the fast production paths against these.  Independent routes the
package itself does not need (single Gram entries, the Kronecker
embedding, the matrix-free Gram product and dual objective, kappa by power
iteration, the primal form of the subgradient seed epoch, the array form
of the loss derivative, the d x d lift of a subspace metric, the
allocating projected-gradient loop, the accumulator without row bands,
mAP from one index sort per query row, the block sweep on difference
columns gathered once for all N triplets) live here too, with the LIBSVM
writer that makes the test files, the random difference columns the Gram
and kappa tests draw, and the nuisance-subspace data on which the paper's
claim is checked.
"""

import numpy as np

from durp import evaluate, solver
from durp.data import LabeledDataset
from durp.solver import DualSolution, accumulator, certificate, dense_gram, gram_factor, margins
from durp.triplets import differences


def serialize_libsvm(data):
    """Render a dataset as LIBSVM text (zero entries omitted, 1-based indices)."""
    lines = []
    for col in range(data.n):
        x = data.points[:, col]
        nz = np.nonzero(x)[0]
        parts = [str(int(data.labels[col]))]
        parts.extend("%d:%.17g" % (i + 1, x[i]) for i in nz)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def triplet_matrix(u, v):
    """The explicit d x d constraint matrix u u^T - v v^T."""
    return np.outer(u, u) - np.outer(v, v)


def dense_trace_gram(U, V):
    """Gram matrix via explicit trace(A_a A_b) on materialized matrices."""
    n = U.shape[1]
    mats = [triplet_matrix(U[:, t], V[:, t]) for t in range(n)]
    G = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            G[a, b] = np.trace(mats[a] @ mats[b])
    return G


def naive_accumulator(U, V, alpha):
    """Sum of alpha_t A_t by explicit loop over triplets."""
    d = U.shape[0]
    S = np.zeros((d, d))
    for t in range(U.shape[1]):
        S += alpha[t] * triplet_matrix(U[:, t], V[:, t])
    return S


def columnwise_accumulator(cache, alpha):
    """solver.accumulator's chunk loop run over all point rows at once, without row bands.

    Each ``solver.CHUNK`` columns of x_j - x_k are gathered from the whole
    d x n point matrix and reduced into Z by anchor; the banded production
    loop must give these bytes.
    """
    X = cache.points
    n_points = X.shape[1]
    order = np.argsort(cache.triplets[:, 0], kind="stable")
    i, j, k = cache.triplets[order].T
    a = alpha[order]
    w = np.bincount(k, a, n_points) - np.bincount(j, a, n_points)
    Z = X * (0.5 * w)
    chunk = solver.CHUNK
    for s in range(0, cache.n, chunk):
        anchors = i[s:s + chunk]
        D = X.take(j[s:s + chunk], axis=1)
        D -= X.take(k[s:s + chunk], axis=1)
        D *= a[s:s + chunk]
        starts = np.flatnonzero(np.r_[True, anchors[1:] != anchors[:-1]])
        Z[:, anchors[starts]] += np.add.reduceat(D, starts, axis=1)
    P = X @ Z.T
    return P + P.T


def naive_recover(alpha, U, V, lam):
    """Metric -(1 / (lam N)) sum_t alpha_t A_t by explicit loop."""
    n = U.shape[1]
    return -naive_accumulator(U, V, alpha) / (lam * n)


def naive_primal(M, U, V, loss_value, lam):
    """Primal objective with explicit per-triplet quadratic forms.

    ``loss_value`` maps a margin scalar to its loss value.
    """
    n = U.shape[1]
    total = 0.0
    for t in range(n):
        z = U[:, t] @ M @ U[:, t] - V[:, t] @ M @ V[:, t]
        total += loss_value(z)
    return 0.5 * lam * np.linalg.norm(M, "fro") ** 2 + total / n


def dense_subspace_metric(R, M_s):
    """The d x d projection of R M_s R^T: the lift done before the factoring.

    Symmetrizes the product, which rounding leaves slightly skew, and clips
    every negative eigenvalue of the full d x d matrix to 0.
    """
    A = R @ M_s @ R.T
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.T))
    return (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T


def dense_factor(alpha, cache, lam):
    """Factor of the metric recovered and projected at d x d on the cache's own points.

    The reference for the training route, which recovers and factors in the
    coordinates of the points' thin QR when there are n <= d / 2 of them.
    """
    return solver.psd_project(solver.recover_metric(alpha, cache, lam))


def dense_recovery_errors(cache, oracle_alpha, alphas, lam):
    """||M* - P(M)||_F / ||M*||_F with every metric recovered and projected at d x d.

    M* is the projection of the metric recovered from ``oracle_alpha`` and
    M that of each entry of ``alphas``, all from the cache's own points:
    the reference for the errors ``verify_theorem1`` computes in the span
    of the points.
    """
    L_star = solver.psd_project(solver.recover_metric(oracle_alpha, cache, lam))
    M_star = L_star @ L_star.T
    errors = []
    for alpha in alphas:
        L = solver.psd_project(solver.recover_metric(alpha, cache, lam))
        errors.append(float(np.linalg.norm(M_star - L @ L.T)) / float(np.linalg.norm(M_star)))
    return errors


def spectral_norm(A):
    """Largest singular value via numpy's SVD-backed matrix norm."""
    return float(np.linalg.norm(A, 2))


def three_block_sq_distances(X, Y=None):
    """Squared Euclidean distances as x + y - 2K, the expression that builds three n x n blocks."""
    if Y is None:
        Y = X
    K = X.T @ Y
    x_q = np.einsum("pt,pt->t", X, X)
    y_q = x_q if Y is X else np.einsum("pt,pt->t", Y, Y)
    return x_q[:, None] + y_q[None, :] - 2.0 * K


def naive_sq_distance(L, x, y):
    """(x - y)^T L L^T (x - y) as the squared length of L^T (x - y)."""
    diff = L.T @ (x - y)
    return float(diff @ diff)


def naive_map(L, points, labels):
    """Mean average precision with explicit loops.

    For every query with at least one other same-class point, ranks the
    remaining points by squared distance under the metric L L^T (stable
    order on ties), accumulates precision at every relevant hit, and
    averages.  Returns (map, n_included, n_excluded).
    """
    n = points.shape[1]
    ap_values = []
    excluded = 0
    for q in range(n):
        others = [t for t in range(n) if t != q]
        relevant = [t for t in others if labels[t] == labels[q]]
        if not relevant:
            excluded += 1
            continue
        dists = np.array([naive_sq_distance(L, points[:, q], points[:, t]) for t in others])
        order = np.argsort(dists, kind="stable")
        hits = 0
        precisions = []
        for rank, idx in enumerate(order, start=1):
            if labels[others[idx]] == labels[q]:
                hits += 1
                precisions.append(hits / rank)
        ap_values.append(sum(precisions) / len(precisions))
    if not ap_values:
        return 0.0, 0, excluded
    return sum(ap_values) / len(ap_values), len(ap_values), excluded


def argsort_map(L, test):
    """``evaluate.ranking_map`` by one stable index sort per query row.

    Scores the same distance blocks as the package, so the two must agree
    bit for bit at any size; ``naive_map`` computes its own distances and
    is too slow beyond a few hundred points.
    """
    labels = test.labels
    ap_values = []
    excluded = 0
    for rows, dist in evaluate.sq_distance_blocks(L.T @ test.points):
        queries = np.arange(test.n)[rows]
        dist[np.arange(queries.size), queries] = -np.inf  # each query ranks itself first
        hits = labels[np.argsort(dist, axis=1, kind="stable")[:, 1:]] == labels[queries, None]
        for row in hits:
            rank = np.flatnonzero(row) + 1
            if rank.size == 0:
                excluded += 1
                continue
            ap_values.append(sum((np.arange(1, rank.size + 1) / rank).tolist()) / rank.size)
    return sum(ap_values) / len(ap_values), len(ap_values), excluded


def naive_knn(L, train_points, train_labels, test_points, test_labels, k):
    """k-NN accuracy under the metric L L^T, with explicit loops and documented tie rules.

    Neighbor ties on distance resolve to the smaller training index
    (stable sort); vote ties resolve to the smallest class id.
    """
    n_train = train_points.shape[1]
    n_test = test_points.shape[1]
    correct = 0
    for q in range(n_test):
        dists = np.array(
            [naive_sq_distance(L, test_points[:, q], train_points[:, t]) for t in range(n_train)]
        )
        order = np.argsort(dists, kind="stable")[:k]
        votes = {}
        for idx in order:
            votes[int(train_labels[idx])] = votes.get(int(train_labels[idx]), 0) + 1
        best = max(votes.values())
        predicted = min(c for c, count in votes.items() if count == best)
        if predicted == int(test_labels[q]):
            correct += 1
    return correct / n_test


DEFAULT_BLOCK_BYTES = evaluate.BLOCK_BYTES


def cap_block_rows(monkeypatch, rows, n_cols):
    """Make each distance block ``rows`` query rows of ``n_cols`` columns (None: the default cap)."""
    cap = DEFAULT_BLOCK_BYTES if rows is None else 8 * rows * n_cols
    monkeypatch.setattr(evaluate, "BLOCK_BYTES", cap)


def with_copies(data, seed, copies=3):
    """``data`` plus copies of a few of its points and one point of a class of its own.

    The copies keep their labels and sit at higher indices than their
    originals, so a stable order must keep them behind.
    """
    rng = np.random.default_rng(seed)
    picked = rng.choice(data.n, size=copies, replace=False)
    points = np.hstack([data.points, data.points[:, picked], rng.normal(size=(data.d, 1))])
    labels = np.concatenate([data.labels, data.labels[picked], [data.labels.max() + 1]])
    return LabeledDataset(points, labels)


def nuisance_blobs(d, n, seed):
    """Ten classes whose means a 20-dimensional high-variance nuisance subspace swamps.

    Draws, in this order from one generator: class means N(0, 1/d)
    (d x 10), labels ``arange(n) % 10``, the Q of a thin QR of a d x 20
    normal draw, isotropic noise of std 0.3/sqrt(d), and 20 nuisance
    coordinates of std 2.0 that Q maps into the data.  Reducing the
    dimension first (PCA) keeps the nuisance directions and loses the
    classes; the paper's claim is that learning in the sketch does not.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, 10))
    labels = np.arange(n) % 10
    Q = np.linalg.qr(rng.normal(size=(d, 20)))[0]
    points = means[:, labels] + rng.normal(0.0, 0.3 / np.sqrt(d), size=(d, n))
    points += Q @ rng.normal(0.0, 2.0, size=(20, n))
    return LabeledDataset(points, labels)


def lattice_problem(d, n, n_classes, seed):
    """Small-integer points with random labels, and the integer factor B of a metric B B^T.

    Every squared distance is a small integer that any summation order
    computes exactly, so exact ties between different classes are common
    and every route sees the same ties.  Returns (B, data).
    """
    rng = np.random.default_rng(seed)
    B = rng.integers(-1, 2, size=(d, d)).astype(np.float64)
    points = rng.integers(-2, 3, size=(d, n)).astype(np.float64)
    return B, LabeledDataset(points, rng.integers(0, n_classes, size=n))


def planted_tie_problem(d, n, n_classes, seed):
    """Widely spread integer points, with one planted tie across classes; returns (B, data).

    Coordinates in [-1000, 1000] and a factor B in {-1, 0, 1} keep every
    squared distance an integer below 2**53, computed exactly by any
    summation order, yet so spread that rows of random points rarely tie.
    Point 0 sees point 1 = x_0 - v (another class) and point 2 = x_0 + v
    (its class) at exactly equal distance, so the stable order ranks the
    relevant point 2 behind point 1.
    """
    rng = np.random.default_rng(seed)
    B = rng.integers(-1, 2, size=(d, d)).astype(np.float64)
    points = rng.integers(-1000, 1001, size=(d, n)).astype(np.float64)
    labels = rng.integers(0, n_classes, size=n)
    v = rng.integers(1, 51, size=d)
    points[:, 1] = points[:, 0] - v
    points[:, 2] = points[:, 0] + v
    labels[1] = (labels[0] + 1) % n_classes
    labels[2] = labels[0]
    return B, LabeledDataset(points, labels)


def per_kind_loss_value(loss, z):
    """loss(z) by one formula per kind: max(0, 1 - z), or nested ``np.where`` over both pieces.

    The smoothed form evaluates (1 - z)^2 at every z, so it overflows (and
    warns) at large |z| on entries it does not select.
    """
    z = np.asarray(z, dtype=np.float64)
    if loss.kind == "hinge":
        return np.maximum(0.0, 1.0 - z)
    g = loss.gamma
    return np.where(z >= 1.0, 0.0, np.where(z >= 1.0 - g, (1.0 - z) ** 2 / (2.0 * g),
                                            1.0 - z - g / 2.0))


def array_loss_derivative(loss, z):
    """loss'(z) elementwise over an array, by nested ``np.where``."""
    z = np.asarray(z, dtype=np.float64)
    if loss.kind == "hinge":
        return np.where(z < 1.0, -1.0, 0.0)
    g = loss.gamma
    return np.where(z >= 1.0, 0.0, np.where(z >= 1.0 - g, -(1.0 - z) / g, -1.0))


def one_row_certificate(alpha, r, loss, lam):
    """:func:`durp.solver.certificate` of one problem in Python floats, its box check aside.

    The dot ``alpha @ r``, the sum of the conjugate and the mean of the loss
    over the whole row, each taken to a Python float before it is combined.
    """
    n = len(alpha)
    lam_n = lam * n
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(alpha @ r)
        dual = float(-np.sum(loss.conjugate(alpha)) - quad / (2.0 * lam_n))
        mant, exp = np.frexp(quad)
        norm_term = float(np.ldexp(0.5 * lam * mant / lam_n**2, exp))
        primal = norm_term + float(np.mean(loss.value(-r / lam_n)))
    return dual, max(primal - dual / n, 0.0)


def primal_sgd_epoch(cache, loss, lam, order):
    """The subgradient seed epoch written on the primal iterate M.

    Visits ``order`` with step 1/(lam s), records alpha_t = loss'(<M, A_t>)
    at visit time and shrinks all of M by 1 - 1/s at every step.
    Returns (alpha, final M).
    """
    p = cache.space_dim
    U, V = differences(cache)
    M = np.zeros((p, p))
    alpha = np.zeros(cache.n)
    for step, t in enumerate(order, start=1):
        u = U[:, t]
        v = V[:, t]
        g = float(loss.derivative(float(u @ (M @ u) - v @ (M @ v))))
        alpha[t] = g
        eta = 1.0 / (lam * step)
        M *= 1.0 - eta * lam
        if g != 0.0:
            M -= (eta * g) * np.outer(u, u)
            M += (eta * g) * np.outer(v, v)
    return alpha, M


def power_iteration_norm(A, iters=200, seed=0):
    """Spectral norm of a square matrix via plain power iteration on A^T A."""
    n = A.shape[0]
    if n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    B = A.T @ A
    for _ in range(iters):
        y = B @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
    return float(np.sqrt(x @ (B @ x)))


def random_columns(rng, p, n):
    """Random difference columns U, V (p x n each), not tied to any points."""
    return rng.normal(size=(p, n)), rng.normal(size=(p, n))


KRON_DIM_LIMIT = 256


def gram_entry(U, V, a, b):
    """G[a, b] via the four-term decomposition, O(p)."""
    ua, va = U[:, a], V[:, a]
    ub, vb = U[:, b], V[:, b]
    return float((ua @ ub) ** 2 + (va @ vb) ** 2 - (ua @ vb) ** 2 - (va @ ub) ** 2)


def gram_oracle(U, V, a, b):
    """G[a, b] through the p^2-dimensional Kronecker embedding.

    z_t = u_t (x) u_t - v_t (x) v_t satisfies G[a, b] = <z_a, z_b>, which
    also certifies that G is positive semidefinite.  Quadratic memory, so
    guarded to small dimensions.
    """
    p = U.shape[0]
    if p > KRON_DIM_LIMIT:
        raise ValueError(f"Kronecker oracle limited to dimension {KRON_DIM_LIMIT}, got {p}")
    za = np.kron(U[:, a], U[:, a]) - np.kron(V[:, a], V[:, a])
    zb = np.kron(U[:, b], U[:, b]) - np.kron(V[:, b], V[:, b])
    return float(za @ zb)


def gram_vector_product(cache, alpha):
    """(G alpha)_t = u_t^T S u_t - v_t^T S v_t, matrix-free through the accumulator S."""
    S = accumulator(cache, alpha)
    U, V = differences(cache)
    return np.einsum("pt,pt->t", U, S @ U) - np.einsum("pt,pt->t", V, S @ V)


def dual_objective_from_alpha(cache, alpha, loss, lam):
    """D(alpha) evaluated matrix-free from alpha alone (no solver state)."""
    quad = float(alpha @ gram_vector_product(cache, alpha))
    return float(-np.sum(loss.conjugate(alpha)) - quad / (2.0 * lam * cache.n))


def kappa_power_check(U, V, seed=0):
    """Spectral norms of the four dense norm-product matrices by power iteration.

    Independent of the closed form in :func:`durp.harness.kappa`.  Quadratic
    in N, so desk scale only.
    """
    p = np.einsum("pt,pt->t", U, U)
    q = np.einsum("pt,pt->t", V, V)
    dense = (np.outer(p, p), np.outer(q, q), np.outer(p, q), np.outer(q, p))
    return tuple(power_iteration_norm(A, seed=seed) for A in dense)


def sequential_sdca_epoch(state, loss, order):
    """One coordinate-ascent pass over ``order``, one coordinate at a time.

    Each visit reads its margin u^T S u - v^T S v from the current S, takes
    the closed-form coordinate maximizer and adds the change to S as two
    rank-one updates: the per-coordinate loop the block sweep must
    reproduce.  Updates ``state`` in place (no drift refresh).
    """
    lam_n = state.lam * state.cache.n
    U, V = differences(state.cache)
    for t in order:
        u, v = U[:, t], V[:, t]
        g_tt = gram_entry(U, V, t, t)
        c_t = float(u @ (state.S @ u) - v @ (state.S @ v)) - state.alpha[t] * g_tt
        if loss.kind == "hinge":
            if g_tt > 0.0:
                new = min(0.0, max(-1.0, -(lam_n + c_t) / g_tt))
            else:
                new = -1.0 if -(1.0 + c_t / lam_n) < 0.0 else 0.0
        else:
            new = min(0.0, max(-1.0, -(lam_n + c_t) / (loss.gamma * lam_n + max(g_tt, 0.0))))
        delta = new - state.alpha[t]
        if delta != 0.0:
            state.S += delta * np.outer(u, u)
            state.S -= delta * np.outer(v, v)
            state.alpha[t] = new
    return state


def stored_column_sweep(state, order, step):
    """``solver._sweep`` on U, V gathered once for all N triplets, each block taking its columns.

    The sweep as it ran while the solver state held both p x N arrays.
    ``solver.BLOCK``, ``solver.DRIFT_TOL`` and ``solver.accumulator`` are
    read at call time, so a patched value applies to both sweeps.  The
    production sweep gathers each block from the points and must give these
    bytes: alpha, S and the drift.
    """
    U, V = differences(state.cache)
    alpha, S = state.alpha, state.S
    order = np.asarray(order)
    for b in range(0, len(order), solver.BLOCK):
        block = order[b:b + solver.BLOCK]
        U_B = U.take(block, axis=1)
        V_B = V.take(block, axis=1)
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
    rebuilt = solver.accumulator(state.cache, alpha)
    scale = max(float(np.abs(rebuilt).max()), 1e-30)
    drift = float(np.abs(S - rebuilt).max()) / scale
    if drift > solver.DRIFT_TOL:
        raise ValueError(f"accumulator drift {drift:.3e} exceeds {solver.DRIFT_TOL:.1e}")
    state.S = rebuilt
    return drift


def textbook_pga(cache, loss, lam, gap_tol=1e-8):
    """:func:`durp.solver.pga_solve` as a textbook loop; returns (solution, restarts).

    Every step allocates its arrays, clips with ``np.clip``, takes ``np.sqrt``
    of the momentum schedule and multiplies with ``@``.  It reads
    ``MAX_ITERS`` and ``CHECK_EVERY`` from the module at call time, so a
    patched limit applies to both loops.  ``restarts`` lists, in order, the
    steps at whose check the objective went backwards and momentum was reset.
    """
    n = cache.n
    U, V = differences(cache)
    if U.shape[0] * (U.shape[0] + 1) <= n:
        Phi = gram_factor(U, V)

        def product(a):
            return Phi.T @ (Phi @ a)

        top = np.linalg.eigvalsh(Phi @ Phi.T)[-1]
    else:
        G = dense_gram(U, V)

        def product(a):
            return G @ a

        top = np.linalg.eigvalsh(G)[-1]
    lam_n = lam * n
    width = loss.width
    step = 1.0 / max(top / lam_n + width, 1e-30)

    def grad(a):
        g = -1.0 - product(a) / lam_n
        if width:
            g = g - width * a
        return g

    alpha = np.zeros(n)
    momentum = alpha.copy()
    t_accel = 1.0
    best_obj = -np.inf
    restarts = []
    obj, gap = certificate(alpha, product(alpha), loss, lam)
    iters_done = 0
    while gap > gap_tol and iters_done < solver.MAX_ITERS:
        iters_done += 1
        new = np.clip(momentum + step * grad(momentum), -1.0, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_accel * t_accel))
        momentum = np.clip(new + ((t_accel - 1.0) / t_next) * (new - alpha), -1.0, 0.0)
        t_accel = t_next
        alpha = new
        if iters_done % solver.CHECK_EVERY == 0:
            obj, gap = certificate(alpha, product(alpha), loss, lam)
            if obj < best_obj:
                momentum = alpha.copy()
                t_accel = 1.0
                restarts.append(iters_done)
            best_obj = max(best_obj, obj)
    if gap > gap_tol:
        raise ValueError(f"reference solve stalled at gap {gap:.3e} > {gap_tol:.1e}")
    trace = [(iters_done, obj, gap, 0.0)]
    return DualSolution(alpha=alpha, objective=obj, gap=gap, trace=trace), restarts
