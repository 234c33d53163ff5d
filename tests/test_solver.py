"""Loss models, coordinate updates, the seeded first epoch, and the full solver."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from durp import cli, solver
from durp.solver import (
    LossModel,
    accumulator,
    cache_margins,
    certificate,
    csdca_solve,
    dense_gram,
    init_state,
    margins,
    pga_solve,
    sdca_epoch,
    sgd_epoch,
)
from durp.synth import gaussian_blobs, margin_gapped_blobs
from durp.triplets import (
    TripletCache,
    build_cache,
    differences,
    gaussian_matrix,
    project_cache,
    sample_active_triplets,
)

from oracles import (
    array_loss_derivative,
    dual_objective_from_alpha,
    naive_primal,
    naive_recover,
    one_row_certificate,
    per_kind_loss_value,
    primal_sgd_epoch,
    sequential_sdca_epoch,
    stored_column_sweep,
    textbook_pga,
)


def solver_instance(seed, loss_kind):
    """Small instance scaled so three epochs reach near-optimality.

    The 0.35 noise multiplier keeps squared difference norms small enough
    that the dual is well conditioned at lam = 1/N while the optimum still
    mixes pinned, free, and interior coordinates.
    """
    del loss_kind  # same scaling works for both losses
    d = 12 + seed % 9
    n_triplets = 40 + 6 * seed
    data = gaussian_blobs(d, 90, 3, seed=seed, noise=0.35 / np.sqrt(2 * d))
    cache = build_cache(data, sample_active_triplets(data, n_triplets, seed=seed))
    return cache, 1.0 / cache.n


def factor_instance(seed):
    """Small instance at p = 4, N >= 30, where p(p + 1) <= N puts pga_solve on G's factor."""
    data = gaussian_blobs(4, 60, 3, seed=seed, noise=0.35 / np.sqrt(8))
    cache = build_cache(data, sample_active_triplets(data, 30 + 4 * seed, seed=seed))
    return cache, 1.0 / cache.n


def sketched_instance(m):
    """500 triplets of margin-gapped data at d = 40, sketched to m dimensions."""
    (cache,), lam = sketched_batch(m, [0])
    return cache, lam


def sketched_batch(m, seeds):
    """``sketched_instance(m)``'s problem under the sketches of ``seeds``; one shape."""
    data = margin_gapped_blobs(40, 3, 120, seed=0)
    cache = build_cache(data, sample_active_triplets(data, 500, seed=0))
    return [project_cache(cache, gaussian_matrix(40, m, seed)) for seed in seeds], 1.0 / cache.n


def test_loss_model_validation():
    with pytest.raises(ValueError, match="loss kind"):
        LossModel(kind="logistic")
    with pytest.raises(ValueError, match="gamma"):
        LossModel(kind="smoothed_hinge", gamma=0.0)
    for kind in ("hinge", "smoothed_hinge"):
        for gamma in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="gamma must be finite"):
                LossModel(kind=kind, gamma=gamma)
    assert LossModel().kind == "hinge"


def test_hinge_values_and_derivative():
    loss = LossModel("hinge")
    z = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    assert np.array_equal(loss.value(z), np.array([2.0, 1.0, 0.5, 0.0, 0.0]))
    assert np.array_equal([loss.derivative(x) for x in z], np.array([-1.0, -1.0, -1.0, 0.0, 0.0]))
    assert np.array_equal(loss.conjugate(np.array([-1.0, -0.5, 0.0])), np.array([-1.0, -0.5, 0.0]))


def test_smoothed_hinge_pieces_join_continuously():
    for gamma in (0.25, 1.0, 2.0):
        loss = LossModel("smoothed_hinge", gamma=gamma)
        knot_lo, knot_hi = 1.0 - gamma, 1.0
        eps = 1e-9
        for knot in (knot_lo, knot_hi):
            below = float(loss.value(knot - eps))
            above = float(loss.value(knot + eps))
            assert abs(below - above) < 1e-7
            d_below = loss.derivative(knot - eps)
            d_above = loss.derivative(knot + eps)
            assert abs(d_below - d_above) < 1e-7
        derivs = np.array([loss.derivative(x) for x in np.linspace(-2, 3, 101)])
        assert np.all(derivs >= -1.0)
        assert np.all(derivs <= 0.0)
        # quadratic region value: (1-z)^2 / (2 gamma)
        mid = 1.0 - gamma / 2
        assert np.isclose(float(loss.value(mid)), (gamma / 2) ** 2 / (2 * gamma))


def test_scalar_derivative_matches_array_form_bit_for_bit():
    for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=0.25),
                 LossModel("smoothed_hinge", gamma=0.7), LossModel("smoothed_hinge", gamma=2.0)):
        knots = np.array([1.0 - loss.gamma, 1.0])
        z = np.concatenate([
            np.linspace(-3.0, 3.0, 601),
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan],
        ])
        scalar = np.array([loss.derivative(float(x)) for x in z])
        assert scalar.tobytes() == array_loss_derivative(loss, z).tobytes()


def test_loss_value_matches_the_per_kind_formulas_bit_for_bit():
    rng = np.random.default_rng(0)
    spread = rng.choice([-1.0, 1.0], 60_000) * 10.0 ** rng.uniform(-320, 300, 60_000)
    for loss in (LossModel("hinge"), *(LossModel("smoothed_hinge", gamma=g)
                                       for g in (1e-9, 0.37, 1.0, 1e6))):
        below = above = np.array([1.0, 1.0 - loss.gamma, 1.0 - loss.gamma / 2.0])
        near = [below]
        for _ in range(3):  # each knot and its three float neighbours on either side
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            near += [below, above]
        special = np.concatenate([*near, [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                                          1e300, -1e300, np.inf, -np.inf, np.nan]])
        z = np.concatenate([special, np.linspace(-3.0, 3.0, 40_001),
                            1.0 + loss.gamma * np.linspace(-2.0, 1.0, 10_001), spread])
        with np.errstate(all="raise"):  # no overflow, not even on unselected entries
            got = loss.value(z)
            scalars = [loss.value(float(x)) for x in special]
        with np.errstate(all="ignore"):
            want = per_kind_loss_value(loss, z)
            want_scalars = [per_kind_loss_value(loss, float(x)) for x in special]
        assert got.shape == z.shape and got.tobytes() == want.tobytes()
        for a, b in zip(scalars, want_scalars):
            assert np.ndim(a) == np.ndim(b) == 0 and a.tobytes() == b.tobytes()


def test_conjugate_is_fenchel_dual_on_the_box():
    z_grid = np.linspace(-8.0, 8.0, 4001)
    for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=0.7)):
        for alpha in np.linspace(-1.0, 0.0, 9):
            numeric = np.max(alpha * z_grid - loss.value(z_grid))
            assert abs(float(loss.conjugate(alpha)) - numeric) < 1e-3


def test_init_state_validation():
    cache, _ = solver_instance(0, "hinge")
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            init_state(cache, lam)
    state = init_state(cache, 0.1)
    assert state.alpha.shape == (cache.n,)
    assert np.all(state.alpha == 0)


def production_certificate(cache, alpha, loss, lam):
    """certificate() on the coordinate-ascent route: margins read off S rebuilt from alpha."""
    U, V = differences(cache)
    return certificate(alpha, margins(U, V, accumulator(cache, alpha)), loss, lam)


def test_dual_objective_routes_agree():
    cache, lam = solver_instance(1, "hinge")
    rng = np.random.default_rng(0)
    alpha = -rng.random(cache.n)
    for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=0.5)):
        a = production_certificate(cache, alpha, loss, lam)[0]
        b = dual_objective_from_alpha(cache, alpha, loss, lam)
        assert abs(a - b) < 1e-8 * (abs(a) + 1.0)


def test_dual_objective_rejects_infeasible_alpha():
    for bad in (0.5, -1.5):
        with pytest.raises(ValueError, match="box"):
            certificate(np.full(5, bad), np.zeros(5), LossModel("hinge"), 0.1)


@pytest.mark.parametrize("n", [500, 3500, 25000])
@pytest.mark.parametrize("kind", ["hinge", "smoothed_hinge"])
def test_certificate_gives_each_row_of_a_stack_its_one_row_bits(kind, n):
    # rows mixing entries at -1, at 0 and inside the box, one all at 0 and one
    # all at -1; margins either side of the loss's kinks, lam N off 1
    loss = LossModel(kind, gamma=0.7)
    lam = 0.3 / n
    rng = np.random.default_rng(n)
    alpha = -rng.random((4, n))
    alpha[0, ::3], alpha[0, 1::3] = -1.0, 0.0
    alpha[2], alpha[3] = 0.0, -1.0
    r = rng.normal(0.0, 0.4, (4, n))
    dual, gap = certificate(alpha, r, loss, lam)
    assert dual.shape == gap.shape == (4,)
    assert len(set(gap.tolist())) == 4
    for row in range(4):
        one = certificate(alpha[row], r[row], loss, lam)
        assert isinstance(one[0], float) and isinstance(one[1], float)
        assert np.array(one).tobytes() == np.array([dual[row], gap[row]]).tobytes()
        # the one-row call keeps the bits of the whole-row float computation
        assert np.array(one).tobytes() == np.array(
            one_row_certificate(alpha[row], r[row], loss, lam)).tobytes()
    # one bad row refuses the whole stack, with the one-row messages
    for bad in (0.5, -1.5):
        outside = alpha.copy()
        outside[1, 7] = bad
        with pytest.raises(ValueError, match=r"^alpha leaves the box \[-1, 0\]$"):
            certificate(outside, r, loss, lam)
    huge = r.copy()
    huge[1] = 1e300
    with pytest.raises(ValueError, match=r"^the duality gap overflows at lambda = 1e-10; "
                                         r"the data are too large$"):
        certificate(alpha, huge, loss, 1e-10)


def test_sdca_update_is_exact_coordinate_maximizer():
    rng = np.random.default_rng(2)
    for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=0.5)):
        cache, lam = solver_instance(3, loss.kind)
        G = dense_gram(*differences(cache))
        n = cache.n
        state = init_state(cache, lam)
        state.alpha = -rng.random(n)
        state.S = accumulator(cache, state.alpha)
        grid = np.linspace(-1.0, 0.0, 2001)
        for t in rng.integers(0, n, size=8):
            t = int(t)
            sequential_sdca_epoch(state, loss, [t])
            base = state.alpha.copy()
            # dual objective as a function of this coordinate alone
            values = []
            for g in grid:
                trial = base.copy()
                trial[t] = g
                values.append(-np.sum(loss.conjugate(trial)) - trial @ G @ trial / (2 * lam * n))
            best = max(values)
            achieved = -np.sum(loss.conjugate(base)) - base @ G @ base / (2 * lam * n)
            assert achieved >= best - 1e-7 * (abs(best) + 1.0)


def test_sdca_update_keeps_s_consistent():
    cache, lam = solver_instance(4, "hinge")
    loss = LossModel("hinge")
    state = init_state(cache, lam)
    for t in range(min(25, cache.n)):
        sequential_sdca_epoch(state, loss, [t])
    rebuilt = accumulator(cache, state.alpha)
    assert np.allclose(state.S, rebuilt, atol=1e-10 * (np.abs(rebuilt).max() + 1.0))


def test_epochs_refuse_a_drifted_accumulator(monkeypatch):
    cache, lam = solver_instance(0, "hinge")
    loss = LossModel("hinge")
    state = init_state(cache, lam)
    sgd_epoch(state, loss, np.random.default_rng(0).permutation(cache.n))
    # the rebuilt S is twice the running one: a relative drift of 1/2
    monkeypatch.setattr(solver, "accumulator", lambda c, alpha: 2.0 * accumulator(c, alpha))
    for epoch in (sgd_epoch, sdca_epoch):
        with pytest.raises(ValueError, match=r"accumulator drift 5\.000e-01 exceeds 1\.0e-06"):
            epoch(state, loss, np.random.default_rng(1).permutation(cache.n))


def test_sgd_epoch_all_active_pins_every_coordinate():
    # margins stay below 1 all epoch on a scaled-down instance, so the
    # recorded subgradient is -1 at every visit
    d = 6
    data = gaussian_blobs(d, 60, 3, seed=5, noise=0.01 / np.sqrt(2 * d))
    cache = build_cache(data, sample_active_triplets(data, 50, seed=5))
    state = init_state(cache, 1.0 / cache.n)
    sgd_epoch(state, LossModel("hinge"), list(range(cache.n)))
    assert np.all(state.alpha == -1.0)
    assert np.array_equal(state.S, accumulator(cache, state.alpha))


def test_sgd_epoch_matches_primal_subgradient_pass():
    # the dual-form seed pass visits the same margins as the primal
    # iterate M_s = -S_s/(lam s), up to rounding
    worst_alpha = worst_m = 0.0
    for seed in range(10):
        for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=1.0)):
            cache, lam = solver_instance(seed, loss.kind)
            order = list(np.random.default_rng(seed).permutation(cache.n))
            state = init_state(cache, lam)
            sgd_epoch(state, loss, order)
            alpha, M = primal_sgd_epoch(cache, loss, lam, order)
            alpha_err = float(np.abs(state.alpha - alpha).max())
            if loss.kind == "hinge":
                assert alpha_err == 0.0
            assert alpha_err <= 1e-12
            M_dual = -state.S / (lam * cache.n)
            m_err = float(np.abs(M_dual - M).max()) / float(np.abs(M).max())
            assert m_err <= 1e-12
            worst_alpha, worst_m = max(worst_alpha, alpha_err), max(worst_m, m_err)
    print(f"worst alpha difference {worst_alpha:.1e}, worst relative M difference {worst_m:.1e}")


@pytest.mark.parametrize("block", [1, 3, None])
def test_block_sdca_epoch_matches_sequential_oracle(monkeypatch, block):
    # N runs 40..94 over the seeds, so blocks of 3 and of the default size
    # both leave a short last block for some seeds
    if block is not None:
        monkeypatch.setattr(solver, "BLOCK", block)
    worst = 0.0
    for seed in range(10):
        for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=1.0)):
            cache, lam = solver_instance(seed, loss.kind)
            rng = np.random.default_rng(seed)
            seeded = init_state(cache, lam)
            sgd_epoch(seeded, loss, rng.permutation(cache.n))
            order = rng.permutation(cache.n)
            block_state = replace(seeded, alpha=seeded.alpha.copy(), S=seeded.S.copy())
            sdca_epoch(block_state, loss, order)
            sequential_sdca_epoch(seeded, loss, order)
            err = float(np.abs(block_state.alpha - seeded.alpha).max())
            assert err <= 1e-12
            worst = max(worst, err)
    print(f"block {solver.BLOCK}: worst alpha difference {worst:.1e}")


def duori_instance():
    """duori's shape at desk size: a d = 64 cache solved in its own space.

    N = 2100 leaves a short last sweep block (52 of 64 coordinates) and
    takes the certificate margins in two slices (1024 and 1076 columns).
    The optimum mixes coordinates at -1, at 0 and strictly inside.
    """
    data = gaussian_blobs(64, 300, 4, seed=0, noise=1.0 / np.sqrt(128))
    cache = build_cache(data, sample_active_triplets(data, 2100, seed=0))
    return cache, 1.0 / cache.n


def scheduled_epochs(cache, loss, lam, margins_of):
    """csdca_solve's three epochs run by hand: (state, rows without the seconds column)."""
    rng = np.random.default_rng(0)
    state = init_state(cache, lam)
    rows = []
    for epoch in (1, 2, 3):
        drift = (sgd_epoch if epoch == 1 else sdca_epoch)(state, loss, rng.permutation(cache.n))
        rows.append((epoch, *certificate(state.alpha, margins_of(cache, state.S), loss, lam), drift))
    return state, rows


@pytest.mark.parametrize("loss", [LossModel("hinge"), LossModel("smoothed_hinge", gamma=0.5)],
                         ids=["hinge", "smoothed_hinge"])
def test_block_gathers_keep_the_stored_column_bits(monkeypatch, loss):
    # each block's columns gathered from the points against the sweep on U, V
    # gathered once, certified on the margins of one call on all N columns
    cache, lam = duori_instance()
    assert cache.space_dim >= 64 and cache.n % solver.BLOCK and cache.n > 2 * solver.CHUNK
    solution = csdca_solve(cache, loss, lam, epochs=3, seed=0)
    state, rows = scheduled_epochs(cache, loss, lam, cache_margins)
    monkeypatch.setattr(solver, "_sweep", stored_column_sweep)
    stored, stored_rows = scheduled_epochs(cache, loss, lam,
                                           lambda c, S: margins(*differences(c), S))
    assert solution.alpha.tobytes() == state.alpha.tobytes() == stored.alpha.tobytes()
    assert state.S.tobytes() == stored.S.tobytes()
    traced = [(r.epoch, r.dual_objective, r.duality_gap, r.accumulator_drift)
              for r in solution.trace]
    assert np.array(traced).tobytes() == np.array(rows).tobytes() == np.array(stored_rows).tobytes()
    interior = (stored.alpha > -1.0) & (stored.alpha < 0.0)
    assert 0 < interior.sum() < cache.n


@pytest.mark.parametrize("p", [10, 64])
@pytest.mark.parametrize("n", [2 * solver.CHUNK - 3, 5 * solver.CHUNK + 77])
def test_cache_margins_are_the_bytes_of_one_call(p, n):
    # 2 CHUNK - 3 columns are one slice; 5 CHUNK + 77 are five, the last 1101 wide
    rng = np.random.default_rng(p + n)
    cache = TripletCache(rng.normal(size=(p, 400)), rng.integers(0, 400, size=(n, 3)))
    S = rng.normal(size=(p, p))
    S += S.T
    assert cache_margins(cache, S).tobytes() == margins(*differences(cache), S).tobytes()


def test_cache_margins_round_within_an_ulp_of_one_call_at_mid_p():
    # at 16 <= p <= 31 OpenBLAS can run a slice of about CHUNK columns on its
    # small-matrix kernel and all N columns on the large one, which may round
    # a ragged last few columns differently (README, Determinism)
    rng = np.random.default_rng(24)
    p, n = 24, 2100
    cache = TripletCache(rng.normal(size=(p, 400)), rng.integers(0, 400, size=(n, 3)))
    S = rng.normal(size=(p, p))
    S += S.T
    one_call = margins(*differences(cache), S)
    err = float(np.abs(cache_margins(cache, S) - one_call).max())
    print(f"p = {p}, N = {n}: largest margin difference {err:.1e}")
    assert err <= 4 * np.finfo(float).eps * float(np.abs(one_call).max())


def test_solve_holds_less_than_one_p_by_n_array():
    # N = 40 n at p = 32: the two stored p x N difference arrays of earlier
    # solvers alone were twice the bound
    rng = np.random.default_rng(0)
    p, n_points, n = 32, 300, 12000
    cache = TripletCache(rng.normal(size=(p, n_points)) / np.sqrt(p),
                         rng.integers(0, n_points, size=(n, 3)))
    tracemalloc.start()
    try:
        csdca_solve(cache, LossModel("hinge"), 1.0 / n, epochs=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"solver peak {peak / 1e6:.2f} MB against one p x N array of {8 * p * n / 1e6:.2f} MB")
    assert peak < 8 * p * n


def test_drift_stays_below_tolerance_at_100k_triplets():
    # random index triplets over 2000 points in m = 10: the paper's N without
    # the sampler's cost; the running S takes 100k steps per epoch
    rng = np.random.default_rng(0)
    n_points, n = 2000, 100_000
    cache = TripletCache(rng.normal(size=(10, n_points)) / np.sqrt(10),
                         rng.integers(0, n_points, size=(n, 3)))
    for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=1.0)):
        solution = csdca_solve(cache, loss, 1.0 / n, epochs=2, seed=0)
        drifts = [row[4] for row in solution.trace]
        assert len(drifts) == 2
        assert max(drifts) <= solver.DRIFT_TOL
        print(f"{loss.kind}: drift per epoch {drifts}")


def test_csdca_determinism_and_feasibility():
    cache, lam = solver_instance(9, "hinge")
    loss = LossModel("hinge")
    a = csdca_solve(cache, loss, lam, epochs=3, seed=11)
    b = csdca_solve(cache, loss, lam, epochs=3, seed=11)
    c = csdca_solve(cache, loss, lam, epochs=3, seed=12)
    assert np.array_equal(a.alpha, b.alpha)
    # a different seed changes the visit order, visible after epoch one
    # (the converged points may still agree: the optimum is unique)
    assert a.trace[0][1] != c.trace[0][1]
    assert a.alpha.min() >= -1.0 and a.alpha.max() <= 0.0
    assert len(a.trace) == 3
    assert [row[0] for row in a.trace] == [1, 2, 3]


def test_csdca_gap_nonnegative_and_objective_monotone():
    for kind in ("hinge", "smoothed_hinge"):
        loss = LossModel(kind, gamma=1.0)
        cache, lam = solver_instance(7, kind)
        solution = csdca_solve(cache, loss, lam, epochs=4, seed=0)
        gaps = [row[2] for row in solution.trace]
        objs = [row[1] for row in solution.trace]
        assert all(g >= -1e-12 for g in gaps)
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))  # SDCA ascends


def test_csdca_matches_reference_solver():
    for kind in ("hinge", "smoothed_hinge"):
        loss = LossModel(kind, gamma=1.0)
        cache, lam = solver_instance(8, kind)
        mine = csdca_solve(cache, loss, lam, epochs=3, seed=0)
        oracle = pga_solve([cache], loss, lam, gap_tol=1e-9)
        assert abs(mine.objective - oracle.objective[0]) < 1e-3


def test_reference_gap_matches_production_gap():
    # pga_solve reads its margins off G alpha; csdca_solve reads them off S and U, V.
    # solver_instance has p(p + 1) > N (dense G), factor_instance p(p + 1) <= N.
    for kind in ("hinge", "smoothed_hinge"):
        loss = LossModel(kind, gamma=1.0)
        instances = [solver_instance(seed, kind) for seed in range(5)]
        instances += [factor_instance(seed) for seed in range(3)]
        for cache, lam in instances:
            oracle = pga_solve([cache], loss, lam)
            _, gap = production_certificate(cache, oracle.alpha[0], loss, lam)
            assert abs(oracle.gap[0] - gap) <= 1e-12


def test_reference_solver_does_not_rebuild_the_metric(monkeypatch):
    def refuse(cache, alpha):
        raise AssertionError("pga_solve went through the accumulator")

    monkeypatch.setattr(solver, "accumulator", refuse)
    cache, lam = solver_instance(2, "hinge")
    assert pga_solve([cache], LossModel("hinge"), lam).gap[0] <= 1e-8


def test_reference_solver_route_follows_the_shape(monkeypatch):
    def refuse(U, V):
        raise AssertionError("pga_solve built the dense Gram")

    monkeypatch.setattr(solver, "dense_gram", refuse)
    loss = LossModel("hinge")
    cache, lam = sketched_instance(5)  # 5 * 6 <= 500: the factor route
    assert pga_solve([cache], loss, lam).gap[0] <= 1e-8
    cache, lam = sketched_instance(25)  # 25 * 26 > 500: the dense route
    with pytest.raises(AssertionError, match="dense Gram"):
        pga_solve([cache], loss, lam)


def test_reference_solver_caps_only_the_dense_route(monkeypatch):
    monkeypatch.setattr(solver, "DENSE_LIMIT", 5)
    rng = np.random.default_rng(12)
    triplets = rng.integers(0, 30, size=(30, 3))
    factor_route = TripletCache(0.1 * rng.normal(size=(3, 30)), triplets)  # 3 * 4 <= 30
    assert pga_solve([factor_route], LossModel("hinge"), 1.0 / 30).gap[0] <= 1e-8
    dense_route = TripletCache(0.1 * rng.normal(size=(8, 30)), triplets)  # 8 * 9 > 30
    with pytest.raises(ValueError, match="dense Gram limited to 5 triplets"):
        pga_solve([dense_route], LossModel("hinge"), 1.0 / 30)


def test_csdca_gap_tol_extension_and_failure():
    cache, lam = solver_instance(9, "hinge")
    loss = LossModel("hinge")
    solved = csdca_solve(cache, loss, lam, epochs=2, seed=0, gap_tol=1e-6, max_epochs=60)
    assert solved.gap <= 1e-6
    assert len(solved.trace) >= 2
    with pytest.raises(ValueError, match="solver stopped at gap"):
        csdca_solve(cache, loss, lam, epochs=1, seed=0, gap_tol=1e-14, max_epochs=2)
    with pytest.raises(ValueError, match="epochs"):
        csdca_solve(cache, loss, lam, epochs=0, seed=0)


def test_csdca_refuses_max_epochs_without_gap_tol(monkeypatch):
    cache, lam = solver_instance(9, "hinge")

    def never(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(solver, "sgd_epoch", never)
    with pytest.raises(ValueError, match="max_epochs needs gap_tol"):
        csdca_solve(cache, LossModel("hinge"), lam, epochs=2, seed=0, max_epochs=7)


def test_pga_solve_refuses_a_stalled_solve(monkeypatch):
    # these instances converge within one check; with fewer steps than
    # CHECK_EVERY the gap stays at alpha = 0's, the hinge's mean loss at M = 0,
    # for one cache and for a batch of two
    cache, lam = factor_instance(0)
    monkeypatch.setattr("durp.solver.MAX_ITERS", 40)
    for caches in ([cache], [cache, TripletCache(0.5 * cache.points, cache.triplets)]):
        with pytest.raises(ValueError, match=r"reference solve stalled at gap 1\.000e\+00 > 1\.0e-08"):
            pga_solve(caches, LossModel("hinge"), lam)


def test_pga_solve_refuses_an_empty_or_mixed_batch():
    loss = LossModel("hinge")
    with pytest.raises(ValueError, match="needs at least one cache"):
        pga_solve([], loss, 0.1)
    cache, lam = factor_instance(0)  # p = 4, N = 30
    longer = factor_instance(1)[0]  # p = 4, N = 34
    narrower = project_cache(cache, gaussian_matrix(4, 3, 0))  # p = 3, N = 30
    for other in (longer, narrower):
        with pytest.raises(ValueError, match="one N and one space_dim"):
            pga_solve([cache, other], loss, lam)


def scaled_batch(cache, scales):
    """Problems of one shape: ``cache`` with its points scaled by each of ``scales``."""
    return [TripletCache(s * cache.points, cache.triplets) for s in scales]


def same_iterates(caches, loss, lam):
    """Assert each row of one pga_solve call ends where the textbook loop ends on its
    cache alone, bit for bit; return the textbook (iterations, restart steps) per cache."""
    mine = pga_solve(caches, loss, lam)
    runs = [textbook_pga(cache, loss, lam) for cache in caches]
    for row, (oracle, _) in enumerate(runs):
        assert mine.alpha[row].tobytes() == oracle.alpha.tobytes()
        assert mine.objective[row].tobytes() == np.float64(oracle.objective).tobytes()
        assert mine.gap[row].tobytes() == np.float64(oracle.gap).tobytes()
    ((steps, objective, gap, seconds),) = mine.trace
    assert steps == sum(oracle.trace[0][0] for oracle, _ in runs)
    assert objective.tobytes() == mine.objective.tobytes()
    assert gap.tobytes() == mine.gap.tobytes()
    assert seconds == 0.0
    return [(oracle.trace[0][0], restarts) for oracle, restarts in runs]


def restart_offsets_differ(runs):
    """Whether, at some check, two rows still running last restarted at different steps.

    ``runs`` holds the (iterations, restart steps) of each row.  There the
    coefficient block of that check holds different per-row offsets.
    """
    for check in range(0, max(iters for iters, _ in runs), solver.CHECK_EVERY):
        last = {max([0] + [s for s in restarts if s <= check])
                for iters, restarts in runs if check < iters}
        if len(last) > 1:
            return True
    return False


@pytest.mark.parametrize("kind", ["hinge", "smoothed_hinge"])
def test_pga_solve_keeps_the_textbook_iterates(kind):
    # the in-place step computes the textbook loop's operations in its order,
    # for one cache and for each row of a batch of one shape, whose rows stop
    # at different checks and leave it while the rest run on: on G's factor
    # (factor_instance(2) with scaled points, sketched_instance(5) and (2)
    # under several sketches; at m = 2 the objective goes backwards under
    # momentum and rows restart) and on the dense G (solver_instance(3) with
    # scaled points, the route verify_theorem2's oracle takes), with the
    # smoothed hinge's width term; 0.3 lam puts lam N off 1, where dividing
    # by it and multiplying by its inverse differ
    loss = LossModel(kind, gamma=1.0)
    factor_cache, factor_lam = factor_instance(2)
    dense_cache, dense_lam = solver_instance(3, kind)
    batches = {
        "factor": (scaled_batch(factor_cache, (1.0, 0.6, 1.5, 3.0)), factor_lam),
        "m = 5": sketched_batch(5, range(4)),
        "m = 2": sketched_batch(2, range(4)),
        "dense": (scaled_batch(dense_cache, (1.0, 0.5, 2.0, 3.0)), dense_lam),
    }
    for name, (caches, lam) in batches.items():
        for scale in (1.0, 0.3):
            ((iters, _),) = same_iterates(caches[:1], loss, scale * lam)
            assert iters > 0
            counts = same_iterates(caches, loss, scale * lam)
            assert len({iters for iters, _ in counts}) > 1, name  # rows stop at different checks
            if name == "m = 2":
                assert restart_offsets_differ(counts)  # one block, different offsets


def test_csdca_gap_tol_applies_from_the_seed_epoch():
    # with epochs=1 the stopping test runs after the seed pass too
    cache, lam = solver_instance(9, "hinge")
    loss = LossModel("hinge")
    met = csdca_solve(cache, loss, lam, epochs=1, seed=0, gap_tol=1e9, max_epochs=5)
    assert [row[0] for row in met.trace] == [1]
    unmet = csdca_solve(cache, loss, lam, epochs=1, seed=0, gap_tol=1e-6, max_epochs=60)
    assert len(unmet.trace) > 1
    assert unmet.gap <= 1e-6 < min(row[2] for row in unmet.trace[:-1])


def test_duality_gap_definition():
    # the gap against the primal P(M) of the naively recovered metric,
    # evaluated term by term on the explicit margins
    cache, lam = solver_instance(10, "hinge")
    U, V = differences(cache)
    for loss in (LossModel("hinge"), LossModel("smoothed_hinge", gamma=0.5)):
        state = init_state(cache, lam)
        sgd_epoch(state, loss, list(np.random.default_rng(3).permutation(cache.n)))
        dual, gap = production_certificate(cache, state.alpha, loss, lam)
        M = naive_recover(state.alpha, U, V, lam)
        primal = naive_primal(M, U, V, lambda z: float(loss.value(z)), lam)
        expected = primal - dual / cache.n
        assert abs(gap - expected) < 1e-10 * (abs(expected) + 1.0)
        assert gap >= 0.0


def test_trace_csv_format(monkeypatch, tmp_path):
    cache, lam = solver_instance(0, "hinge")
    solution = csdca_solve(cache, LossModel("hinge"), lam, epochs=2, seed=0)
    trial = SimpleNamespace(solver_trace=solution.trace)
    monkeypatch.setattr(cli, "load_split", lambda *paths: (None, None))
    monkeypatch.setattr(cli, "run_method", lambda config, train, test: ({}, [trial]))
    path = tmp_path / "trace.csv"
    assert cli.main(["train", "--trials", "1", "--train-file", "unread", "--test-file", "unread",
                     "--trace-out", str(path), "--out", str(tmp_path / "report.json")]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,dual_objective,duality_gap,seconds,accumulator_drift"
    assert len(lines) == 3
    # every cell reads back to the value in the trace, floats to the last bit
    for line, row in zip(lines[1:], solution.trace):
        epoch, *floats = line.split(",")
        assert (int(epoch), *map(float, floats)) == tuple(row)
