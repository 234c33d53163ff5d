"""Verification harnesses: config validation, row shapes, and the CSVs the CLI writes of them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from durp import harness
from durp.cli import main
from durp.harness import (T2_CONFIG, HarnessConfig, kappa, smooth_recovery_m, verify_theorem1,
                          verify_theorem2)
from durp.metric import span_basis
from durp.solver import DualSolution, dense_gram
from durp.synth import gaussian_blobs, isotropic_cloud, margin_gapped_blobs
from durp.triplets import (build_cache, differences, gaussian_matrix, project_cache,
                           sample_active_triplets)

from oracles import dense_recovery_errors, kappa_power_check, textbook_pga


def test_smooth_recovery_m_frozen_and_monotone():
    # independent arithmetic for the sampling-condition inversion at eps = 1/2
    assert smooth_recovery_m(200, 0.1) == math.ceil(32.0 * math.log(8 * 200 / 0.1))
    assert smooth_recovery_m(200, 0.1) == 310
    assert smooth_recovery_m(400, 0.1) > smooth_recovery_m(200, 0.1)
    assert smooth_recovery_m(200, 0.01) > smooth_recovery_m(200, 0.1)


def test_harness_config_validation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("triplets sampled before the config was checked")

    monkeypatch.setattr(harness, "sample_active_triplets", refuse)
    for config, message in [
        (HarnessConfig(d=5, r=6, m_sweep=(5,)), "need 2 <= r <= d"),
        (HarnessConfig(r=1), "need 2 <= r <= d"),
        (HarnessConfig(d=10, r=2, m_sweep=(0, 5)), "lie in"),
        (HarnessConfig(d=10, r=2, m_sweep=(5, 11)), "lie in"),
        (HarnessConfig(m_sweep=()), "at least one m"),
    ]:
        with pytest.raises(ValueError, match=message):
            verify_theorem1(config)
    # r and the sweep are verify_theorem1's fields, so a T2 config needs neither
    assert HarnessConfig(d=80).d == 80
    with pytest.raises(ValueError, match="n_triplets must be positive"):
        HarnessConfig(n_triplets=0)
    with pytest.raises(ValueError, match="delta"):
        HarnessConfig(delta=1.0)
    with pytest.raises(ValueError, match="positive"):
        HarnessConfig(eta=0.0)
    with pytest.raises(ValueError, match="seed"):
        HarnessConfig(seeds=())
    for name in ("eta", "gamma"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                HarnessConfig(**{name: value})


def test_generators_refuse_fewer_than_two_classes_of_two_points():
    for generator in (gaussian_blobs, isotropic_cloud):
        for n, n_classes in [(10, 1), (5, 3), (0, 2)]:
            with pytest.raises(ValueError, match="need at least two classes with two points each"):
                generator(4, n, n_classes, seed=0)
        assert generator(4, 6, 3, seed=0).n == 6
    with pytest.raises(ValueError, match="need at least two points per class"):
        margin_gapped_blobs(4, 2, 7, seed=0)


def tiny_t1_config():
    return HarnessConfig(d=20, r=2, n=40, n_triplets=30, m_sweep=(2, 4, 20), seeds=(0, 1))


def test_verify_theorem1_rows_and_errors():
    result = verify_theorem1(tiny_t1_config())
    assert set(result) == {"rows", "errors", "oracle_gap"}
    assert result["oracle_gap"] >= 0.0
    assert [row["m"] for row in result["rows"]] == [2, 4, 20]
    for row in result["rows"]:
        errs = result["errors"][row["m"]]
        assert errs.shape == (2,)
        assert (errs >= 0.0).all()
        assert row["e_median"] == float(np.median(errs))
        assert row["e_q25"] <= row["e_median"] <= row["e_q75"]
        # sampling-condition reference curve, c = 1/3
        eps = math.sqrt(3.0 * 3 * math.log(2.0 * 2 / 0.1) / row["m"])
        assert row["eps_ref"] == pytest.approx(eps, rel=1e-12)


def sweep_against_dense_errors(monkeypatch, config):
    """verify_theorem1's errors, the dense d x d errors of its solves, and the recovery spaces."""
    caches, alphas, spaces = [], [], []
    build, solve, recover = harness.build_cache, harness.pga_solve, harness.recover_metric

    def spy_build(*args):
        caches.append(build(*args))
        return caches[-1]

    def spy_solve(batch, *args, **kwargs):
        solution = solve(batch, *args, **kwargs)
        alphas.extend(solution.alpha)
        return solution

    def spy_recover(alpha, cache, lam):
        spaces.append(cache.space_dim)
        return recover(alpha, cache, lam)

    monkeypatch.setattr(harness, "build_cache", spy_build)
    monkeypatch.setattr(harness, "pga_solve", spy_solve)
    monkeypatch.setattr(harness, "recover_metric", spy_recover)
    result = verify_theorem1(config)
    # the solves run in span coordinates; the dense errors use the d-dimensional
    # cache; every m >= r here, so the sketches are one batch, in (m, seed) order
    (cache,) = caches
    assert cache.space_dim == config.d
    dense = dense_recovery_errors(cache, alphas[0], alphas[1:], 1.0 / cache.n)
    measured = [e for m in config.m_sweep for e in result["errors"][m]]
    return measured, dense, spaces


def test_theorem1_errors_in_the_span_match_the_dense_errors(monkeypatch):
    # every metric is recovered, factored and compared in the span of the
    # points, never as a d x d matrix: with fewer points than dimensions
    # (40 in 60) and with more (tiny_t1_config)
    wide = HarnessConfig(d=60, r=2, n=40, n_triplets=30, m_sweep=(2, 4, 60), seeds=(0, 1))
    for config in (wide, tiny_t1_config()):
        measured, dense, spaces = sweep_against_dense_errors(monkeypatch, config)
        runs = len(config.m_sweep) * len(config.seeds)
        assert len(measured) == len(dense) == runs
        assert np.abs(np.array(measured) - np.array(dense)).max() <= 1e-12
        assert spaces == [config.r] * (1 + runs)


def test_theorem1_solves_every_dual_in_the_span(monkeypatch):
    # the oracle solves at r = 3 and each sketched run at min(m, r), never at
    # d or m; m = 2 < r checks the triangular factor of a short sketch.  The
    # sketches of one dimension share one call, so a sweep with every m >= r
    # makes two calls: the oracle's and one for all sketches
    config = HarnessConfig(d=60, r=3, n=40, n_triplets=30, m_sweep=(2, 4, 60), seeds=(0, 1))
    calls = []
    solve = harness.pga_solve

    def spy_solve(batch, *args, **kwargs):
        calls.append([cache.space_dim for cache in batch])
        return solve(batch, *args, **kwargs)

    monkeypatch.setattr(harness, "pga_solve", spy_solve)
    verify_theorem1(config)
    assert calls == [[3], [2, 2], [3, 3, 3, 3]]
    assert sorted(sum(calls[1:], [])) == sorted(min(m, 3) for m in config.m_sweep
                                                for _ in config.seeds)
    calls.clear()
    every_m_at_least_r = tiny_t1_config()
    assert min(every_m_at_least_r.m_sweep) >= every_m_at_least_r.r
    verify_theorem1(every_m_at_least_r)
    assert calls == [[2], [2] * 6]


def test_harness_answers_match_the_textbook_solver(monkeypatch):
    # both harnesses give the same bits on pga_solve as on the textbook loop:
    # theorem 1 on G's factor, theorem 2's oracle on the dense G
    t1 = HarnessConfig(d=60, r=3, n=40, n_triplets=30, m_sweep=(2, 4, 60), seeds=(0, 1))

    def answers():
        first, second = verify_theorem1(t1), verify_theorem2(tiny_t2_config(), m=64)
        errors = b"".join(first["errors"][m].tobytes() for m in t1.m_sweep)
        gaps = np.array([first["oracle_gap"], second["oracle_gap"]]).tobytes()
        return errors, gaps, repr(first["rows"]), repr(second["rows"])

    def textbook_batch(caches, *args, **kwargs):
        # the textbook loop on each cache alone, stacked as pga_solve stacks them
        runs = [textbook_pga(cache, *args, **kwargs)[0] for cache in caches]
        objective = np.array([run.objective for run in runs])
        gap = np.array([run.gap for run in runs])
        steps = sum(run.trace[0][0] for run in runs)
        return DualSolution(alpha=np.array([run.alpha for run in runs]), objective=objective,
                            gap=gap, trace=[(steps, objective, gap, 0.0)])

    stock = answers()
    monkeypatch.setattr(harness, "pga_solve", textbook_batch)
    assert answers() == stock


@pytest.mark.parametrize("m", [2, 4, 60])
def test_sketch_gram_is_kept_in_span_coordinates(m):
    # with R^T Q = Q_m T, the points T Q^T x have the inner products of the
    # sketched points R^T x, so both caches give one Gram
    data = margin_gapped_blobs(60, 3, 40, seed=0)
    cache = build_cache(data, sample_active_triplets(data, 30, seed=0))
    Q = span_basis(cache.points)
    R = gaussian_matrix(60, m, seed=1)
    T = np.linalg.qr(R.T @ Q, mode="r")
    G = dense_gram(*differences(project_cache(cache, R)))
    G_span = dense_gram(*differences(project_cache(project_cache(cache, Q), T.T)))
    assert np.abs(G_span - G).max() <= 1e-12 * np.abs(G).max()


def harness_csv(monkeypatch, tmp_path, command, result):
    """What ``durp <command>`` writes when its harness returns ``result``."""
    name = {"verify-t1": "verify_theorem1", "verify-t2": "verify_theorem2"}[command]
    monkeypatch.setattr(harness, name, lambda config, m=None: result)
    out = tmp_path / "out.csv"
    assert main([command, "--out", str(out)]) == 0
    return out.read_text()


def test_theorem1_csv_round_trips_rows(monkeypatch, tmp_path):
    result = verify_theorem1(tiny_t1_config())
    lines = harness_csv(monkeypatch, tmp_path, "verify-t1", result).splitlines()
    data_lines = [l for l in lines if not l.startswith("#")]
    assert data_lines[0] == "m,e_median,e_q25,e_q75,eps_ref,bound_ref"
    assert len(data_lines) == 1 + 3
    for text, row in zip(data_lines[1:], result["rows"]):
        fields = text.split(",")
        assert int(fields[0]) == row["m"]
        assert float(fields[1]) == row["e_median"]  # %.17g round-trips exactly
        assert float(fields[4]) == row["eps_ref"]


def test_theorem1_csv_bytes(monkeypatch, tmp_path):
    rows = [
        {"m": 5, "e_median": 0.5, "e_q25": 0.25, "e_q75": 0.75, "eps_ref": 1.5,
         "bound_ref": np.inf},
        {"m": 400, "e_median": 0.1, "e_q25": 1e-20, "e_q75": 3.0, "eps_ref": 0.125,
         "bound_ref": 2.0},
    ]
    assert harness_csv(monkeypatch, tmp_path, "verify-t1", {"rows": rows}) == (
        "# low-rank recovery trend; bound columns are the literal sampling-condition\n"
        "# curve (c=1/3), quoted for reference only -- desk-scale m cannot meet it\n"
        "m,e_median,e_q25,e_q75,eps_ref,bound_ref\n"
        "5,0.5,0.25,0.75,1.5,inf\n"
        "400,0.10000000000000001,9.9999999999999995e-21,3,0.125,2\n"
    )


def test_theorem2_csv_bytes(monkeypatch, tmp_path):
    row = {"m": 64, "seed": 0, "epsilon": 0.5, "kappa": 2.0, "eta": 1e-6, "alpha_norm": 3.0,
           "measured": 0.25, "eps_term": 8.0, "eta_term": 0.001, "bound": 8.0,
           "satisfied": True}
    rows = [row, {**row, "seed": 1, "measured": 9.0, "satisfied": False}]
    assert harness_csv(monkeypatch, tmp_path, "verify-t2", {"rows": rows}) == (
        "# smooth-loss dual recovery; bound = max(eps term, eta term) per seed\n"
        "m,seed,epsilon,kappa,eta,alpha_norm,measured,eps_term,eta_term,bound,satisfied\n"
        "64,0,0.5,2,9.9999999999999995e-07,3,0.25,8,0.001,8,1\n"
        "64,1,0.5,2,9.9999999999999995e-07,3,9,8,0.001,8,0\n"
    )


def tiny_t2_config():
    return replace(T2_CONFIG, d=80, n=40, n_triplets=30, seeds=(0, 1))


def test_verify_theorem2_rows():
    config = tiny_t2_config()
    result = verify_theorem2(config, m=64)
    assert set(result) == {"rows", "oracle_gap"}
    assert len(result["rows"]) == 2
    data = isotropic_cloud(config.d, config.n, n_classes=4, seed=0)
    expected_kappa = kappa(*differences(
        build_cache(data, sample_active_triplets(data, config.n_triplets, seed=0))))
    eps = math.sqrt(8.0 * math.log(8.0 * 30 / 0.1) / 64)
    for row, seed in zip(result["rows"], (0, 1)):
        assert row["seed"] == seed
        assert row["m"] == 64
        assert row["epsilon"] == pytest.approx(eps, rel=1e-12)
        assert row["kappa"] == expected_kappa
        assert row["eps_term"] == pytest.approx(
            8.0 * row["epsilon"] * row["kappa"] * row["alpha_norm"], rel=1e-12
        )
        assert row["eta_term"] == pytest.approx(math.sqrt(2.0 * 1e-6), rel=1e-12)
        assert row["bound"] == max(row["eps_term"], row["eta_term"])
        assert row["satisfied"] == (row["measured"] <= row["bound"])
        assert row["measured"] >= 0.0


def test_verify_theorem2_auto_m_respects_dimension():
    # auto m for N=30 exceeds d=80, so the sampling condition is unmeetable
    with pytest.raises(ValueError, match="sampling condition"):
        verify_theorem2(tiny_t2_config())


def test_verify_theorem2_refuses_m_before_any_data_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("data work ran before m was checked")

    monkeypatch.setattr(harness, "isotropic_cloud", refuse)
    monkeypatch.setattr(harness, "sample_active_triplets", refuse)
    config = tiny_t2_config()
    with pytest.raises(ValueError, match="m must be positive, got m = 0"):
        verify_theorem2(config, m=0)
    with pytest.raises(ValueError, match="sampling condition needs m = 81 <= d = 80"):
        verify_theorem2(config, m=81)
    auto_m = smooth_recovery_m(config.n_triplets, config.delta)
    with pytest.raises(ValueError, match=f"sampling condition needs m = {auto_m} <= d = 80"):
        verify_theorem2(config)


def test_theorem2_csv_shape(monkeypatch, tmp_path):
    result = verify_theorem2(tiny_t2_config(), m=64)
    lines = harness_csv(monkeypatch, tmp_path, "verify-t2", result).splitlines()
    data_lines = [l for l in lines if not l.startswith("#")]
    assert data_lines[0].split(",")[:4] == ["m", "seed", "epsilon", "kappa"]
    assert len(data_lines) == 1 + 2
    assert data_lines[1].split(",")[-1] in ("0", "1")


def test_verify_theorem2_default_is_the_flagless_command(tmp_path):
    out = tmp_path / "t2.csv"
    assert main(["verify-t2", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = verify_theorem2()["rows"]
    assert lines[0].split(",") == list(rows[0])
    assert [[float(v) for v in l.split(",")] for l in lines[1:]] == [
        [float(v) for v in row.values()] for row in rows]  # %.17g round-trips exactly


def test_kappa_power_check_matches_closed_form():
    data = gaussian_blobs(10, 40, 3, seed=2)
    cache = build_cache(data, sample_active_triplets(data, 25, seed=2))
    U, V = differences(cache)
    closed = kappa(U, V)
    powered = kappa_power_check(U, V)
    assert len(powered) == 4
    assert abs(closed - max(powered)) <= 1e-8 * max(abs(closed), 1.0)
