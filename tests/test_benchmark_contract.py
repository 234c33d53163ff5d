"""The names and the call the benchmark under perfbench/ relies on.

The benchmark times layers by wrapping the functions listed in
``perfbench/spans.py``'s ``LAYERS`` and solves once more to a duality gap
through ``perfbench/run.py``.  Renaming one of those functions, changing
that call, or no longer calling a layer a workload declares breaks the
benchmark; these tests catch it in the unit suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from durp.data import LabeledDataset
from durp.experiments import RunConfig, train_trial
from durp.solver import LossModel, csdca_solve
from durp.synth import gaussian_blobs
from durp.triplets import build_cache, sample_active_triplets

from oracles import textbook_pga

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_is_a_durp_callable():
    layers = load_perfbench("spans").LAYERS
    assert layers
    for targets in layers.values():
        for module_name, attr in targets:
            module = importlib.import_module(f"durp.{module_name}")
            assert callable(getattr(module, attr, None)), f"durp.{module_name}.{attr}"


def test_csdca_solve_accepts_the_benchmark_call():
    data = gaussian_blobs(6, 40, 2, seed=0, noise=0.3)
    cache = build_cache(data, sample_active_triplets(data, 30, seed=0))
    loss, lam, epochs, seed = LossModel("hinge"), 1.0 / cache.n, 2, 0
    # the call perfbench/run.py makes to solve down to a workload's gap
    solution = csdca_solve(cache, loss, lam, epochs, seed, gap_tol=10.0, max_epochs=4)
    assert [row[0] for row in solution.trace] == [1, 2]
    assert solution.gap <= 10.0


def test_solver_trace_keeps_the_fields_perfbench_reads():
    # spans.py takes solver.sgd_s and solver.sdca_epoch_s from index 3 and
    # workloads.py takes final_gap from index 2 of the trace rows
    data = gaussian_blobs(6, 40, 2, seed=1, noise=0.3)
    cache = build_cache(data, sample_active_triplets(data, 30, seed=1))
    solution = csdca_solve(cache, LossModel("hinge"), 1.0 / cache.n, 4, 0)
    trace = solution.trace
    assert [row[0] for row in trace] == [1, 2, 3, 4]
    assert trace[-1][2] == solution.gap
    assert trace[-1][1] == solution.objective
    seconds = [row[3] for row in trace]
    assert seconds[0] >= 0.0
    assert all(b >= a for a, b in zip(seconds, seconds[1:]))


def test_every_declared_layer_records_a_span():
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    modules = {module_name: importlib.import_module(f"durp.{module_name}")
               for targets in spans.LAYERS.values() for module_name, _ in targets}
    for workload in workloads.WORKLOADS.values():
        small = workloads.tiny(workload)
        recorder = spans.SpanRecorder()
        with spans.instrumented(recorder, modules):
            small.run_unit(small.make_inputs(0))
        recorded = {span["name"] for span in recorder.spans}
        missing = [layer for layer in small.layers if layer not in recorded]
        assert not missing, f"{workload.name}: no span for {missing}"



def test_evaluators_take_the_test_dataset_where_the_span_wrappers_read_it():
    # spans.py counts evaluate.map queries as args[1].n and evaluate.knn
    # queries as args[2].n; the train set is larger, so a swap would show
    spans = load_perfbench("spans")
    modules = {name: importlib.import_module(f"durp.{name}")
               for name in ("experiments", "harness", "evaluate")}
    data = gaussian_blobs(5, 50, 3, seed=2)
    train = LabeledDataset(data.points[:, :35], data.labels[:35])
    test = LabeledDataset(data.points[:, 35:], data.labels[35:])
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder, modules):
        modules["evaluate"].evaluate_metric(np.eye(5), train, test, 3)
    queries = {s["name"]: s["queries"] for s in recorder.spans}
    assert queries == {"evaluate.map": test.n, "evaluate.knn": test.n}


def test_subspace_baselines_recover_and_project_once_under_the_wrapped_names():
    # no workload runs srp or spca, so nothing else sees their route leave
    # experiments.recover_metric and experiments.psd_project
    spans = load_perfbench("spans")
    modules = {name: importlib.import_module(f"durp.{name}")
               for name in ("experiments", "harness", "evaluate")}
    data = gaussian_blobs(7, 90, 3, seed=4)
    train = LabeledDataset(data.points[:, :60], data.labels[:60])
    test = LabeledDataset(data.points[:, 60:], data.labels[60:])
    for method in ("srp", "spca"):
        recorder = spans.SpanRecorder()
        with spans.instrumented(recorder, modules):
            train_trial(RunConfig(method=method, m=4, n_triplets=80, trials=1), train, test, 0)
        names = [span["name"] for span in recorder.spans]
        assert names.count("metric.recover") == names.count("metric.psd") == 1, method


def test_trial_metric_is_the_dense_psd_matrix_of_its_factor():
    # workloads.py checks result.metric: finite, symmetric and PSD, d x d
    workloads = load_perfbench("workloads")
    data = gaussian_blobs(7, 90, 3, seed=3)
    train = LabeledDataset(data.points[:, :60], data.labels[:60])
    test = LabeledDataset(data.points[:, 60:], data.labels[60:])
    for method in ("durp", "srp"):
        result = train_trial(RunConfig(method=method, m=4, n_triplets=80, trials=1),
                             train, test, 0)
        M = result.metric
        assert M.shape == (train.d, train.d)
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() >= -workloads.PSD_TOL * np.abs(M).max()
        assert np.array_equal(M, result.factor @ result.factor.T)
        assert workloads.TrainWorkload("t", method, 7, 60, 30, 80, 0.1).check(result) == []


def test_theorem1_span_route_recovers_and_projects_under_the_wrapped_names():
    # verify_theorem1 works in the span of the points; every recovery must
    # still pass through the names the benchmark wraps, once per metric
    spans = load_perfbench("spans")
    modules = {name: importlib.import_module(f"durp.{name}")
               for name in ("experiments", "harness", "evaluate")}
    config = modules["harness"].HarnessConfig(d=60, r=2, n=40, n_triplets=30,
                                              m_sweep=(2, 4, 60), seeds=(0, 1))
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder, modules):
        modules["harness"].verify_theorem1(config)
    names = [span["name"] for span in recorder.spans]
    expected = 1 + len(config.m_sweep) * len(config.seeds)
    assert names.count("metric.recover") == names.count("metric.psd") == expected


def test_traced_pga_iterations_count_the_textbook_steps(monkeypatch):
    # reference.pga_iters sums the first field of each pga_solve trace; with
    # several sketches in one call that field must be the steps of all its
    # problems, so the sum stays the textbook loop's total over every solve
    spans = load_perfbench("spans")
    modules = {name: importlib.import_module(f"durp.{name}")
               for name in ("experiments", "harness", "evaluate")}
    harness = modules["harness"]
    config = harness.HarnessConfig(d=60, r=3, n=40, n_triplets=30,
                                   m_sweep=(2, 4, 60), seeds=(0, 1))
    textbook_steps = []
    solve = harness.pga_solve

    def count_textbook_steps(caches, *args, **kwargs):
        textbook_steps.extend(textbook_pga(cache, *args, **kwargs)[0].trace[0][0]
                              for cache in caches)
        return solve(caches, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "pga_solve", count_textbook_steps)
        harness.verify_theorem1(config)
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder, modules):
        harness.verify_theorem1(config)
    pga = [span for span in recorder.spans if span["name"] == "reference.pga"]
    assert len(pga) == 3  # the oracle, the sketches at m = 2, those at min(m, r) = 3
    assert len(textbook_steps) == 1 + len(config.m_sweep) * len(config.seeds)
    assert sum(span["iters"] for span in pga) == sum(textbook_steps) > 0
