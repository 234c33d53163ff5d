"""scripts/bench_json.py: pairs parent and change result files into one BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_json.py"


@pytest.fixture(scope="module")
def bench_json():
    spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(folder, workload, seed, trace, metrics, failed=False, commit="abc"):
    folder.mkdir(exist_ok=True)
    record = {
        "environment": {"workload": workload, "seed": seed, "git_commit": commit, "nproc": 2},
        "units": [{"failures": ["boom"] if failed else []}, {"failures": []}],
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }
    (folder / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_pairs_medians_and_quartiles(bench_json, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    walls = {1: (2.0, 1.0), 2: (2.2, 1.1), 3: (2.4, 2.4), 4: (2.6, 1.3), 5: (2.8, 1.4)}
    for seed, (before, after) in walls.items():
        write_run(parent, "wide-durp", seed, 0, {"wall_s": before, "setup_s": 0.5,
                                                 "peak_rss_mb": 150.0}, commit="p")
        write_run(change, "wide-durp", seed, 0, {"wall_s": after, "setup_s": 0.5 + seed / 100,
                                                 "peak_rss_mb": 149.0}, failed=seed == 5)
    write_run(change, "wide-durp", 9, 0, {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 1.0})
    (parent / "wide-durp-seed1-trace0-tiny.json").write_text("not read")
    assert bench_json.main(["--parent", str(parent), "--change", str(change),
                            "--out", str(tmp_path / "BENCH.json")]) == 0
    out = json.loads((tmp_path / "BENCH.json").read_text())
    assert list(out["workloads"]) == ["wide-durp"]
    entry = out["workloads"]["wide-durp"]
    assert entry["end_to_end_seeds"] == [1, 2, 3, 4, 5]  # seed 9 has no parent run
    assert entry["end_to_end_units"] == {"parent": {"attempted": 10, "failed": 0},
                                         "change": {"attempted": 12, "failed": 1}}
    wall = entry["end_to_end"]["wall_s"]
    assert wall["pairs"] == 5 and wall["pairs_won"] == 4  # the tie at seed 3 counts for neither
    assert wall["parent"] == {"median": 2.4, "q1": 2.2, "q3": 2.6, "runs": 5}
    assert wall["change"]["runs"] == 6 and wall["bound"] == 0.25
    assert wall["unresolved"] is False  # quartiles 0.4 apart, under 0.25 x the median 2.4
    assert entry["end_to_end"]["setup_s"]["pairs_won"] == 0
    assert entry["end_to_end"]["peak_rss_mb"]["pairs_won"] == 5
    assert out["environment"]["parent"] == {"workload": "wide-durp", "git_commit": "p", "nproc": 2}
    assert out["environment"]["change"] == {"workload": "wide-durp", "git_commit": "abc",
                                            "nproc": 2}


def test_per_layer_metrics_come_from_traced_runs(bench_json, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        write_run(parent, "usps-durp", seed, 1, {"triplets.sample_s": 0.7 + seed / 100})
        write_run(change, "usps-durp", seed, 1, {"triplets.sample_s": 0.1})
    spec = {"workloads": [{"name": "usps-durp"}, {"name": "verify-t1"}], "end_to_end": [],
            "per_layer": [{"name": "triplets.sample_s", "better": "lower"}]}
    out = bench_json.bench(bench_json.load_runs(parent), bench_json.load_runs(change), spec)
    sample = out["workloads"]["usps-durp"]["per_layer"]["triplets.sample_s"]
    assert sample["pairs"] == sample["pairs_won"] == 10 and sample["better"] == "lower"
    assert sample["parent"]["median"] == pytest.approx(0.745)
    assert "end_to_end" not in out["workloads"]["usps-durp"]
    assert "bound" not in sample and "unresolved" not in sample
    assert "verify-t1" not in out["workloads"]  # no runs on either side


@pytest.mark.parametrize("before, after, unresolved", [
    ((1.0, 1.2, 1.4, 1.6, 1.8), (1.2, 1.3, 1.4, 1.5, 1.6), True),  # quartiles 0.4 apart at 1.4
    ((1.0, 1.2, 1.4, 1.6, 1.8), (0.5, 0.6, 0.7, 0.8, 0.9), False),  # every change run wins
    ((1.3, 1.35, 1.4, 1.45, 1.5), (1.2, 1.3, 1.4, 1.5, 1.6), False),  # quartiles 0.1 apart
])
def test_end_to_end_spread_wider_than_the_bound_is_unresolved(before, after, unresolved,
                                                              bench_json, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (b, a) in enumerate(zip(before, after)):
        write_run(parent, "verify-t1", seed, 0, {"wall_s": b})
        write_run(change, "verify-t1", seed, 0, {"wall_s": a})
    spec = {"workloads": [{"name": "verify-t1"}],
            "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}], "per_layer": []}
    out = bench_json.bench(bench_json.load_runs(parent), bench_json.load_runs(change), spec)
    wall = out["workloads"]["verify-t1"]["end_to_end"]["wall_s"]
    assert wall["bound"] == 0.25 and wall["unresolved"] is unresolved


def test_empty_folder_exits_1(bench_json, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert bench_json.main(["--parent", str(tmp_path / "empty"), "--change",
                            str(tmp_path / "empty"), "--out", str(tmp_path / "B.json")]) == 1
    assert "no perfbench result files" in capsys.readouterr().err
