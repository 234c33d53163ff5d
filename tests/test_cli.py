"""Command-line entry points: exit codes, config precedence, all subcommands."""

import functools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from durp import cli, experiments, harness
from durp.cli import ConfigError, build_parser, config_keys, main, parse_args, read_config_file
from durp.data import LabeledDataset, eigen_spectrum, load_metric, load_split, save_metric
from durp.evaluate import EvalReport, evaluate_metric
from durp.experiments import RunConfig, TrialResult
from durp.solver import TraceRow
from durp.synth import gaussian_blobs

from oracles import serialize_libsvm


@pytest.fixture()
def datasets(tmp_path):
    data = gaussian_blobs(6, 60, 2, seed=0)
    train = LabeledDataset(data.points[:, :40], data.labels[:40])
    test = LabeledDataset(data.points[:, 40:], data.labels[40:])
    train_path = tmp_path / "train.svm"
    test_path = tmp_path / "test.svm"
    train_path.write_text(serialize_libsvm(train))
    test_path.write_text(serialize_libsvm(test))
    return str(train_path), str(test_path)


def train_args(train_path, test_path, *extra):
    return [
        "train", "--method", "srp", "--m", "4", "--triplets", "40",
        "--trials", "2", "--train-file", train_path, "--test-file", test_path,
        *extra,
    ]


def test_train_writes_json_report(datasets, tmp_path):
    train_path, test_path = datasets
    out = tmp_path / "report.json"
    code = main(train_args(train_path, test_path, "--out", str(out)))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["method"] == "srp"
    assert report["config"]["generator"] == "numpy-default-rng-pcg64"
    assert len(report["trials"]) == 2
    assert 0.0 <= report["map_mean"] <= 1.0


def test_missing_required_flag_exits_1(capsys, datasets):
    train_path, _ = datasets
    code = main(["train", "--method", "srp", "--train-file", train_path])
    assert code == 1
    assert "--test-file is required" in capsys.readouterr().err


def test_invalid_value_exits_2(capsys, datasets):
    train_path, test_path = datasets
    code = main(train_args(train_path, test_path, "--epochs", "0"))
    assert code == 2
    assert "epochs" in capsys.readouterr().err


def test_missing_data_file_exits_2(capsys, tmp_path):
    code = main(train_args(str(tmp_path / "absent.svm"), str(tmp_path / "absent.svm")))
    assert code == 2


def test_unknown_flag_exits_1(capsys, datasets):
    train_path, test_path = datasets
    code = main(train_args(train_path, test_path, "--bogus", "1"))
    assert code == 1


def test_config_file_fills_gaps_but_flags_win(datasets, tmp_path):
    train_path, test_path = datasets
    config = tmp_path / "run.cfg"
    config.write_text(
        "# comment line\n"
        "method = srp\n"
        f"train_file = {train_path}\n"
        f"test_file = {test_path}\n"
        "m = 6\n"
        "triplets = 40\n"
        "trials = 1\n"
        "k = 3\n"
    )
    out = tmp_path / "report.json"
    code = main(["train", "--config", str(config), "--m", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["m"] == 2  # flag beats file
    assert report["config"]["k"] == 3  # file beats default
    assert report["config"]["trials"] == 1
    assert report["config"]["epochs"] == 3  # untouched default


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("unknown_thing = 1\n")
    assert main(["train", "--config", str(bad_key)]) == 1
    assert "unknown config key" in capsys.readouterr().err

    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("just-some-words\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        read_config_file(bad_line)

    bad_value = tmp_path / "value.cfg"
    bad_value.write_text("m = ten\n")
    assert main(["train", "--config", str(bad_value)]) == 1
    assert "argument --m: invalid int value: 'ten'" in capsys.readouterr().err

    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"m = 4\n# caf\xe9\n")
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot read config file {config}: 'utf-8' codec can't decode "
        "byte 0xe9 in position 11: invalid continuation byte\n"
    )


def test_config_file_value_is_one_token(tmp_path):
    # a value with spaces or a leading '-' stays one flag value
    config = tmp_path / "run.cfg"
    config.write_text("train_file = my data.svm\nseed = -3\nlambda = -1e-5\n")
    args = parse_args(["train", "--config", str(config)])
    assert (args.train_file, args.seed, args.lam) == ("my data.svm", -3, -1e-5)


@pytest.mark.parametrize("key, value", [("method", "bogus"), ("loss", "logistic")])
def test_config_file_value_outside_choices_exits_1(key, value, datasets, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    assert main(["train", f"--{key}", value]) == 1
    flag_err = capsys.readouterr().err
    assert "invalid choice" in flag_err
    assert main(["train", "--config", str(config), "--train-file", datasets[0],
                 "--test-file", datasets[1]]) == 1
    assert capsys.readouterr().err == flag_err


def test_bad_smoothing_width_fails_before_sampling(datasets, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(experiments, "sample_active_triplets", refuse)
    code = main(train_args(*datasets, "--loss", "smoothed_hinge", "--gamma", "0"))
    assert code == 2
    assert "gamma must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("test_columns, message", [
    (slice(60, 61), "retrieval evaluation needs at least two test points"),
    (slice(60, 63), "no query had a same-class candidate"),  # one point of each class
])
def test_train_refuses_an_unrankable_test_set_before_solving(test_columns, message, tmp_path,
                                                            monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(experiments, "csdca_solve", refuse)
    data = gaussian_blobs(6, 63, 3, seed=2)
    train_path, test_path = tmp_path / "train.svm", tmp_path / "test.svm"
    train_path.write_text(serialize_libsvm(LabeledDataset(data.points[:, :60], data.labels[:60])))
    test_path.write_text(serialize_libsvm(
        LabeledDataset(data.points[:, test_columns], data.labels[test_columns])))
    assert main(["train", "--m", "3", "--triplets", "50", "--trials", "3",
                 "--train-file", str(train_path), "--test-file", str(test_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("method", ["durp", "duori", "srp", "spca"])
def test_train_eval_round_trip(method, datasets, tmp_path, monkeypatch):
    # eval reads back the very factor train scored, so its scores are train's
    train_path, test_path = datasets
    results, train_trial = [], experiments.train_trial

    def trial(*args):
        results.append(train_trial(*args))
        return results[-1]

    monkeypatch.setattr(experiments, "train_trial", trial)
    metric_path, report_path = tmp_path / "metric.bin", tmp_path / "train.json"
    assert main(train_args(train_path, test_path, "--method", method, "--trials", "1",
                           "--save-metric", str(metric_path), "--out", str(report_path))) == 0
    trained = json.loads(report_path.read_text())["trials"][0]
    factor = load_metric(metric_path)
    assert factor.tobytes() == results[0].factor.tobytes()
    assert factor.shape == (6, trained["metric_rank"])

    eval_path = tmp_path / "eval.json"
    assert main(["eval", "--metric-file", str(metric_path), "--train-file", train_path,
                 "--test-file", test_path, "--out", str(eval_path)]) == 0
    evaluated = json.loads(eval_path.read_text())
    assert evaluated["map"] == trained["map"]
    assert evaluated["knn_accuracy"] == trained["knn_accuracy"]


def test_eval_test_file_without_a_class_keeps_train_ids(tmp_path):
    # train has classes {0, 1, 2}, test only {1, 2}: the test file must not
    # renumber its labels to {0, 1}
    data = gaussian_blobs(4, 90, 3, seed=1)
    train = LabeledDataset(data.points[:, :60], data.labels[:60])
    keep = data.labels[60:] != 0
    test = LabeledDataset(data.points[:, 60:][:, keep], data.labels[60:][keep])
    train_path, test_path = tmp_path / "train.svm", tmp_path / "test.svm"
    train_path.write_text(serialize_libsvm(train))
    test_path.write_text(serialize_libsvm(test))
    metric_path = tmp_path / "identity.bin"
    save_metric(metric_path, np.eye(4))
    eval_path = tmp_path / "eval.json"
    code = main(["eval", "--metric-file", str(metric_path), "--train-file", str(train_path),
                 "--test-file", str(test_path), "--k", "3", "--out", str(eval_path)])
    assert code == 0
    from_files = json.loads(eval_path.read_text())
    in_memory = evaluate_metric(np.eye(4), train, test, 3)
    assert from_files["knn_accuracy"] == in_memory.knn_accuracy
    assert from_files["map"] == in_memory.map_score


def test_train_trace_out(datasets, tmp_path):
    train_path, test_path = datasets
    trace_path = tmp_path / "trace.csv"
    code = main(train_args(train_path, test_path,
                           "--trials", "1", "--trace-out", str(trace_path)))
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "epoch,dual_objective,duality_gap,seconds,accumulator_drift"
    assert len(lines) == 4  # header + three epochs


def test_save_metric_writes_one_file_per_trial(datasets, tmp_path):
    train_path, test_path = datasets
    metric_path = tmp_path / "m.bin"
    code = main(train_args(train_path, test_path, "--save-metric", str(metric_path)))
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("m.bin*")) == ["m.bin.trial0", "m.bin.trial1"]
    config = RunConfig(method="srp", m=4, n_triplets=40, trials=2,
                       train_file=train_path, test_file=test_path)
    _, results = experiments.run_method(config, *load_split(train_path, test_path))
    for i, result in enumerate(results):
        assert np.array_equal(load_metric(tmp_path / f"m.bin.trial{i}"), result.factor)


def test_train_report_gives_each_trial_its_gap(datasets, tmp_path):
    train_path, test_path = datasets
    out, trace_path = tmp_path / "report.json", tmp_path / "trace.csv"
    code = main(train_args(train_path, test_path, "--epochs", "4", "--out", str(out),
                           "--trace-out", str(trace_path)))
    assert code == 0
    trials = json.loads(out.read_text())["trials"]
    for i, trial in enumerate(trials):
        last = (tmp_path / f"trace.csv.trial{i}").read_text().splitlines()[-1].split(",")
        assert trial["epochs"] == int(last[0]) == 4
        assert trial["final_gap"] == float(last[2])


def test_spectrum_subcommand(datasets, tmp_path):
    train_path, _ = datasets
    out = tmp_path / "spectrum.csv"
    code = main(["spectrum", "--train-file", train_path, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,normalized_eigenvalue"
    assert len(lines) == 7  # header + d rows


def test_spectrum_output_equals_direct_call(tmp_path):
    data = gaussian_blobs(7, 25, 2, seed=5)
    path, out = tmp_path / "data.svm", tmp_path / "spectrum.csv"
    path.write_text(serialize_libsvm(data))
    assert main(["spectrum", "--train-file", str(path), "--out", str(out)]) == 0
    ranks, values = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    assert ranks.tolist() == list(range(1, data.d + 1))
    assert values.tolist() == eigen_spectrum(data).tolist()


def test_spectrum_of_constant_data_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.svm"
    path.write_text("1 1:2 2:3\n2 1:2 2:3\n1 1:2 2:3\n")
    assert main(["spectrum", "--train-file", str(path)]) == 2
    assert "error: degenerate dataset: zero total variance" in capsys.readouterr().err


def test_spca_on_constant_data_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.svm"
    path.write_text("1 1:2 2:3\n2 1:2 2:3\n1 1:2 2:3\n2 1:2 2:3\n")
    code = main(["train", "--method", "spca", "--m", "1", "--triplets", "4", "--trials", "1",
                 "--k", "1", "--train-file", str(path), "--test-file", str(path)])
    assert code == 2
    assert "error: degenerate dataset: zero total variance" in capsys.readouterr().err


def test_sample_triplets_subcommand(datasets, tmp_path, capsys):
    train_path, _ = datasets
    out = tmp_path / "triplets.csv"
    code = main(["sample-triplets", "--train-file", train_path,
                 "--triplets", "25", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "i,j,k"
    back = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    assert back.shape == (25, 3)
    assert main(["sample-triplets", "--train-file", train_path,
                 "--triplets", "0", "--out", str(out)]) == 0
    assert out.read_text() == "i,j,k\n"
    # without --out the same bytes go to stdout
    argv = ["sample-triplets", "--train-file", train_path, "--triplets", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_verify_t1_subcommand_tiny(tmp_path):
    out = tmp_path / "t1.csv"
    code = main([
        "verify-t1", "--d", "20", "--r", "2", "--n", "40", "--triplets", "30",
        "--m-sweep", "2,4", "--seeds", "0,1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "m,e_median,e_q25,e_q75,eps_ref,bound_ref"
    assert sum(1 for l in lines if not l.startswith("#")) == 3  # header + 2 m values


def test_verify_t2_over_the_dense_limit_exits_2(capsys):
    # d = 64 puts the original-space solve on the dense Gram (64 * 65 > 4001);
    # verify-t1 solves in the span of its rank-r data, so it never reaches it
    code = main(["verify-t2", "--d", "64", "--n", "80", "--triplets", "4001", "--m", "10",
                 "--seeds", "0"])
    assert code == 2
    assert "dense Gram limited to 4000 triplets" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # the default sweep reaches m = 400; the message names d and each m outside it
    (["verify-t1", "--d", "20", "--r", "2", "--n", "40", "--triplets", "30"],
     "every m in the sweep must lie in [1, d] = [1, 20]; out of range: 50, 100, 400"),
    (["verify-t2", "--d", "0"], "error: d must be positive"),
    # the data generator refuses r
    (["verify-t1", "--r", "1"], "error: need 2 <= r <= d"),
    (["verify-t1", "--d", "20", "--r", "21", "--m-sweep", "2"], "error: need 2 <= r <= d"),
    # lam = 1/N needs at least one triplet
    (["verify-t1", "--d", "20", "--r", "2", "--n", "40", "--triplets", "0",
      "--m-sweep", "2", "--seeds", "0"], "error: n_triplets must be positive"),
    (["verify-t2", "--d", "80", "--n", "40", "--triplets", "0", "--m", "64", "--seeds", "0"],
     "error: n_triplets must be positive"),
    (["verify-t2", "--d", "80", "--n", "40", "--triplets", "30", "--m", "0", "--seeds", "0"],
     "error: m must be positive, got m = 0"),
    (["verify-t2", "--d", "80", "--n", "40", "--triplets", "30", "--m", "-1", "--seeds", "0"],
     "error: m must be positive, got m = -1"),
    (["verify-t1", "--m-sweep", ""], "error: need at least one m in the sweep"),
    (["verify-t1", "--m-sweep", ","], "error: need at least one m in the sweep"),
    # refused with the value, before numpy's own error (which names neither)
    (["verify-t1", "--seeds", "0,-1"], "error: seeds must be non-negative, got -1"),
    (["verify-t2", "--seeds", "-3"], "error: seeds must be non-negative, got -3"),
])
def test_harness_config_errors_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def no_data_loads(monkeypatch):
    """Fail the test if ``train`` loads its data or a harness draws a triplet."""
    def refuse(*args, **kwargs):
        raise AssertionError("data loaded")

    monkeypatch.setattr(cli, "load_split", refuse)
    monkeypatch.setattr(harness, "sample_active_triplets", refuse)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--lambda"], "error: lambda must be positive and finite"),
    ("train", ["--gamma"], "error: gamma must be finite"),  # printed even for the hinge
    ("train", ["--loss", "smoothed_hinge", "--gamma"], "error: gamma must be finite"),
    ("verify-t1", ["--delta"], "error: delta must be in (0, 1)"),
    ("verify-t2", ["--delta"], "error: delta must be in (0, 1)"),
    ("verify-t2", ["--eta"], "error: eta must be positive and finite"),
    ("verify-t2", ["--gamma"], "error: gamma must be positive and finite"),
])
def test_non_finite_float_flags_exit_2(command, flags, message, value, datasets, tmp_path,
                                       no_data_loads, capsys):
    # refused before any data loads or any triplet is drawn
    argv = [command, *tiny_argv(command, *datasets, tmp_path), *flags, value]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# refused with the value, before numpy's own error (which names neither):
# train before it loads data, sample-triplets before it draws
@pytest.mark.parametrize("command, seed", [("train", "-1"), ("sample-triplets", "-2")])
def test_negative_seed_exits_2(command, seed, datasets, tmp_path, no_data_loads, capsys):
    argv = [command, *tiny_argv(command, *datasets, tmp_path), "--seed", seed]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: seed must be non-negative, got {seed}\n"


SRC = Path(__file__).resolve().parents[1] / "src"


def durp_warnings_as_errors(argv):
    """Run ``durp`` in a subprocess under ``-W error``, so a numpy warning ends it with a traceback."""
    return subprocess.run([sys.executable, "-W", "error", "-m", "durp", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


# lambda * N enters the duality certificate squared: below the range it
# divided by zero, above it overflowed, each with a raw traceback
@pytest.mark.parametrize("lam", ["1e-300", "1e-152", "1e149", "1e300", "0", "-1", "nan", "inf"])
def test_lambda_outside_the_certificate_range_exits_2(lam, datasets):
    done = durp_warnings_as_errors(
        [*train_args(*datasets), "--trials", "1", "--triplets", "50", "--lambda", lam])
    assert done.returncode == 2
    assert done.stderr.startswith("error: lambda must be positive and finite, "
                                  "with lambda * triplets in (1e-150, 1e150)")
    assert "Traceback" not in done.stderr


BLOBS = gaussian_blobs(5, 60, 2, seed=0)


def blob_file(path, scale, columns, blobs=BLOBS):
    """LIBSVM file of blob columns scaled so the largest |value| is ``scale``; 0 makes all equal."""
    points = blobs.points[:, columns] / np.abs(blobs.points).max()
    points = points * scale if scale else np.ones_like(points)
    path.write_text(serialize_libsvm(LabeledDataset(points, blobs.labels[columns])))
    return str(path)


# the Gram is quartic in the features, so data near the float64 range used to
# overflow into warnings and drift errors, or underflow into an empty metric
@pytest.mark.parametrize("command, train_scale, test_scale, refused", [
    ("train", 1e150, 1.0, "train"),
    ("train", 1e-200, 1.0, "train"),
    ("train", 0, 1.0, "degenerate dataset: zero total variance"),  # every point equal
    ("spectrum", 1e200, 1.0, "train"),
    ("eval", 1.0, 1e150, "test"),
    ("train", 1e69, 1e69, None),
    ("train", 1e-69, 1e-69, None),
    # the smoothed hinge's loss value used to square every margin, selected or not
    ("train --loss smoothed_hinge", 1e69, 1e69, None),
    ("train --loss smoothed_hinge", 1e-69, 1e-69, None),
])
def test_feature_magnitudes_exit_2_or_train(command, train_scale, test_scale, refused, tmp_path):
    command, *flags = command.split()
    files = {
        "train": blob_file(tmp_path / "train.svm", train_scale, slice(0, 40)),
        "test": blob_file(tmp_path / "test.svm", test_scale, slice(40, 60)),
    }
    save_metric(tmp_path / "metric.bin", np.eye(5))
    argv = {
        "train": ["train", "--m", "3", "--triplets", "50", "--trials", "1",
                  "--train-file", files["train"], "--test-file", files["test"]],
        "spectrum": ["spectrum", "--train-file", files["train"]],
        "eval": ["eval", "--metric-file", str(tmp_path / "metric.bin"),
                 "--train-file", files["train"], "--test-file", files["test"]],
    }[command]
    done = durp_warnings_as_errors([*argv, *flags])
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    if refused is None:
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["trials"][0]["metric_rank"] > 0
    elif refused in files:
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: {files[refused]}: largest |value| ")
        assert "is outside [1e-70, 1e70]" in done.stderr
    else:
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: {refused}")


# lambda * ||M||^2 enters the duality gap as 0.5 * lam * quad / (lam N)^2,
# whose product 0.5 * lam * quad overflowed here though the term is ~1e129
@pytest.mark.parametrize("lam", ["5e146", "5e145"])
def test_gap_at_large_data_and_lambda_is_finite(lam, tmp_path):
    blobs = gaussian_blobs(4, 60, 2, seed=0)
    done = durp_warnings_as_errors([
        "train", "--method", "durp", "--triplets", "200", "--m", "2", "--trials", "1",
        "--lambda", lam,
        "--train-file", blob_file(tmp_path / "train.svm", 1e70, slice(0, 40), blobs),
        "--test-file", blob_file(tmp_path / "test.svm", 1e70, slice(40, 60), blobs),
    ])
    assert done.returncode == 0, done.stderr
    assert np.isfinite(json.loads(done.stdout)["trials"][0]["final_gap"])


# at the other corner, a small lambda puts 1/lambda into the gap's norm term:
# below about 1e-30 on this data it overflowed into warnings and an inf gap
@pytest.mark.parametrize("lam, trains", [("1e-30", True), ("1e-35", False), ("1e-152", False)])
def test_gap_at_large_data_and_small_lambda_is_finite_or_refused(lam, trains, tmp_path):
    blobs = gaussian_blobs(4, 60, 2, seed=0)
    done = durp_warnings_as_errors([
        "train", "--method", "durp", "--triplets", "200", "--m", "2", "--trials", "1",
        "--lambda", lam,
        "--train-file", blob_file(tmp_path / "train.svm", 1e70, slice(0, 40), blobs),
        "--test-file", blob_file(tmp_path / "test.svm", 1e70, slice(40, 60), blobs),
    ])
    if trains:
        assert done.returncode == 0, done.stderr
        assert np.isfinite(json.loads(done.stdout)["trials"][0]["final_gap"])
    else:
        assert done.returncode == 2
        assert done.stderr == f"error: the duality gap overflows at lambda = {lam}; " \
                              "the data are too large\n"


# the unit margin makes the optimal S tiny next to its rank-one terms as the
# features grow, so the running S and its rebuild disagree in rounding: the
# refusal must name the data scale, not only the drift
@pytest.mark.parametrize("scale, trains", [(10.0, True), (100.0, False), (1e4, False)])
def test_drift_refusal_names_the_feature_scale(scale, trains, tmp_path):
    blobs = gaussian_blobs(64, 60, 2, seed=0)
    done = durp_warnings_as_errors([
        "train", "--method", "durp", "--triplets", "200", "--m", "2", "--trials", "1",
        "--train-file", blob_file(tmp_path / "train.svm", scale, slice(0, 40), blobs),
        "--test-file", blob_file(tmp_path / "test.svm", scale, slice(40, 60), blobs),
    ])
    if trains:
        assert done.returncode == 0, done.stderr
    else:
        assert done.returncode == 2
        assert done.stderr.startswith("error: accumulator drift ")
        assert "exceeds 1.0e-06: large feature values make S tiny next to the rank-one " \
               "terms summed into it" in done.stderr
        assert "rescale the features" in done.stderr
        assert "Traceback" not in done.stderr


def fake_trial(config, train, test, seed, map_score=0.5):
    """A ``train_trial`` stand-in: no full-size run."""
    trace = [TraceRow(1, 0.0, 0.0, 0.0, 0.0)]  # a real solve always records at least one epoch
    return TrialResult(seed, EvalReport(map_score, 0.5, 1, 0), np.eye(train.d),
                       np.zeros(1), trace, 0.0)


def test_train_report_refuses_nan(datasets, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "train_trial", functools.partial(fake_trial, map_score=np.nan))
    assert main(["train", "--train-file", datasets[0], "--test-file", datasets[1]]) == 2
    assert "not JSON compliant" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    # the default m = 10 is more than the fixture's 6 features
    (("--method", "spca"), "spca needs m <= min(d, n) = 6, got m = 10"),
    # refused before a d x m projection is allocated
    (("--m", "999999"), "durp needs m <= d = 6, got m = 999999"),
])
def test_m_beyond_the_data_exits_2(extra, message, datasets, capsys):
    train_path, test_path = datasets
    assert main(["train", "--train-file", train_path, "--test-file", test_path, *extra]) == 2
    assert message in capsys.readouterr().err


def test_verify_t2_subcommand_tiny(tmp_path):
    out = tmp_path / "t2.csv"
    code = main([
        "verify-t2", "--d", "80", "--n", "40", "--triplets", "30",
        "--m", "64", "--seeds", "0,1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.startswith("m,seed,epsilon,kappa")
    assert sum(1 for l in lines if not l.startswith("#")) == 3


def test_bad_seed_list_exits_1(capsys):
    code = main(["verify-t1", "--seeds", "one,two"])
    assert code == 1
    assert "list of integers" in capsys.readouterr().err


def eval_metric_file(path, datasets, capsys):
    """Exit code and stderr of ``eval`` on the metric file ``path``."""
    code = main(["eval", "--metric-file", str(path), "--train-file", datasets[0],
                 "--test-file", datasets[1]])
    return code, capsys.readouterr().err


def test_eval_metric_size_mismatch_exits_2(datasets, tmp_path, capsys):
    metric_path = tmp_path / "metric.bin"
    not_finite = np.eye(6)
    not_finite[0, 0] = np.nan
    cases = (
        (np.eye(4), ("metric is 4 x 4", "6 features")),  # the data have 6 features
        (np.ones((4, 2)), ("metric is 4 x 4 but the data have 6 features",)),
        (not_finite, ("metric has non-finite entries",)),
        (np.zeros((0, 0)), ("metric is 0 x 0 but the data have 6 features",)),
    )
    for metric, messages in cases:
        save_metric(metric_path, metric)
        code, err = eval_metric_file(metric_path, datasets, capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert all(message in err for message in messages)


@pytest.mark.parametrize("case, message", [
    ("header", "error: truncated metric file (missing d x r header)"),
    ("payload", "error: metric payload has 88 bytes, expected 96 for a 6 x 2 factor"),
    # a dense 6 x 6 metric in the layout before factor files: u64 q, then q * q f64,
    # whose first entry reads as a column count of 2**62 - 2**52
    ("dense", "error: metric payload has 280 bytes, expected "),
    # a header whose d * r * 8 matches an empty payload, with a side no array can have
    ("wide", "error: metric header 0 x 9223372036854775808 is larger than any array can hold"),
    ("tall", "error: metric header 9223372036854775808 x 0 is larger than any array can hold"),
])
def test_eval_refuses_a_malformed_metric_file(case, message, datasets, tmp_path, capsys):
    metric_path = tmp_path / "metric.bin"
    save_metric(metric_path, np.ones((6, 2)))
    raw = metric_path.read_bytes()
    metric_path.write_bytes({
        "header": raw[:12],
        "payload": raw[:-8],
        "dense": struct.pack("<Q", 6) + np.eye(6).astype("<f8").tobytes(),
        "wide": struct.pack("<2Q", 0, 2**63),
        "tall": struct.pack("<2Q", 2**63, 0),
    }[case])
    code, err = eval_metric_file(metric_path, datasets, capsys)
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("k", ["0", "41"])
def test_eval_refuses_k_before_ranking(datasets, tmp_path, monkeypatch, capsys, k):
    # the training file holds 40 points, so k must lie in [1, 40]
    train_path, test_path = datasets
    metric_path = tmp_path / "metric.bin"
    save_metric(metric_path, np.eye(6))

    def never(*args):
        raise AssertionError("ranked before the k check")

    monkeypatch.setattr("durp.evaluate.ranking_map", never)
    code = main(["eval", "--metric-file", str(metric_path), "--train-file", train_path,
                 "--test-file", test_path, "--k", k])
    assert code == 2
    assert "k must be in [1, 40]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "spectrum", "sample-triplets"])
@pytest.mark.parametrize("text, message", [
    ("1\n2\n1\n2\n", "points have no features (d = 0)"),
    # 10**15 rows of float64 exceed any address space, so nothing is allocated
    ("1 1:1\n2 1000000000000000:1\n", "Unable to allocate"),
])
def test_unusable_data_file_exits_2(command, text, message, tmp_path, capsys):
    path = tmp_path / "data.svm"
    path.write_text(text)
    extra = {"train": ["--method", "duori", "--test-file", str(path)], "spectrum": [],
             "sample-triplets": ["--out", str(tmp_path / "t.csv")]}[command]
    assert main([command, "--train-file", str(path), *extra]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


SAMPLE_VALUES = {int: "3", float: "0.25", None: "x.svm"}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("bad, content, message", [
    ("test", b"0 1:1 9:2\n", "feature index 9 exceeds d = 6"),
    ("test", b"0 1:1\nx 1:1\n", "line 2: bad label 'x'"),
    ("train", b"0 1:1\nx 1:1\n", "line 2: bad label 'x'"),
    ("test", b"0 1:\xff\n", "'utf-8' codec can't decode byte 0xff in position 4"),
    ("train", b"0 1:\xff\n", "'utf-8' codec can't decode byte 0xff in position 4"),
])
def test_data_file_errors_name_the_file(command, bad, content, message, datasets, tmp_path,
                                        capsys):
    path = tmp_path / f"bad-{bad}.svm"
    path.write_bytes(content)
    train_path, test_path = datasets
    files = (str(path), test_path) if bad == "train" else (train_path, str(path))
    assert main([command, *tiny_argv(command, *files, tmp_path)]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(build_parser().commands))
def test_every_long_flag_is_a_config_key(command, tmp_path):
    for key, action in config_keys(build_parser().commands[command]).items():
        flag = action.option_strings[-1]
        assert key == flag[2:].replace("-", "_")
        raw = action.choices[-1] if action.choices else SAMPLE_VALUES.get(action.type, "1,2")
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"{key} = {raw}\n")
        from_file = getattr(parse_args([command, "--config", str(config)]), action.dest)
        from_flag = getattr(parse_args([command, flag, raw]), action.dest)
        assert from_file == from_flag
        assert from_file == (action.type(raw) if action.type else raw)


@pytest.mark.parametrize("command", ["eval", "spectrum", "verify-t1", "verify-t2"])
def test_seed_flag_only_where_read(command, capsys):
    assert main([command, "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_train_defaults_are_run_config_fields(datasets, tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "train_trial", fake_trial)
    out = tmp_path / "report.json"
    assert main(["train", "--train-file", datasets[0], "--test-file", datasets[1],
                 "--out", str(out)]) == 0
    report, defaults = json.loads(out.read_text()), RunConfig()
    assert report["method"] == defaults.method
    for key in ("m", "n_triplets", "epochs", "loss", "gamma", "k", "seed", "trials"):
        assert report["config"][key] == getattr(defaults, key)
    assert report["config"]["lam"] == 1.0 / defaults.n_triplets


@pytest.mark.parametrize("command, names", [
    ("eval", ("k",)),
    ("sample-triplets", ("n_triplets", "seed")),
])
def test_subcommand_defaults_are_run_config_fields(command, names):
    args, defaults = parse_args([command]), RunConfig()
    for name in names:
        assert getattr(args, name) == getattr(defaults, name)


def tiny_argv(command, train_path, test_path, tmp_path):
    """Flags for a run of ``command`` on the CLI fixture that takes well under a second."""
    data = ["--train-file", train_path, "--test-file", test_path]
    if command == "eval":
        metric_path = tmp_path / "identity.bin"
        save_metric(metric_path, np.eye(6))
        return ["--metric-file", str(metric_path), *data]
    return {
        "train": [*data, "--m", "4", "--triplets", "40", "--trials", "1"],
        "spectrum": data[:2],
        "verify-t1": ["--d", "20", "--r", "2", "--n", "40", "--triplets", "30",
                      "--m-sweep", "2", "--seeds", "0"],
        "verify-t2": ["--d", "80", "--n", "40", "--triplets", "30", "--m", "64", "--seeds", "0"],
        "sample-triplets": [*data[:2], "--triplets", "25"],
    }[command]


# every typed flag takes a number or a list of numbers
NUMERIC_FLAGS = [
    (command, action.option_strings[-1])
    for command, p in sorted(build_parser().commands.items())
    for action in config_keys(p).values()
    if action.type is not None
]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", NUMERIC_FLAGS)
def test_numeric_flags_at_zero_and_below_never_raise(command, flag, value, datasets, tmp_path):
    # a later flag wins, so the swept value overrides the tiny run's own
    argv = [command, *tiny_argv(command, *datasets, tmp_path), flag, value,
            "--out", str(tmp_path / "out")]
    assert main(argv) in (0, 1, 2)
