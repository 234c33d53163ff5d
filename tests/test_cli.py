"""Command-line entry points: exit codes, config precedence, all subcommands."""

import json

import numpy as np
import pytest

from durp import experiments
from durp.cli import ConfigError, build_parser, config_keys, main, parse_args, read_config_file
from durp.data import LabeledDataset, serialize_libsvm
from durp.evaluate import EvalReport, evaluate_metric
from durp.experiments import RunConfig, TrialResult
from durp.metric import save_metric
from durp.synth import gaussian_blobs
from durp.triplets import load_triplets


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
    assert "bad value" in capsys.readouterr().err

    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_train_eval_round_trip(datasets, tmp_path):
    train_path, test_path = datasets
    metric_path = tmp_path / "metric.bin"
    report_path = tmp_path / "train.json"
    code = main(train_args(train_path, test_path,
                           "--trials", "1", "--save-metric", str(metric_path),
                           "--out", str(report_path)))
    assert code == 0
    trained = json.loads(report_path.read_text())

    eval_path = tmp_path / "eval.json"
    code = main([
        "eval", "--metric-file", str(metric_path), "--train-file", train_path,
        "--test-file", test_path, "--out", str(eval_path),
    ])
    assert code == 0
    evaluated = json.loads(eval_path.read_text())
    assert evaluated["map"] == trained["trials"][0]["map"]
    assert evaluated["knn_accuracy"] == trained["trials"][0]["knn_accuracy"]


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


def test_sample_triplets_subcommand(datasets, tmp_path, capsys):
    train_path, _ = datasets
    out = tmp_path / "triplets.csv"
    code = main(["sample-triplets", "--train-file", train_path,
                 "--triplets", "25", "--out", str(out)])
    assert code == 0
    assert load_triplets(out).shape == (25, 3)
    # --out is mandatory here
    assert main(["sample-triplets", "--train-file", train_path,
                 "--triplets", "5"]) == 1
    assert "--out is required" in capsys.readouterr().err


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


def test_verify_t1_over_the_dense_limit_exits_2(capsys):
    # d = 20 puts the original-space solve on the Gram factor (20 * 21 <= 4001)
    code = main(["verify-t1", "--d", "20", "--r", "2", "--n", "40", "--triplets", "4001",
                 "--m-sweep", "2,4", "--seeds", "0"])
    assert code == 2
    assert "dense Gram limited to 4000 triplets" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # the default sweep reaches m = 400; the message names d and each m outside it
    (["verify-t1", "--d", "20", "--r", "2", "--n", "40", "--triplets", "30"],
     "every m in the sweep must lie in [1, d] = [1, 20]; out of range: 50, 100, 400"),
    # verify-t2 has no --r flag, so d is checked before r
    (["verify-t2", "--d", "0"], "error: d must be positive"),
    # lam = 1/N needs at least one triplet
    (["verify-t1", "--d", "20", "--r", "2", "--n", "40", "--triplets", "0",
      "--m-sweep", "2", "--seeds", "0"], "error: n_triplets must be positive"),
    (["verify-t2", "--d", "80", "--n", "40", "--triplets", "0", "--m", "64", "--seeds", "0"],
     "error: n_triplets must be positive"),
    (["verify-t2", "--d", "80", "--n", "40", "--triplets", "30", "--m", "0", "--seeds", "0"],
     "error: m must be positive, got m = 0"),
    (["verify-t2", "--d", "80", "--n", "40", "--triplets", "30", "--m", "-1", "--seeds", "0"],
     "error: m must be positive, got m = -1"),
])
def test_harness_config_errors_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


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


def test_eval_metric_size_mismatch_exits_2(datasets, tmp_path, capsys):
    train_path, test_path = datasets
    metric_path = tmp_path / "metric.bin"
    not_finite = np.eye(6)
    not_finite[0, 0] = np.nan
    cases = (
        (np.eye(4), ("metric is 4 x 4", "6 features")),  # the data have 6 features
        (not_finite, ("metric has non-finite entries",)),
    )
    for metric, messages in cases:
        save_metric(metric_path, metric)
        code = main(["eval", "--metric-file", str(metric_path), "--train-file", train_path,
                     "--test-file", test_path])
        assert code == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages)


SAMPLE_VALUES = {int: "3", float: "0.25", None: "x.svm"}


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
    def fake_trial(config, train, test, seed, projection_override=None):  # no full-size run
        trace = [(1, 0.0, 0.0, 0.0, 0.0)]  # a real solve always records at least one epoch
        alpha = np.zeros(1)
        return TrialResult(seed, EvalReport(0.5, 0.5, config.k, 1, 0), None, alpha, trace, 0.0)

    monkeypatch.setattr(experiments, "train_trial", fake_trial)
    out = tmp_path / "report.json"
    assert main(["train", "--train-file", datasets[0], "--test-file", datasets[1],
                 "--out", str(out)]) == 0
    report, defaults = json.loads(out.read_text()), RunConfig()
    assert report["method"] == defaults.method
    for key in ("m", "n_triplets", "epochs", "loss", "gamma", "k", "seed", "trials"):
        assert report["config"][key] == getattr(defaults, key)
    assert report["config"]["lambda"] == 1.0 / defaults.n_triplets


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
