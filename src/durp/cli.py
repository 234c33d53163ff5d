"""Command-line front end.

Subcommands: train, eval, spectrum, verify-t1, verify-t2, sample-triplets.
Options may come from a ``--config`` file of flat ``key=value`` lines
(``#`` starts a comment) whose keys are the long flag names with ``-``
turned into ``_``; explicit command-line flags win over the file.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness as harness_mod
from .data import eigen_spectrum, load_libsvm, load_split
from .evaluate import evaluate_metric
from .experiments import METHODS, RunConfig, run_method
from .metric import load_metric, save_metric
from .solver import LOSS_KINDS, TraceRow
from .triplets import sample_active_triplets


class ConfigError(ValueError):
    """Bad flags or config file, or a value argparse cannot parse (exit 1).

    A parsed value that a config dataclass refuses is a runtime error (exit 2).
    """


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config problems are exit 1
        raise ConfigError(message)


def read_config_file(path):
    """Parse flat key=value lines; '#' comments and blank lines are ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")  # one decode: a codec error gives its file offset
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw.strip()!r}")
        values[key.strip()] = value.strip()
    return values


def _int_list(text):
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a list of integers, got {text!r}") from None


def build_parser():
    """The one table of options, flags and types.

    A flag without ``default=`` stays ``None`` when unset, and the command
    then uses the default of the config dataclass it builds.
    """
    parser = _Parser(prog="durp", description="Metric learning by dual random projection")
    run_defaults = RunConfig()
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, run, summary):
        # no prefix matching: --seed must not reach --seeds
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(_run=run)
        return p

    p_train = command("train", cmd_train, "train a metric and evaluate it")
    p_train.add_argument("--method", choices=METHODS)
    p_train.add_argument("--m", type=int)
    p_train.add_argument("--triplets", dest="n_triplets", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lambda", dest="lam", type=float)
    p_train.add_argument("--loss", choices=LOSS_KINDS)
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--k", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--trials", type=int)
    p_train.add_argument("--train-file")
    p_train.add_argument("--test-file")
    p_train.add_argument("--save-metric",
                         help="write the metric's factor to PATH, or to PATH.trialT for each "
                              "trial T when --trials > 1")
    p_train.add_argument("--trace-out", help="write the solver trace CSV, named as --save-metric")

    p_eval = command("eval", cmd_eval, "evaluate a stored metric")
    p_eval.add_argument("--metric-file")
    p_eval.add_argument("--train-file")
    p_eval.add_argument("--test-file")
    p_eval.add_argument("--k", type=int, default=run_defaults.k)

    p_spec = command("spectrum", cmd_spectrum, "normalized covariance spectrum CSV")
    p_spec.add_argument("--train-file")

    p_t1 = command("verify-t1", cmd_verify_t1, "low-rank recovery trend harness")
    p_t2 = command("verify-t2", cmd_verify_t2, "smooth-loss dual recovery harness")
    for p_harness in (p_t1, p_t2):
        p_harness.add_argument("--d", type=int)
        p_harness.add_argument("--n", type=int)
        p_harness.add_argument("--triplets", dest="n_triplets", type=int)
        p_harness.add_argument("--delta", type=float)
        p_harness.add_argument("--seeds", type=_int_list, help="comma-separated seed list")
    p_t1.add_argument("--r", type=int)
    p_t1.add_argument("--m-sweep", type=_int_list, help="comma-separated list of m values")
    p_t2.add_argument("--m", type=int,
                      help="projection width (default: smallest m passing the sampling condition)")
    p_t2.add_argument("--eta", type=float)
    p_t2.add_argument("--gamma", type=float)

    p_samp = command("sample-triplets", cmd_sample, "sample active triplets to CSV")
    p_samp.add_argument("--train-file")
    p_samp.add_argument("--triplets", dest="n_triplets", type=int,
                        default=run_defaults.n_triplets)
    p_samp.add_argument("--seed", type=int, default=run_defaults.seed)

    return parser


def config_keys(command_parser):
    """Config key -> argparse action: every long flag of a subcommand, '-' -> '_'."""
    return {
        action.option_strings[-1][2:].replace("-", "_"): action
        for action in command_parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def parse_args(argv=None):
    """Parse the command line, reading each ``--config`` entry as a flag.

    The file's entries for the command become ``--flag=value`` tokens put
    after the command and before the command line's own flags, so one
    parse checks them as it checks flags, and the later flag wins:
    flag > file > built-in default.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    known = {key for p in parser.commands.values() for key in config_keys(p)}
    table = config_keys(parser.commands[args.command])
    tokens = []
    for key, raw in read_config_file(args.config).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key in table:  # keys for other subcommands are tolerated
            tokens.append(f"{table[key].option_strings[-1]}={raw}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _fields(args, cls):
    """The options that name a field of dataclass ``cls`` and are set."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) in (None, ""):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} is required (flag or config file)")


def _csv(columns, rows, comments=()):
    """``#`` comments, the header, the rows: floats as ``%.17g`` (exact), other cells ``%d``."""
    lines = ["# " + text for text in comments] + [",".join(columns)]
    lines.extend(",".join(("%.17g" if isinstance(v, float) else "%d") % v for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _json(obj):
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _write(path, text):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_train(args):
    _require(args, "train_file", "test_file")
    config = RunConfig(**_fields(args, RunConfig))
    report, results = run_method(config, *load_split(args.train_file, args.test_file))
    for i, res in enumerate(results):
        suffix = "" if config.trials == 1 else f".trial{i}"
        if args.save_metric:
            save_metric(args.save_metric + suffix, res.factor)
        if args.trace_out:
            _write(args.trace_out + suffix, _csv(TraceRow._fields, res.solver_trace))
    _write(args.out, _json(report))


def cmd_eval(args):
    _require(args, "metric_file", "train_file", "test_file")
    report = evaluate_metric(load_metric(args.metric_file),
                             *load_split(args.train_file, args.test_file), args.k)
    _write(args.out, _json({**report.scores(), "k": args.k}))


def cmd_spectrum(args):
    _require(args, "train_file")
    data, _ = load_libsvm(args.train_file)
    _write(args.out, _csv(("rank", "normalized_eigenvalue"),
                          enumerate(eigen_spectrum(data), start=1)))


def cmd_verify_t1(args):
    config = harness_mod.HarnessConfig(**_fields(args, harness_mod.HarnessConfig))
    rows = harness_mod.verify_theorem1(config)["rows"]
    _write(args.out, _csv(rows[0], (r.values() for r in rows), [
        "low-rank recovery trend; bound columns are the literal sampling-condition",
        "curve (c=1/3), quoted for reference only -- desk-scale m cannot meet it"]))


def cmd_verify_t2(args):
    config = dataclasses.replace(harness_mod.T2_CONFIG, **_fields(args, harness_mod.HarnessConfig))
    rows = harness_mod.verify_theorem2(config, m=args.m)["rows"]
    _write(args.out, _csv(rows[0], (r.values() for r in rows), [
        "smooth-loss dual recovery; bound = max(eps term, eta term) per seed"]))


def cmd_sample(args):
    _require(args, "train_file")
    train, _ = load_libsvm(args.train_file)
    triplets = sample_active_triplets(train, args.n_triplets, args.seed)
    _write(args.out, _csv(("i", "j", "k"), triplets))


def main(argv=None):
    try:
        args = parse_args(argv)
        # config values validated by the dataclasses / functions they feed
        args._run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
