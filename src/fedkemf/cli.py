"""Command-line interface: run / partition / eval / cost subcommands."""

import argparse
import json
import sys

import numpy as np

from . import checkpoint, nets
from .config import parse_config
from .costs import GB, MB, communication_cost, format_gb, speedup
from .errors import ConfigError, FedKemfError, ShapeMismatchError
from .runner import build_datasets, partition_report, run_experiment

EXIT_IO = 5


def _build_parser():
    parser = argparse.ArgumentParser(prog="fedkemf")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility and has no effect: the sampled "
                            "clients of a round train in lockstep in one process")

    p_part = sub.add_parser("partition", help="emit the partition map and label histograms")
    p_part.add_argument("config")

    p_eval = sub.add_parser("eval", help="report a checkpoint's test accuracy")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("config")

    p_cost = sub.add_parser("cost", help="communication-cost arithmetic")
    p_cost.add_argument("--rounds", type=int, required=True)
    p_cost.add_argument("--payload-mb", type=float, required=True)
    p_cost.add_argument("--clients", type=int, required=True)
    p_cost.add_argument("--baseline-gb", type=float, default=None)
    return parser


def _cmd_run(args):
    config = parse_config(args.config)
    # Training runs under errstate(all="ignore") and checks finiteness once per
    # epoch; only a failed check or a divergence replays the call guarded (each
    # client alone, in the serial loop's order), under this errstate.  The guards
    # and the evaluation checks raise DivergenceError, so numpy's overflow and
    # invalid warnings would only add noise to stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(config)
    print(f"rounds: {len(result.records)}")
    print(f"initial_acc: {result.initial_accuracy:.4f}")
    print(f"final_acc: {result.summary['final_acc']:.4f}")
    print(f"total_bytes: {result.summary['total_bytes']}")
    print(f"artifacts: {config.out_dir}")
    return 0


def _cmd_partition(args):
    config = parse_config(args.config)
    print(json.dumps(partition_report(config), indent=2))
    return 0


def _cmd_eval(args):
    config = parse_config(args.config)
    net = checkpoint.load(args.checkpoint)
    train, test = build_datasets(config)
    if (net.arch.input_dim, net.arch.num_classes) != (test.dim, train.num_classes):
        raise ShapeMismatchError(
            f"checkpoint takes {net.arch.input_dim} features to {net.arch.num_classes} classes; "
            f"the config's data has {test.dim} features and {train.num_classes} classes")
    acc, loss = nets.evaluate(net, test.features, test.labels)
    print(f"test_accuracy: {acc:.4f}")
    print(f"test_loss: {loss:.4f}")
    return 0


def _cmd_cost(args):
    try:
        total = communication_cost(args.rounds, args.payload_mb * MB, args.clients)
        ratio = None if args.baseline_gb is None else speedup(args.baseline_gb, total / GB)
    except (ValueError, OverflowError) as e:  # OverflowError: an int too large for a float
        raise ConfigError(str(e)) from e  # exit 2, as argparse's own usage errors
    print(f"total: {format_gb(total)}")
    if ratio is not None:
        print(f"speedup: {ratio:.2f}x")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "partition": _cmd_partition,
    "eval": _cmd_eval,
    "cost": _cmd_cost,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FedKemfError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as e:
        # Every large array is sized by config keys (IDX headers are checked against the
        # file size), so an array that does not fit is a config error.
        print(f"error: out of memory: {e}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
