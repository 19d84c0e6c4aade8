"""Command-line interface: run / partition / eval / cost subcommands."""

import argparse
import json
import sys

import numpy as np

from . import checkpoint, nets
from .config import parse_config
from .costs import MB, communication_cost, format_gb, speedup
from .errors import FedKemfError
from .runner import build_datasets, partition_report, run_experiment

EXIT_IO = 5


def _build_parser():
    parser = argparse.ArgumentParser(prog="fedkemf")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="max parallel fedkemf client updates per round "
                            "(fedavg clients train in lockstep)")

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
    # Overflow and invalid values are caught by the finiteness guards, which
    # raise DivergenceError; numpy's own warnings would only add noise to stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(config, jobs=max(1, args.jobs))
    print(f"rounds: {len(result.records)}")
    print(f"initial_acc: {result.initial_accuracy:.4f}")
    print(f"final_acc: {result.summary['final_acc']:.4f}")
    print(f"total_bytes: {result.summary['total_bytes']}")
    print(f"artifacts: {result.out_dir}")
    return 0


def _cmd_partition(args):
    config = parse_config(args.config)
    print(json.dumps(partition_report(config), indent=2))
    return 0


def _cmd_eval(args):
    config = parse_config(args.config)
    net = checkpoint.load(args.checkpoint)
    _, test = build_datasets(config)
    acc, loss = nets.evaluate(net, test.features, test.labels)
    print(f"test_accuracy: {acc:.4f}")
    print(f"test_loss: {loss:.4f}")
    return 0


def _cmd_cost(args):
    total = communication_cost(args.rounds, args.payload_mb * MB, args.clients)
    print(f"total: {format_gb(total)}")
    if args.baseline_gb is not None:
        ratio = speedup(args.baseline_gb, total / (1024 ** 3))
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


if __name__ == "__main__":
    sys.exit(main())
