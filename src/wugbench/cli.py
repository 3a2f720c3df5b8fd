"""Command-line interface.

Subcommands mirror the pipeline stages: ``split`` a dataset, ``train``
checkpoints, ``eval`` them on the test set, score ``wug`` items, and
assemble a ``report``.  Every subcommand takes a JSON config file; a few
common fields can be overridden from the command line.  Exit codes:
0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import CorpusError
from .ndiff import CheckpointError
from .runner import (
    ExperimentConfig,
    RunnerError,
    run_eval,
    run_experiment,
    run_report,
    run_split,
    run_train,
    run_wug,
)
from .seq2seq import ARCHITECTURES


def _parse_seeds(text: str) -> list[int]:
    """'5' means seeds 1..5; '2,4,9' means exactly those."""
    try:
        if "," in text:
            return [int(tok) for tok in text.split(",") if tok]
        return list(range(1, int(text) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON experiment config")
    sub.add_argument("--arch", choices=ARCHITECTURES,
                     help="restrict to one architecture")
    sub.add_argument("--seeds", type=_parse_seeds,
                     help="seed count (e.g. 10) or comma list (e.g. 1,2,5)")
    sub.add_argument("--epochs", type=int, help="override training epochs")
    sub.add_argument("--beam-width", type=int, help="override beam width")
    sub.add_argument("--out", help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wugbench",
        description="Train inflection models and compare them with human wug judgments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="write train/dev/test TSVs from one dataset")
    p_train = sub.add_parser("train", help="train checkpoints for the configured units")
    p_eval = sub.add_parser("eval", help="beam-decode the test set from checkpoints")
    p_wug = sub.add_parser("wug", help="score wug candidates and productions")
    p_report = sub.add_parser("report", help="aggregate CSVs into summary.json")
    p_run = sub.add_parser("run", help="full pipeline in one go")
    for p in (p_split, p_train, p_eval, p_wug, p_report, p_run):
        _add_common(p)
    p_report.add_argument("--merge", action="append", default=[],
                          help="additional run directory to merge (repeatable)")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    if args.arch:
        overrides["architectures"] = [args.arch]
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.beam_width is not None:
        overrides["beam_width"] = args.beam_width
    if args.out:
        overrides["out_dir"] = args.out
    return ExperimentConfig.from_file(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "split":
            run_split(config)
        elif args.command == "train":
            run_train(config)
        elif args.command == "eval":
            run_eval(config)
        elif args.command == "wug":
            run_wug(config)
        elif args.command == "report":
            run_report(config, args.merge)
        elif args.command == "run":
            run_experiment(config)
    except (CorpusError, RunnerError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
