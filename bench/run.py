"""wugbench benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload pipeline-en --seed 1 --seconds 30 --trace 0

Run it from the root of a wugbench checkout.  It generates the workload's
inputs from ``--seed`` (the set-up, timed several times before the rounds
and again after them), then runs whole rounds of the workload until the
next round would end after ``--seconds``, always at least one.  Every
round's outputs are checked.  Progress
goes to stderr; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
from workloads import ARCHITECTURES, WORKLOADS, Command, Inputs, Workload, make_inputs, run_command

SETUP_REPEATS = 25  # before the rounds, and again after them: the machine's speed drifts
TIME_LIMIT_S = 170.0  # a run must end within 180 s
CHECKED_CANDIDATES = 4
STAGE_COMMANDS = {"train_s": "train", "eval_s": "eval", "wug_s": "wug"}
STAGE_SPANS = {"train_s": "train_unit", "eval_s": "eval_test", "wug_s": "score_wugs"}


@dataclass
class Round:
    commands: list[Command]
    spans: list[dict]
    checkpoint_bytes: int
    failed: set = field(default_factory=set)
    problems: list[checks.Problem] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands)


def span_seconds(spans, name: str, arch: str | None = None) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name and (arch is None or s["arch"] == arch))


def check_round(wl: Workload, inputs: Inputs, wugs: dict, run: Path, rnd: Round,
                checked_unit) -> None:
    """Fill in the round's failed units and output problems."""
    units = wl.units
    bad = next((c for c in rnd.commands if c.returncode != 0), None)
    if bad is not None:
        rnd.failed = set(units)
        print(f"  {bad.name} exited {bad.returncode}: {bad.stderr.strip()[-2000:]}", file=sys.stderr)
        return
    param_counts = {}
    try:
        diverged = checks.diverged_units(run, rnd.commands[0].stdout, wl.staged)
        if not wl.staged:
            summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
            param_counts = {a: m["param_count"] for a, m in summary["models"].items()}
    except (OSError, KeyError, ValueError) as exc:
        rnd.failed = set(units)
        rnd.problems.append(checks.Problem(None, f"cannot read summary.json: {exc!r}"))
        return
    live = [u for u in units if u not in diverged]
    suite = [
        lambda: checks.check_curves(run, live, wl.epochs),
        lambda: checks.check_accuracy(run, live, inputs.test_classes),
        lambda: checks.check_ratings(run, live, wugs),
        lambda: checks.check_correlations(run, live, wugs, wl.lang),
        lambda: checks.check_productions(run, live, wugs),
        lambda: checks.check_summary(run, live, inputs.sizes, wl.staged),
    ]
    if checked_unit in live:
        suite.append(lambda: checks.check_checkpoint(
            run, checked_unit, wugs, CHECKED_CANDIDATES,
            param_counts.get(checked_unit[0])))
    for check in suite:
        try:
            rnd.problems += check()
        except Exception as exc:  # a check that cannot read an output is a failed check
            rnd.problems.append(checks.Problem(None, f"check raised {exc!r}"))
    rnd.failed = set(diverged)
    for p in rnd.problems:
        rnd.failed |= set(live) if p.unit is None else {p.unit}
    for p in rnd.problems[:10]:
        print(f"  check failed: {p.unit}: {p.message}", file=sys.stderr)


def run_round(wl: Workload, inputs: Inputs, wugs: dict, root: Path, round_dir: Path,
              traced: bool, checked_unit, deadline: float,
              keep_checkpoints: bool = False) -> Round:
    run, trace_dir = round_dir / "run", round_dir / "trace"
    commands = []
    for name in wl.commands:
        timeout = max(1.0, deadline - time.monotonic())
        commands.append(run_command(root, name, inputs.config, run, trace_dir,
                                    traced, timeout))
        if commands[-1].returncode != 0:
            break
    ckpt_dir = run / "checkpoints"
    ckpt_bytes = sum(p.stat().st_size for p in ckpt_dir.glob("*")) if ckpt_dir.is_dir() else 0
    rnd = Round(commands, tracer.read_spans(trace_dir), ckpt_bytes)
    check_round(wl, inputs, wugs, run, rnd, checked_unit)
    if not keep_checkpoints:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    return rnd


def end_to_end(wl: Workload, setup: list[float], rounds: list[Round]) -> dict:
    def median(fn):
        return statistics.median(fn(r) for r in rounds)

    metrics = {"setup_s": (statistics.median(setup), "s"),
               "wall_s": (median(lambda r: r.wall_s), "s")}
    for metric, command in STAGE_COMMANDS.items():
        if wl.staged:
            value = median(lambda r: sum(c.wall_s for c in r.commands if c.name == command))
        else:
            value = median(lambda r: span_seconds(r.spans, STAGE_SPANS[metric]))
        metrics[metric] = (value, "s")
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    metrics["checkpoint_mb"] = (median(lambda r: r.checkpoint_bytes) / 1e6, "MB")
    return metrics


def layer_metrics(rnd: Round) -> dict:
    """Per-layer numbers of one traced round.  The tracing overhead is its
    ``trace.wall_s`` minus the ``wall_s`` of an untraced run."""
    spans = rnd.spans
    m = {
        "trace.wall_s": (rnd.wall_s, "s"),
        "runner.load_data.calls": (sum(s["name"] == "runner.load_data" for s in spans), "count"),
        "runner.load_data_s": (span_seconds(spans, "runner.load_data"), "s"),
        "runner.write_s": (span_seconds(spans, "runner.write"), "s"),
        "runner.pool.cpu_s": (rnd.cpu_s, "s"),
        "runner.pool.busy_cores": (rnd.cpu_s / rnd.wall_s, "cores"),
        "runner.pool.invol_switches": (sum(c.invol_switches for c in rnd.commands), "count"),
    }
    steps: dict[str, list[int]] = {arch: [0, 0] for arch in ARCHITECTURES}
    for s in spans:
        for arch, (calls, rows) in s.get("steps", {}).items():
            steps[arch][0] += calls
            steps[arch][1] += rows
    for arch in ARCHITECTURES:
        for stage in ("train_unit", "eval_test", "score_wugs"):
            m[f"runner.{stage}_s.{arch}"] = (span_seconds(spans, stage, arch), "s")
        m[f"seq2seq.loss_s.{arch}"] = (span_seconds(spans, "seq2seq.loss", arch), "s")
        m[f"seq2seq.loss_calls.{arch}"] = (
            sum(s["name"] == "seq2seq.loss" and s["arch"] == arch for s in spans), "count")
        calls, rows = steps[arch]
        m[f"seq2seq.step_calls.{arch}"] = (calls, "count")
        m[f"seq2seq.rows_per_step.{arch}"] = (rows / calls if calls else 0.0, "rows/call")
        m[f"ndiff.backward_s.{arch}"] = (span_seconds(spans, "ndiff.backward", arch), "s")
        m[f"ndiff.optim_s.{arch}"] = (span_seconds(spans, "ndiff.optim", arch), "s")
        for kind in ("greedy", "beam", "force"):
            m[f"decode.{kind}_s.{arch}"] = (span_seconds(spans, f"decode.{kind}", arch), "s")
    beams = [s for s in spans if s["name"] == "decode.beam"]
    beam_steps = sum(c for s in beams for c, _ in s.get("steps", {}).values())
    m.update({
        "ndiff.checkpoint.save_s": (span_seconds(spans, "ndiff.checkpoint.save"), "s"),
        "ndiff.checkpoint.load_s": (span_seconds(spans, "ndiff.checkpoint.load"), "s"),
        "ndiff.checkpoint.load_calls": (
            sum(s["name"] == "ndiff.checkpoint.load" for s in spans), "count"),
        "decode.beam_calls": (len(beams), "count"),
        "decode.beam.steps_per_search": (beam_steps / len(beams) if beams else 0.0, "calls/search"),
        "decode.beam.maxlen_share": (
            sum(s.get("unfinished", False) for s in beams) / len(beams) if beams else 0.0, "ratio"),
        "decode.force_calls": (sum(s["name"] == "decode.force" for s in spans), "count"),
        "wugeval_s": (span_seconds(spans, "wugeval"), "s"),
        "corpus_s": (span_seconds(spans, "corpus"), "s"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "wugbench").is_dir() or not (root / "tests" / "datagen.py").is_file():
        print("error: run from the root of a wugbench checkout (src/wugbench and "
              "tests/datagen.py are missing)", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    base = root / ".bench_runs" / f"{wl.name}-seed{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    setup: list[float] = []

    def set_up() -> Inputs:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = make_inputs(wl, args.seed, root, base / "inputs")
            setup.append(time.perf_counter() - t0)
        return inputs

    inputs = set_up()
    wugs = checks.read_wug_tsv(inputs.wugs)
    units = wl.units

    rounds: list[Round] = []
    measure_start = time.monotonic()
    while True:
        checked_unit = units[(args.seed + len(rounds)) % len(units)]
        rnd = run_round(wl, inputs, wugs, root, base / f"round{len(rounds)}", args.trace == 1,
                        checked_unit, started + TIME_LIMIT_S)
        rounds.append(rnd)
        print(f"{wl.name} round {len(rounds)}: {rnd.wall_s:.2f} s, "
              f"{len(rnd.failed)}/{len(units)} failed", file=sys.stderr)
        now = time.monotonic()
        per_round = (now - measure_start) / len(rounds)
        if (now - started + per_round > TIME_LIMIT_S
                or now - measure_start + per_round > args.seconds):
            break

    set_up()
    if args.trace == 0:
        metrics = end_to_end(wl, setup, rounds)
    else:
        per_round = [layer_metrics(r) for r in rounds]
        metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
                   for name, (_, unit) in per_round[0].items()}
    result = {
        "correct": not any(r.problems for r in rounds),
        "attempted": len(units) * len(rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
