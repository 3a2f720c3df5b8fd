"""The benchmark's workloads: their inputs, and one timed round of each.

Inputs come from ``tests/datagen.py`` and depend only on the workload
seed.  Every workload uses pre-split train/dev/test files, so the
benchmark knows the test set's class make-up, and the default model
dimensions: checkpoint size and decoding cost scale with them.  A round
runs each of the workload's ``wugbench`` commands once, as a subprocess
of its own, through ``shim.py``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ARCHITECTURES = ("bilstm_attn", "bilstm_noattn", "unilstm_attn", "unilstm_noattn", "transformer")


@dataclass(frozen=True)
class Workload:
    name: str
    lang: str
    sizes: tuple[int, int, int]  # train, dev, test examples
    wug_items: int
    architectures: tuple[str, ...]
    unit_seeds: tuple[int, ...]
    commands: tuple[str, ...]
    epochs: int = 2
    # at least three optimizer steps per epoch: with the default 32 on 48-72
    # examples, a two-epoch transformer's loss does not reliably fall
    batch_size: int = 16
    model_overrides: dict | None = None  # the benchmark's own tests shrink the models

    @property
    def staged(self) -> bool:
        return "train" in self.commands

    @property
    def units(self) -> list[tuple[str, int]]:
        return [(arch, seed) for arch in self.architectures for seed in self.unit_seeds]


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("pipeline-en", "en", (80, 6, 36), 32, ARCHITECTURES, (1,), ("run",)),
        Workload("staged-de", "de", (48, 8, 96), 56, ARCHITECTURES[:4], (1,),
                 ("train", "eval", "wug", "report")),
    )
}


@dataclass
class Inputs:
    """What the benchmark generated, kept for the output checks."""

    config: Path
    wugs: Path
    test_classes: list[str]
    sizes: dict[str, int]


# Lemma lengths that every split and the wug items follow in turn.  Search
# and scoring cost grow with length (a beam that never finishes runs to
# len(source) + 10 steps), so fixing the profile keeps a seed's inputs
# from being cheaper or dearer than another's.
LENGTH_CYCLE = (3, 5, 7, 4, 6, 5)
POOL_FACTOR = 8  # generate this many times the items needed, then pick by length


def _pick_by_length(pool: dict[int, deque], n: int) -> list:
    """Take ``n`` items from ``pool`` (consumed in order) whose lemma
    lengths follow LENGTH_CYCLE."""
    return [pool[LENGTH_CYCLE[i % len(LENGTH_CYCLE)]].popleft() for i in range(n)]


def _pool(items, lemma_of) -> dict[int, deque]:
    pool: dict[int, deque] = defaultdict(deque)
    for item in items:
        pool[len(lemma_of(item))].append(item)
    return pool


def make_inputs(wl: Workload, seed: int, root: Path, out: Path) -> Inputs:
    """Generate the workload's TSVs and config under ``out``."""
    for path in (str(root / "src"), str(root / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import datagen
    from wugbench import corpus

    rng = np.random.default_rng(seed)
    if wl.lang == "en":
        examples = datagen.make_english(POOL_FACTOR * sum(wl.sizes), rng, irregular_rate=0.25)
        make_wugs = datagen.make_english_wugs
    else:
        examples = datagen.make_german(POOL_FACTOR * sum(wl.sizes), rng)
        make_wugs = datagen.make_german_wugs
    pool = _pool(examples, lambda ex: ex.lemma)
    parts = {name: _pick_by_length(pool, n)
             for name, n in zip(("train", "dev", "test"), wl.sizes)}
    generated = make_wugs(POOL_FACTOR * wl.wug_items, rng, avoid={ex.lemma for ex in examples})
    # German items have up to five candidates; keep those with all five
    full = max(len(item.candidates) for item in generated.items)
    items = [item for item in generated.items if len(item.candidates) == full]
    wugs = corpus.WugSet(generated.lang, generated.scale, tuple(
        _pick_by_length(_pool(items, lambda item: item.lemma), wl.wug_items)))

    out.mkdir(parents=True, exist_ok=True)
    config = {"out_dir": str(out / "run"), "wugs": str(out / "wugs.tsv"),
              "architectures": list(wl.architectures), "seeds": list(wl.unit_seeds),
              "epochs": wl.epochs, "batch_size": wl.batch_size}
    if wl.model_overrides:
        config["model_overrides"] = wl.model_overrides
    for name, part in parts.items():
        corpus.write_dataset(out / f"{name}.tsv", wl.lang, part)
        config[name] = str(out / f"{name}.tsv")
    corpus.write_wugs(out / "wugs.tsv", wugs)
    (out / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    sizes = {name: len(part) for name, part in parts.items()}
    sizes["wug_items"] = len(wugs.items)
    return Inputs(out / "config.json", out / "wugs.tsv",
                  [ex.cls for ex in parts["test"]], sizes)


@dataclass
class Command:
    name: str
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    cpu_s: float
    invol_switches: int


def run_command(root: Path, command: str, config: Path, out_dir: Path, trace_dir: Path,
                full_trace: bool, timeout: float) -> Command:
    """Run one ``wugbench`` command in its own process group; the
    resource counters are those of every process it started, all of which
    have ended when it returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["WUGBENCH_THREADS"] = "1"  # serial, the default
    argv = [sys.executable, str(BENCH_DIR / "shim.py"), str(trace_dir),
            "full" if full_trace else "stages", command,
            "--config", str(config), "--out", str(out_dir)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nkilled after {timeout:.0f} s"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Command(command, wall, proc.returncode, stdout, stderr, cpu,
                   after.ru_nivcsw - before.ru_nivcsw)
