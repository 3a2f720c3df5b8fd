"""Spans around the calls into each wugbench layer, recorded from outside.

``install(trace_dir, full)`` replaces functions and methods of the
program with timing wrappers.  The runner imports names directly, so its
names are patched on ``wugbench.runner``; model methods are patched on
their classes; corpus functions on ``wugbench.corpus``, which the runner
reaches through its module.

A span is a dict with name, start, end, parent (id of the enclosing span),
arch (inherited from the enclosing span where the call itself has none)
and a few counts.  Spans stay in memory; the command-line shim writes them
to ``<trace_dir>/spans-<pid>.json`` when the command ends.  Units run in
process-pool workers (``WUGBENCH_THREADS`` > 1) are not traced.

Without ``full`` only the three stage functions of a unit are wrapped
(train, test evaluation, wug scoring), which costs a few clock reads per
unit; the benchmark's untraced runs use that for their stage times.
The model's decode steps are hot, so they are counted on the enclosing
span instead of getting spans of their own.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

STAGES = {"train_unit": 2, "eval_test": 3, "score_wugs": 3}  # name -> index of the arch argument

RUNNER_LAYERS = {
    "load_data": "runner.load_data",
    "write_csv": "runner.write",
    "_write_summary": "runner.write",
    "save_checkpoint": "ndiff.checkpoint.save",
    "load_checkpoint": "ndiff.checkpoint.load",
    "backward": "ndiff.backward",
    "clip_global_norm": "ndiff.optim",
    "greedy_decode": "decode.greedy",
    "beam_search": "decode.beam",
    "force_score": "decode.force",
    "spearman": "wugeval",
    "pearson": "wugeval",
    "accuracy_correlation_grid": "wugeval",
    "accuracy_by_class": "wugeval",
    "exact_match_accuracy": "wugeval",
    "f1_by_class": "wugeval",
    "production_probabilities": "wugeval",
    "model_rating": "wugeval",
}

CORPUS_LAYERS = ("parse_dataset", "parse_wugs", "split_dataset", "build_alphabet",
                 "write_dataset", "classify_german_suffix")


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.in_step = False

    def open(self, name: str, arch: str | None) -> dict:
        parent = self.stack[-1] if self.stack else None
        if arch is None and parent is not None:
            arch = parent["arch"]
        span = {"id": len(self.spans), "name": name, "arch": arch,
                "parent": parent["id"] if parent else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def write(self) -> None:
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _arch_of_model(args) -> str | None:
    return getattr(getattr(args[0], "config", None), "arch", None)


def _arch_of_checkpoint(args) -> str | None:
    # checkpoint files are named <arch>-seed<k>.<ext>
    return Path(args[0]).name.rsplit("-seed", 1)[0] if args else None


def _span_wrapper(tracer: Tracer, fn, name: str, arch_of=None, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # a layer calling into itself (transformer loss -> batch_loss) is one span
        if tracer.stack and tracer.stack[-1]["name"] == name:
            return fn(*args, **kwargs)
        span = tracer.open(name, arch_of(args) if arch_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_result is not None:
            on_result(span, result)
        return result
    return wrapper


def _step_counter(tracer: Tracer, fn, batched: bool):
    """Counts model decode steps, and the hypotheses they advance, on the
    innermost open span.  A one-row step delegating to the batched one
    counts once."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.in_step:
            return fn(*args, **kwargs)
        target = tracer.stack[-1] if tracer.stack else None
        if target is not None:
            counts = target.setdefault("steps", {})
            arch = _arch_of_model(args)
            calls, rows = counts.get(arch, (0, 0))
            counts[arch] = (calls + 1, rows + (len(args[1]) if batched else 1))
        tracer.in_step = True
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.in_step = False
    return wrapper


def _beam_result(span: dict, hyps) -> None:
    span["unfinished"] = bool(hyps) and not hyps[0].finished


def _patch(owner, attr: str, make) -> None:
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, make(fn))


def install(trace_dir: Path, full: bool) -> Tracer:
    """Wrap the program's layer entry points; returns the tracer whose
    ``write`` the caller runs when the process ends."""
    from wugbench import corpus, runner
    from wugbench.ndiff import Adam
    from wugbench.seq2seq import LSTMSeq2Seq, TransformerSeq2Seq

    tracer = Tracer(trace_dir)
    for name, arch_index in STAGES.items():
        _patch(runner, name, lambda fn, name=name, i=arch_index: _span_wrapper(
            tracer, fn, name, arch_of=lambda args: args[i] if len(args) > i else None))
    if not full:
        return tracer

    for attr, name in RUNNER_LAYERS.items():
        on_result = _beam_result if name == "decode.beam" else None
        arch_of = _arch_of_checkpoint if name.startswith("ndiff.checkpoint") else None
        _patch(runner, attr, lambda fn, name=name, arch_of=arch_of, on_result=on_result:
               _span_wrapper(tracer, fn, name, arch_of=arch_of, on_result=on_result))
    for attr in CORPUS_LAYERS:
        _patch(corpus, attr, lambda fn: _span_wrapper(tracer, fn, "corpus"))
    _patch(Adam, "step", lambda fn: _span_wrapper(tracer, fn, "ndiff.optim"))
    for cls in (LSTMSeq2Seq, TransformerSeq2Seq):
        for attr in ("loss", "batch_loss"):
            _patch(cls, attr, lambda fn: _span_wrapper(
                tracer, fn, "seq2seq.loss", arch_of=_arch_of_model))
        _patch(cls, "decode_step", lambda fn: _step_counter(tracer, fn, batched=False))
        _patch(cls, "decode_step_batch", lambda fn: _step_counter(tracer, fn, batched=True))
    return tracer


def read_spans(trace_dir: Path) -> list[dict]:
    """Every span written under ``trace_dir``, by all of a round's commands."""
    return [span for path in sorted(trace_dir.glob("spans-*.json"))
            for span in json.loads(path.read_text(encoding="utf-8"))]
