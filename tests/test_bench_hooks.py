"""The benchmark's hooks still name live runner functions.

``bench/tracer.py`` wraps runner functions by name and skips a name it
cannot find, so a rename would make the benchmark read 0 s for a stage
instead of failing.  These tests fail instead.
"""

import dis
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import datagen
from wugbench import corpus as cp
from wugbench import runner
from wugbench.ndiff import Adam
from wugbench.seq2seq import LSTMSeq2Seq, TransformerSeq2Seq

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked_names(tracer) -> list[str]:
    return [*tracer.STAGES, *tracer.RUNNER_LAYERS]


def _global_loads(module) -> set[str]:
    """Names the module's functions and methods load as globals."""
    codes = [obj.__code__ for obj in vars(module).values()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__]
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            codes += [f.__code__ for f in vars(cls).values() if inspect.isfunction(f)]
    names: set[str] = set()
    while codes:
        code = codes.pop()
        names |= {ins.argval for ins in dis.get_instructions(code)
                  if ins.opname == "LOAD_GLOBAL"}
        codes += [c for c in code.co_consts if inspect.iscode(c)]
    return names


def test_hooked_names_are_runner_callables(tracer):
    for name in _hooked_names(tracer):
        assert callable(getattr(runner, name, None)), name


def test_stage_arch_argument_index(tracer):
    for name, index in tracer.STAGES.items():
        params = list(inspect.signature(getattr(runner, name)).parameters)
        assert params[index] == "arch", (name, params)


def test_runner_calls_hooked_names_through_globals(tracer):
    loads = _global_loads(runner)
    for name in _hooked_names(tracer):
        assert name in loads, name


def _undo_on_teardown(monkeypatch, tracer):
    """Register everything ``install(..., full=True)`` may wrap with
    monkeypatch, so the wrappers are undone after the test."""
    targets = [(runner, name) for name in _hooked_names(tracer)]
    targets += [(cp, name) for name in tracer.CORPUS_LAYERS]
    targets += [(Adam, "step")]
    targets += [(cls, attr) for cls in (LSTMSeq2Seq, TransformerSeq2Seq)
                for attr in ("loss", "batch_loss", "decode_step_batch")]
    for owner, attr in targets:
        if hasattr(owner, attr):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))


def _tiny_run(tmp_path, architectures):
    rng = np.random.default_rng(5)
    examples = datagen.make_english(30, rng, irregular_rate=0.25)
    wugs = datagen.make_english_wugs(2, rng, avoid={ex.lemma for ex in examples})
    cp.write_dataset(tmp_path / "en.tsv", "en", examples)
    cp.write_wugs(tmp_path / "wugs.tsv", wugs)
    config = runner.ExperimentConfig(
        out_dir=str(tmp_path / "run"), dataset=str(tmp_path / "en.tsv"),
        wugs=str(tmp_path / "wugs.tsv"), architectures=architectures,
        seeds=(1,), epochs=1, batch_size=8, beam_width=2,
        model_overrides={"default": {"emb_dim": 8, "hidden_dim": 6, "attn_dim": 6,
                                     "enc_layers": 1, "d_model": 8, "ffn_dim": 16,
                                     "heads": 2, "enc_blocks": 1, "dec_blocks": 1}})
    runner.run_experiment(config)


def test_stage_spans_record_each_unit(tracer, tmp_path, monkeypatch):
    _undo_on_teardown(monkeypatch, tracer)
    spans = tracer.install(tmp_path / "trace", full=False).spans
    _tiny_run(tmp_path, ("unilstm_noattn",))
    assert sorted((s["name"], s["arch"]) for s in spans) == [
        ("eval_test", "unilstm_noattn"), ("score_wugs", "unilstm_noattn"),
        ("train_unit", "unilstm_noattn")]


def test_full_trace_records_loss_and_force_spans(tracer, tmp_path, monkeypatch):
    # the per-layer loss, decoding and forced-scoring metrics read these
    # spans; a renamed model method or runner name would leave them silently
    # empty, and a beam result without .finished would crash the tracer
    _undo_on_teardown(monkeypatch, tracer)
    spans = tracer.install(tmp_path / "trace", full=True).spans
    architectures = ("unilstm_attn", "transformer")
    _tiny_run(tmp_path, architectures)
    recorded = {(s["name"], s["arch"]) for s in spans}
    for arch in architectures:
        for name in ("seq2seq.loss", "decode.greedy", "decode.beam", "decode.force"):
            assert (name, arch) in recorded, (name, arch)
    assert all("unfinished" in s for s in spans if s["name"] == "decode.beam")
    # width-2 beams step both hypotheses of an LSTM in one call
    counts = [s["steps"]["unilstm_attn"] for s in spans
              if "unilstm_attn" in s.get("steps", {})]
    calls, rows = (sum(column) for column in zip(*counts))
    assert rows > calls, (calls, rows)
