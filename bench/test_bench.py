"""Tests of the benchmark itself, at tiny model dimensions.

    python3 -m pytest -q bench

Every workload's path runs once and passes every output check; each
check is then shown to fail on a deliberately corrupted output.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[1]
TINY = {"default": {"emb_dim": 8, "hidden_dim": 8, "attn_dim": 8, "d_model": 8,
                    "ffn_dim": 16, "heads": 2, "enc_blocks": 1, "dec_blocks": 1}}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], model_overrides=TINY)


def run_tiny_round(name: str, tmp: Path, traced: bool = False, keep_checkpoints: bool = False):
    wl = tiny(name)
    inputs = make_inputs(wl, 3, ROOT, tmp / "inputs")
    wugs = checks.read_wug_tsv(inputs.wugs)
    rnd = run.run_round(wl, inputs, wugs, ROOT, tmp / "round", traced, wl.units[-1],
                        time.monotonic() + 120, keep_checkpoints=keep_checkpoints)
    return wl, inputs, wugs, rnd


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_passes_every_check(name, tmp_path):
    wl, _, _, rnd = run_tiny_round(name, tmp_path)
    assert [c.returncode for c in rnd.commands] == [0] * len(wl.commands)
    assert rnd.problems == [] and rnd.failed == set()
    assert rnd.checkpoint_bytes > 0
    stages = {s["name"] for s in rnd.spans}
    assert {"train_unit", "eval_test", "score_wugs"} <= stages
    metrics = run.end_to_end(wl, [0.1], [rnd])
    assert all(value > 0 for value, _ in metrics.values()), metrics


def test_traced_round_reports_every_layer(tmp_path):
    wl, _, _, rnd = run_tiny_round("pipeline-en", tmp_path, traced=True)
    assert rnd.problems == []
    m = run.layer_metrics(rnd)
    for arch in wl.architectures:
        for name in ("runner.train_unit_s", "seq2seq.loss_calls", "seq2seq.step_calls",
                     "seq2seq.rows_per_step", "ndiff.backward_s", "ndiff.optim_s",
                     "decode.greedy_s", "decode.beam_s", "decode.force_s"):
            assert m[f"{name}.{arch}"][0] > 0, (name, arch)
    for name in ("runner.load_data.calls", "runner.write_s", "runner.pool.cpu_s",
                 "ndiff.checkpoint.save_s", "decode.beam_calls", "decode.beam.steps_per_search",
                 "decode.force_calls", "wugeval_s", "corpus_s"):
        assert m[name][0] > 0, name
    assert m["trace.wall_s"][0] == rnd.wall_s


def test_traced_staged_round_times_checkpoint_loads(tmp_path):
    wl, _, _, rnd = run_tiny_round("staged-de", tmp_path, traced=True)
    m = run.layer_metrics(rnd)
    assert m["ndiff.checkpoint.load_calls"][0] >= len(wl.units)
    assert m["ndiff.checkpoint.load_s"][0] > 0


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """Outputs of one passing tiny pipeline-en round, checkpoints kept."""
    tmp = tmp_path_factory.mktemp("finished")
    wl, inputs, wugs, rnd = run_tiny_round("pipeline-en", tmp, keep_checkpoints=True)
    assert rnd.problems == []
    return wl, inputs, wugs, tmp / "round" / "run"


def corrupt(src: Path, dst: Path, name: str, edit) -> Path:
    """Copy a run directory and apply ``edit`` to the rows of one CSV file."""
    shutil.copytree(src, dst)
    with open(dst / name, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    edit(rows)
    with open(dst / name, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return dst


def test_perturbed_rating_fails(finished, tmp_path):
    wl, _, wugs, out = finished

    def edit(rows):
        rows[0]["normalized_prob"] = repr(float(rows[0]["normalized_prob"]) * 1.001)
    bad = corrupt(out, tmp_path / "run", "ratings.csv", edit)
    problems = checks.check_ratings(bad, wl.units, wugs)
    assert [p.unit for p in problems] == [checks._unit_of(_first(bad, "ratings.csv")["seed"])]


def test_perturbed_logprob_fails_the_reloaded_model(finished, tmp_path):
    wl, _, wugs, out = finished
    unit = wl.units[0]
    first = sorted(wugs)[0]

    def edit(rows):
        for row in rows:
            if checks._unit_of(row["seed"]) == unit and (row["lemma"], row["form"]) == first:
                row["raw_logprob"] = repr(float(row["raw_logprob"]) + 1e-6)
    bad = corrupt(out, tmp_path / "run", "ratings.csv", edit)
    assert checks.check_checkpoint(out, unit, wugs, 4, None) == []
    problems = checks.check_checkpoint(bad, unit, wugs, 4, None)
    assert len(problems) == 1 and "reloaded loss" in problems[0].message
    assert checks.check_checkpoint(out, unit, wugs, 4, 1)[0].message.startswith("checkpoint holds")


def test_swapped_correlation_fails(finished, tmp_path):
    wl, _, wugs, out = finished

    def edit(rows):
        rows[0]["spearman_rho"], rows[0]["pearson_r"] = rows[0]["pearson_r"], rows[0]["spearman_rho"]
    bad = corrupt(out, tmp_path / "run", "correlations.csv", edit)
    arch = _first(bad, "correlations.csv")["model"]
    problems = checks.check_correlations(bad, wl.units, wugs, wl.lang)
    assert problems and {p.unit[0] for p in problems} == {arch}


def test_flat_loss_curve_fails(finished, tmp_path):
    wl, _, _, out = finished

    def edit(rows):
        first = rows[0]
        for row in rows:
            if (row["model"], row["seed"]) == (first["model"], first["seed"]):
                row["train_loss"] = first["train_loss"]
    bad = corrupt(out, tmp_path / "run", "training_curves.csv", edit)
    problems = checks.check_curves(bad, wl.units, wl.epochs)
    assert len(problems) == 1 and "did not fall" in problems[0].message


def test_wrong_overall_accuracy_fails(finished, tmp_path):
    wl, inputs, _, out = finished

    def edit(rows):
        rows[0]["accuracy"] = "50.0"
    bad = corrupt(out, tmp_path / "run", "accuracy.csv", edit)
    assert len(checks.check_accuracy(bad, wl.units, inputs.test_classes)) == 1


def test_unnormalized_production_fails(finished, tmp_path):
    wl, _, wugs, out = finished

    def edit(rows):
        rows[0]["probability"] = repr(float(rows[0]["probability"]) + 0.5)
    bad = corrupt(out, tmp_path / "run", "productions.csv", edit)
    assert len(checks.check_productions(bad, wl.units, wugs)) == 1


def test_wrong_data_sizes_fail(finished, tmp_path):
    wl, inputs, _, out = finished
    assert checks.check_summary(out, wl.units, inputs.sizes, staged=False) == []
    sizes = dict(inputs.sizes, test=inputs.sizes["test"] + 1)
    assert checks.check_summary(out, wl.units, sizes, staged=False)[0].unit is None


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline-en",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout


def _first(run_dir: Path, name: str) -> dict:
    with open(run_dir / name, encoding="utf-8", newline="") as fh:
        return next(csv.DictReader(fh))


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    wl = WORKLOADS["pipeline-en"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(wl, [1.0], [_FakeRound()]))
    per_layer = run.layer_metrics(_FakeRound())
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in spec["per_layer"])


class _FakeRound:
    commands = []
    spans = []
    checkpoint_bytes = 1
    wall_s = 1.0
    cpu_s = 1.0
