"""Command-line behavior: exit codes, overrides, staged pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import datagen
import wugbench
from wugbench import corpus as cp
from wugbench.cli import _parse_seeds, build_parser, main
from wugbench.ndiff import Tensor, load_checkpoint, save_checkpoint
from wugbench.runner import ACCURACY_HEADER, CORRELATIONS_HEADER, read_csv_rows, write_csv

TINY_DIMS = {"emb_dim": 8, "hidden_dim": 6, "attn_dim": 6, "enc_layers": 1,
             "dropout": 0.0}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(3)
    examples = datagen.make_english(40, rng, irregular_rate=0.2)
    wugs = datagen.make_english_wugs(3, rng, avoid={ex.lemma for ex in examples})
    cp.write_dataset(root / "en.tsv", "en", examples)
    cp.write_wugs(root / "wugs.tsv", wugs)
    config = {
        "out_dir": str(root / "run"),
        "dataset": str(root / "en.tsv"),
        "wugs": str(root / "wugs.tsv"),
        "architectures": ["unilstm_attn"],
        "seeds": [1],
        "epochs": 2,
        "batch_size": 8,
        "beam_width": 2,
        "model_overrides": {"default": TINY_DIMS},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return root, config_path


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_seeds_count_and_list():
    assert _parse_seeds("5") == [1, 2, 3, 4, 5]
    assert _parse_seeds("2,4,9") == [2, 4, 9]
    assert _parse_seeds("1") == [1]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_seeds("three")


def test_usage_errors_exit_two(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as info:
        parser.parse_args([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        parser.parse_args(["train"])  # --config is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        parser.parse_args(["frobnicate", "--config", "x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        parser.parse_args(["train", "--config", "x", "--arch", "rnn"])
    assert info.value.code == 2
    capsys.readouterr()


def test_runtime_errors_exit_one(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 1
    capsys.readouterr()

    # a top level that is not an object is refused, before any flag applies
    for blob in ("[1]", "5", "null", '"x"'):
        bad.write_text(blob, encoding="utf-8")
        for flags in ([], ["--arch", "unilstm_noattn"]):
            assert main(["train", "--config", str(bad), *flags]) == 1
            err = capsys.readouterr().err
            assert err == f"error: config must be a JSON object, got {json.loads(blob)!r}\n"

    missing_data = tmp_path / "missing.json"
    missing_data.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"), "dataset": str(tmp_path / "no.tsv"),
    }), encoding="utf-8")
    assert main(["train", "--config", str(missing_data)]) == 1
    assert "error:" in capsys.readouterr().err

    # a misspelled model field is refused at load, before any unit starts
    cp.write_dataset(tmp_path / "en.tsv", "en",
                     datagen.make_english(20, np.random.default_rng(4)))
    misspelled = tmp_path / "misspelled.json"
    misspelled.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"), "dataset": str(tmp_path / "en.tsv"),
        "architectures": ["unilstm_noattn"], "seeds": [1], "epochs": 1,
        "model_overrides": {"default": {"hidden_dims": 8}},
    }), encoding="utf-8")
    assert main(["train", "--config", str(misspelled)]) == 1
    assert "error:" in capsys.readouterr().err

    # a fractional epoch count is refused at load, not by a TypeError in training
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"), "dataset": str(tmp_path / "en.tsv"),
        "architectures": ["unilstm_noattn"], "seeds": [1], "epochs": 2.5,
    }), encoding="utf-8")
    assert main(["train", "--config", str(fractional)]) == 1
    assert "error: epochs takes integers" in capsys.readouterr().err

    # a zero override reaches config validation instead of falling back to the file's value
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"), "dataset": str(tmp_path / "en.tsv"),
        "architectures": ["unilstm_noattn"], "seeds": [1], "epochs": 1,
    }), encoding="utf-8")
    for flag, key in (("--epochs", "epochs"), ("--beam-width", "beam_width")):
        assert main(["train", "--config", str(good), flag, "0"]) == 1
        assert f"error: {key} takes integers >= 1, got 0" in capsys.readouterr().err
    assert main(["train", "--config", str(good), "--seeds", "0"]) == 1
    assert "error: at least one seed is required" in capsys.readouterr().err
    assert main(["train", "--config", str(good), "--seeds", "1,1"]) == 1
    assert "error: seeds lists [1] more than once" in capsys.readouterr().err
    # malformed path fields and an empty architecture list are refused at
    # load, not by a TypeError or by training nothing
    blob = json.loads(good.read_text(encoding="utf-8"))
    for key, value in (("out_dir", 5), ("dataset", ["a"]), ("architectures", [])):
        (tmp_path / "malformed.json").write_text(json.dumps({**blob, key: value}),
                                                 encoding="utf-8")
        assert main(["train", "--config", str(tmp_path / "malformed.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "Traceback" not in err
    # so is a wug file that repeats a candidate
    wugs = tmp_path / "wugs.tsv"
    wugs.write_text("# lang=en rating_scale=1,7\nspling\tsplinged\t4.1\tPST\tregular\n"
                    "spling\tsplinged\t2.0\tPST\tregular\n", encoding="utf-8")
    (tmp_path / "repeated.json").write_text(json.dumps({**blob, "wugs": str(wugs)}),
                                            encoding="utf-8")
    assert main(["train", "--config", str(tmp_path / "repeated.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {wugs}:3: repeated candidate")
    assert not (tmp_path / "out" / "checkpoints").exists()

    # so is a value the model refuses, even for an architecture that would
    # train after another unit
    bad_heads = tmp_path / "bad_heads.json"
    bad_heads.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"), "dataset": str(tmp_path / "en.tsv"),
        "architectures": ["unilstm_noattn", "transformer"], "seeds": [1], "epochs": 1,
        "model_overrides": {"transformer": {"heads": 3, "d_model": 8}},
    }), encoding="utf-8")
    assert main(["train", "--config", str(bad_heads)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoints").exists()

    # a split that leaves dev empty is refused before any unit trains
    empty_dev = tmp_path / "empty_dev.json"
    empty_dev.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"), "dataset": str(tmp_path / "en.tsv"),
        "architectures": ["unilstm_noattn"], "seeds": [1], "epochs": 1,
        "split_ratios": [0.9, 0.0, 0.1],
    }), encoding="utf-8")
    assert main(["train", "--config", str(empty_dev)]) == 1
    error = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(error) == 1 and "dev" in error[0]
    assert not (tmp_path / "out" / "checkpoints").exists()


# ---------------------------------------------------------------------------
# pipeline through the console entry point


def test_staged_pipeline(workspace, capsys):
    root, config_path = workspace
    run_dir = root / "run"

    assert main(["split", "--config", str(config_path),
                 "--out", str(root / "splits")]) == 0
    assert (root / "splits" / "train.tsv").exists()
    assert (root / "splits" / "dev.tsv").exists()
    assert (root / "splits" / "test.tsv").exists()

    assert main(["train", "--config", str(config_path)]) == 0
    assert (run_dir / "checkpoints" / "unilstm_attn-seed1.npz").exists()
    assert (run_dir / "training_curves.csv").exists()

    assert main(["eval", "--config", str(config_path)]) == 0
    rows = read_csv_rows(run_dir / "accuracy.csv")
    assert rows and rows[0]["class"] == "all"

    assert main(["wug", "--config", str(config_path)]) == 0
    assert (run_dir / "ratings.csv").exists()
    assert (run_dir / "correlations.csv").exists()
    assert (run_dir / "productions.csv").exists()

    assert main(["report", "--config", str(config_path)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    assert "en/unilstm_attn" in summary["test_accuracy"]
    capsys.readouterr()


def test_run_command_with_overrides(workspace, tmp_path, capsys):
    root, config_path = workspace
    out = tmp_path / "override_run"
    assert main(["run", "--config", str(config_path),
                 "--arch", "unilstm_noattn", "--seeds", "2",
                 "--epochs", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert list(summary["models"]) == ["unilstm_noattn"]
    assert summary["models"]["unilstm_noattn"]["seeds"] == [1, 2]
    assert summary["config"]["epochs"] == 1
    capsys.readouterr()


def test_eval_refuses_checkpoint_of_other_model_config(workspace, tmp_path, capsys):
    root, config_path = workspace
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["out_dir"] = str(tmp_path / "run")
    config["epochs"] = 1
    trained = tmp_path / "hidden8.json"
    config["model_overrides"] = {"default": {**TINY_DIMS, "hidden_dim": 8}}
    trained.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(trained)]) == 0
    other = tmp_path / "hidden10.json"
    config["model_overrides"] = {"default": {**TINY_DIMS, "hidden_dim": 10}}
    other.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(other)]) == 1
    assert "model_config.hidden_dim" in capsys.readouterr().err
    assert not (tmp_path / "run" / "accuracy.csv").exists()


def test_eval_refuses_checkpoint_whose_model_config_is_not_an_object(workspace, tmp_path,
                                                                     capsys):
    root, config_path = workspace
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(out_dir=str(tmp_path / "run"), epochs=1)
    trained = tmp_path / "config.json"
    trained.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(trained)]) == 0
    ckpt = tmp_path / "run" / "checkpoints" / "unilstm_attn-seed1.npz"
    arrays, meta = load_checkpoint(ckpt)
    save_checkpoint(ckpt, {name: Tensor(a) for name, a in arrays.items()},
                    {**meta, "model_config": ["x"]})
    capsys.readouterr()
    assert main(["eval", "--config", str(trained)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: checkpoint does not match")
    assert "'model_config'" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "accuracy.csv").exists()


@pytest.mark.parametrize("change", ["dataset", "split_seed"])
def test_eval_refuses_checkpoint_of_other_data(tmp_path, capsys, change):
    # the alphabet, the model config and the paths stay the same: only
    # the data key of the checkpoint's identity tells the two apart
    first = datagen.make_english(120, np.random.default_rng(3))
    cp.write_dataset(tmp_path / "en.tsv", "en", first)
    config = {"out_dir": str(tmp_path / "run"), "dataset": str(tmp_path / "en.tsv"),
              "architectures": ["unilstm_noattn"], "seeds": [1], "epochs": 1,
              "model_overrides": {"default": {"emb_dim": 8, "hidden_dim": 8, "attn_dim": 8}}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(config_path)]) == 0
    if change == "dataset":
        second = datagen.make_english(120, np.random.default_rng(4))
        assert cp.build_alphabet(second) == cp.build_alphabet(first)
        cp.write_dataset(tmp_path / "en.tsv", "en", second)
    else:
        config_path.write_text(json.dumps({**config, "split_seed": 1}), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    ckpt = tmp_path / "run" / "checkpoints" / "unilstm_noattn-seed1.npz"
    assert err == f"error: {ckpt}: checkpoint does not match the config and data in ['data']\n"
    assert not (tmp_path / "run" / "accuracy.csv").exists()


def test_eval_refuses_truncated_checkpoint(workspace, tmp_path, capsys):
    root, config_path = workspace
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(out_dir=str(tmp_path / "run"), epochs=1)
    trained = tmp_path / "config.json"
    trained.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(trained)]) == 0
    ckpt = tmp_path / "run" / "checkpoints" / "unilstm_attn-seed1.npz"
    ckpt.write_bytes(ckpt.read_bytes()[:-1])
    capsys.readouterr()
    assert main(["eval", "--config", str(trained)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err and "Traceback" not in err
    assert not (tmp_path / "run" / "accuracy.csv").exists()


def test_eval_refuses_untrained_unit(workspace, tmp_path, capsys):
    root, config_path = workspace
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(out_dir=str(tmp_path / "run"), epochs=1)
    trained = tmp_path / "config.json"
    trained.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(trained), "--seeds", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(trained), "--seeds", "1,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unilstm_attn-seed2" in err
    assert "unilstm_attn-seed1" not in err
    assert not (tmp_path / "run" / "accuracy.csv").exists()


def test_report_merge_flag(workspace, tmp_path, capsys):
    root, config_path = workspace
    # a directory holding another seed of the run's model merges; the run
    # dir merged with itself would count its seed twice and is refused
    other = tmp_path / "other"
    write_csv(other / "accuracy.csv", ACCURACY_HEADER,
              [{**row, "seed": 2} for row in read_csv_rows(root / "run" / "accuracy.csv")])
    assert main(["report", "--config", str(config_path), "--merge", str(other)]) == 0
    summary = json.loads((root / "run" / "summary.json").read_text(encoding="utf-8"))
    assert len(summary["merged_dirs"]) == 2
    capsys.readouterr()
    assert main(["report", "--config", str(config_path),
                 "--merge", str(root / "run")]) == 1
    assert capsys.readouterr().err == ("error: units in more than one merged directory: "
                                       "['en/unilstm_attn/seed1']\n")
    # a merge directory with no rows is named, not listed and skipped
    assert main(["report", "--config", str(config_path),
                 "--merge", str(tmp_path / "nonexistent")]) == 1
    assert capsys.readouterr().err == ("error: no units.csv or accuracy.csv rows under "
                                       f"{[str(tmp_path / 'nonexistent')]}\n")
    # a missing --out directory is made, as the CSV writers make theirs
    fresh = tmp_path / "fresh" / "report"
    assert main(["report", "--config", str(config_path), "--out", str(fresh),
                 "--merge", str(root / "run")]) == 0
    summary = json.loads((fresh / "summary.json").read_text(encoding="utf-8"))
    assert summary["merged_dirs"] == [str(fresh), str(root / "run")]
    assert summary["models"] == {} and "en/unilstm_attn" in summary["test_accuracy"]


@pytest.mark.parametrize("name, text, problem", [
    ("accuracy.csv", "lang,model,seed,class\nen,unilstm_attn,1,all\n",
     "the header lacks the columns ['accuracy']"),
    ("accuracy.csv", "lang,model,seed,class,accuracy\nen,unilstm_attn,1,all,50.0\n"
     "en,unilstm_attn,1,regular\n", "line 3 has fewer fields than the header"),
    ("units.csv", "lang,model,seed,param_count,best_epoch,best_dev_accuracy\n",
     "the header lacks the columns ['diagnostic']"),
    ("f1.csv", "lang,model,seed,class,f1\nen,unilstm_attn\n",
     "line 2 has fewer fields than the header"),
    ("correlations.csv", "", f"the header lacks the columns {list(CORRELATIONS_HEADER)}"),
], ids=["accuracy-column", "accuracy-row", "units-column", "f1-row", "correlations-empty"])
def test_report_refuses_malformed_input_csv(workspace, tmp_path, capsys, name, text, problem):
    root, config_path = workspace
    path = tmp_path / "other" / name
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--config", str(config_path), "--merge", str(path.parent)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {problem}\n"


def test_eval_refuses_malformed_units_csv(workspace, tmp_path, capsys):
    root, config_path = workspace
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(out_dir=str(tmp_path / "run"), epochs=1)
    trained = tmp_path / "config.json"
    trained.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(trained)]) == 0
    units = tmp_path / "run" / "units.csv"
    units.write_text("lang,model,seed\nen,unilstm_attn,1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(trained)]) == 1
    assert capsys.readouterr().err == (f"error: {units}: the header lacks the columns "
                                       "['param_count', 'best_epoch', 'best_dev_accuracy', "
                                       "'diagnostic']\n")


def test_cli_import_leaves_scipy_unloaded():
    # scipy loads only where a correlation's p-value is computed, so the
    # commands that compute none do not pay for importing it
    src_dir = str(Path(wugbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, wugbench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
