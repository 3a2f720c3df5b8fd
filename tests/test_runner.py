"""End-to-end runner behavior on small synthetic corpora.

These tests favor tiny model dims and short schedules; learning quality
is covered separately by the learnability test, which uses a config the
models can actually master in seconds.
"""

import dataclasses
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import datagen
from test_ndiff import _whole_array_adam
from wugbench import corpus as cp
from wugbench import ndiff as nd
from wugbench.runner import (
    ACCURACY_HEADER,
    CORRELATIONS_HEADER,
    CURVES_HEADER,
    F1_HEADER,
    PRODUCTIONS_HEADER,
    RATINGS_HEADER,
    UNITS_HEADER,
    DataBundle,
    ExperimentConfig,
    RunnerError,
    build_grid,
    compute_correlations,
    eval_test,
    load_data,
    read_csv_rows,
    run_eval,
    run_experiment,
    run_report,
    run_split,
    run_train,
    run_wug,
    score_wugs,
    train_unit,
    unit_identity,
    write_csv,
)
from wugbench.seq2seq import ARCHITECTURES, ModelConfig, build_model

TINY_DIMS = {"emb_dim": 8, "hidden_dim": 6, "attn_dim": 6, "enc_layers": 2,
             "d_model": 8, "ffn_dim": 16, "heads": 2, "enc_blocks": 1,
             "dec_blocks": 1, "dropout": 0.1}


def _write_corpora(root: Path):
    rng = np.random.default_rng(42)
    en = datagen.make_english(60, rng, irregular_rate=0.25)
    en_stems = {ex.lemma for ex in en}
    en_wugs = datagen.make_english_wugs(6, rng, avoid=en_stems)
    cp.write_dataset(root / "en.tsv", "en", en)
    cp.write_wugs(root / "en_wugs.tsv", en_wugs)

    de = datagen.make_german(50, rng)
    de_stems = {ex.lemma for ex in de}
    de_wugs = datagen.make_german_wugs(4, rng, avoid=de_stems)
    cp.write_dataset(root / "de.tsv", "de", de)
    cp.write_wugs(root / "de_wugs.tsv", de_wugs)


def _en_config(root: Path, out: Path, **overrides) -> ExperimentConfig:
    base = dict(
        out_dir=str(out),
        dataset=str(root / "en.tsv"),
        wugs=str(root / "en_wugs.tsv"),
        architectures=("bilstm_attn", "transformer"),
        seeds=(1,),
        epochs=2,
        batch_size=8,
        beam_width=3,
        model_overrides={"default": TINY_DIMS},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    _write_corpora(root)
    return root


@pytest.fixture(scope="module")
def en_run(corpora, tmp_path_factory):
    out = tmp_path_factory.mktemp("en_run")
    config = _en_config(corpora, out)
    summary = run_experiment(config)
    return config, out, summary


@pytest.fixture(scope="module")
def de_run(corpora, tmp_path_factory):
    out = tmp_path_factory.mktemp("de_run")
    config = ExperimentConfig(
        out_dir=str(out),
        dataset=str(corpora / "de.tsv"),
        wugs=str(corpora / "de_wugs.tsv"),
        architectures=("unilstm_noattn",),
        seeds=(1, 2),
        epochs=2,
        batch_size=8,
        beam_width=2,
        sample_productions=3,
        model_overrides={"default": TINY_DIMS},
    )
    summary = run_experiment(config)
    return config, out, summary


# ---------------------------------------------------------------------------
# configuration


def test_config_requires_data():
    with pytest.raises(RunnerError, match="dataset"):
        ExperimentConfig(out_dir="x")
    with pytest.raises(RunnerError, match="not both"):
        ExperimentConfig(out_dir="x", dataset="d.tsv", train="t.tsv",
                         dev="d2.tsv", test="t2.tsv")
    ExperimentConfig(out_dir="x", train="a", dev="b", test="c")  # fine


def test_config_rejects_nonsense():
    with pytest.raises(RunnerError, match="architectures"):
        ExperimentConfig(out_dir="x", dataset="d", architectures=("gru",))
    with pytest.raises(RunnerError, match="seed"):
        ExperimentConfig(out_dir="x", dataset="d", seeds=())
    with pytest.raises(RunnerError):
        ExperimentConfig(out_dir="x", dataset="d", epochs=0)
    with pytest.raises(RunnerError, match="model_overrides"):
        ExperimentConfig(out_dir="x", dataset="d", model_overrides={"rnn": {}})


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(RunnerError, match="unknown config keys"):
        ExperimentConfig.from_dict({"out_dir": "x", "dataset": "d", "leraning_rate": 1})


@pytest.mark.parametrize("blob", [[1], 5, None, "x"])
def test_config_from_dict_rejects_a_non_object(blob):
    with pytest.raises(RunnerError, match="config must be a JSON object"):
        ExperimentConfig.from_dict(blob)


@pytest.mark.parametrize("key,value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0), ("lr", -0.001), ("lr", "0.1"),
    ("clip_norm", float("nan")), ("clip_norm", float("inf")), ("clip_norm", 0.0),
    ("clip_norm", -5.0), ("sample_productions", -1),
    ("epochs", 2.5), ("epochs", True), ("batch_size", "8"), ("beam_width", 3.0),
    ("split_seed", 0.5), ("sample_productions", 1.5), ("seeds", [1, 2.5]), ("seeds", [True]),
    ("lr", True), ("clip_norm", True),
    ("seeds", 5), ("split_ratios", 0.8), ("split_ratios", ["0.8", "0.1", "0.1"]),
    ("split_ratios", [0.5, 0.5]), ("split_ratios", [0.6, 0.5, 0.1]),
    ("seeds", [1, 1]), ("seeds", [3, 1, 3]),
    ("architectures", ["unilstm_noattn", "transformer", "unilstm_noattn"]),
    ("architectures", []), ("out_dir", 5), ("out_dir", ""), ("dataset", ["a"]),
    ("train", 5), ("dev", 1.5), ("test", {"path": "t"}), ("wugs", 3),
])
def test_config_from_dict_rejects_bad_training_values(key, value):
    with pytest.raises(RunnerError, match=key):
        ExperimentConfig.from_dict({"out_dir": "x", "dataset": "d", key: value})


@pytest.mark.parametrize("overrides", [
    {"default": {"hidden_dims": 8}}, {"default": {"arch": "transformer"}},
    {"bilstm_attn": {"vocab_size": 10}}, {"default": 8}, [],
    {"transformer": {"heads": 3, "d_model": 8}}, {"default": {"dropout": 1.5}},
    {"transformer": {"heads": 0}}, {"default": {"hidden_dim": -1}}, {"default": {"emb_dim": 2.5}},
    {"default": {"hidden_dim": True}}, {"transformer": {"heads": True}},
])
def test_config_from_dict_rejects_bad_model_overrides(overrides):
    with pytest.raises(RunnerError, match="model_overrides"):
        ExperimentConfig.from_dict({"out_dir": "x", "dataset": "d",
                                    "model_overrides": overrides})


def test_config_file_roundtrip(tmp_path):
    config = ExperimentConfig(out_dir="out", dataset="d.tsv", seeds=(1, 2),
                              model_overrides={"default": {"emb_dim": 16}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    back = ExperimentConfig.from_file(path)
    assert back == config
    assert back.hash() == config.hash()
    assert back.hash() != ExperimentConfig(out_dir="out", dataset="e.tsv").hash()


def test_config_from_file_errors(tmp_path):
    with pytest.raises(RunnerError, match="cannot read"):
        ExperimentConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(RunnerError, match="cannot read"):
        ExperimentConfig.from_file(bad)


def test_model_config_override_merging():
    config = ExperimentConfig(
        out_dir="x", dataset="d",
        model_overrides={"default": {"hidden_dim": 12, "dropout": 0.0},
                         "transformer": {"d_model": 16}},
    )
    lstm_cfg = config.model_config("bilstm_attn", vocab_size=30)
    assert lstm_cfg.hidden_dim == 12
    assert lstm_cfg.dropout == 0.0
    tf_cfg = config.model_config("transformer", vocab_size=30)
    assert tf_cfg.d_model == 16
    assert tf_cfg.dropout == 0.0  # default overrides apply everywhere


# ---------------------------------------------------------------------------
# data loading


def test_load_data_splits_and_covers_wugs(corpora):
    config = _en_config(corpora, Path("unused"))
    bundle = load_data(config)
    assert bundle.lang == "en"
    assert len(bundle.train) + len(bundle.dev) + len(bundle.test) == 60
    assert len(bundle.train) == 48
    # wug stems must be encodable even though they never occur in training
    for item in bundle.wugs.items:
        bundle.alphabet.encode_source(("PST",), item.lemma)


def test_load_data_rejects_language_mismatch(corpora, tmp_path):
    config = ExperimentConfig(
        out_dir=str(tmp_path), dataset=str(corpora / "en.tsv"),
        wugs=str(corpora / "de_wugs.tsv"))
    with pytest.raises(RunnerError, match="language"):
        load_data(config)


def test_load_data_explicit_splits_must_agree(corpora, tmp_path):
    config = ExperimentConfig(
        out_dir=str(tmp_path), train=str(corpora / "en.tsv"),
        dev=str(corpora / "en.tsv"), test=str(corpora / "de.tsv"))
    with pytest.raises(RunnerError, match="disagree"):
        load_data(config)


# ---------------------------------------------------------------------------
# training one unit


def test_train_unit_restores_best_checkpoint(corpora, tmp_path):
    config = _en_config(corpora, tmp_path, architectures=("bilstm_attn",),
                        epochs=3)
    bundle = load_data(config)
    outcome, model = train_unit(config, bundle, "bilstm_attn", seed=1)
    assert not outcome.diagnostic
    assert len(outcome.curve_rows) == 3
    accs = [row["dev_accuracy"] for row in outcome.curve_rows]
    # first epoch hitting the maximum wins ties
    assert outcome.best_epoch == accs.index(max(accs)) + 1
    assert outcome.best_dev_accuracy == max(accs)
    # the returned model really is the best-epoch snapshot
    from wugbench.runner import _greedy_accuracy
    assert _greedy_accuracy(model, bundle) == pytest.approx(
        outcome.best_dev_accuracy)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_train_unit_step_is_the_mean_gradient_update(corpora, tmp_path, arch):
    # one unclipped step of 16 examples: the one optimizer pass gives the
    # parameters of dividing the summed gradients by 16 and then updating
    # each whole array
    config = _en_config(corpora, tmp_path, architectures=(arch,), epochs=1, batch_size=16,
                        clip_norm=10.0)
    bundle = load_data(config)
    bundle = dataclasses.replace(bundle, train=bundle.train[:16])
    _, trained = train_unit(config, bundle, arch, seed=1)

    model = build_model(config.model_config(arch, len(bundle.alphabet)),
                        nd.seeded_rng(1, nd.INIT_STREAM))
    encoded = [(bundle.alphabet.encode_source(ex.tags, ex.lemma),
                bundle.alphabet.encode_target(ex.form)) for ex in bundle.train]
    order = nd.seeded_rng(1, nd.SHUFFLE_STREAM).permutation(16)
    nd.backward(model.batch_loss([encoded[i] for i in order],
                                 rng=nd.seeded_rng(1, nd.DROPOUT_STREAM), train=True))
    means = {k: p.grad / 16 for k, p in model.params.items()}
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in means.values()))
    assert norm < config.clip_norm
    got_norm, factor = nd.clip_global_norm(model.params, config.clip_norm, 16)
    assert got_norm == pytest.approx(norm, rel=1e-12) and factor == 1 / 16
    for k, p in model.params.items():
        x = p.data.copy()
        _whole_array_adam(x, means[k], np.zeros_like(x), np.zeros_like(x), 1, lr=config.lr)
        assert np.array_equal(trained.params[k].data, x), k


def test_units_read_the_ids_the_bundle_derived(corpora, tmp_path, monkeypatch):
    # the bundle derives every id once; training, test decoding, wug
    # scoring and the checkpoint identity read them and encode nothing
    from wugbench.runner import _eval_unit, _train_and_save, _wug_unit
    config = _en_config(corpora, tmp_path, architectures=("unilstm_attn",), epochs=1,
                        sample_productions=2)
    bundle = load_data(config)
    bundle.pairs, bundle.wug_pairs, bundle.wug_sources, bundle.digest  # derived before the stubs

    def refuse(*args):
        raise AssertionError("encoded outside the bundle")
    monkeypatch.setattr(cp.Alphabet, "encode_source", refuse)
    monkeypatch.setattr(cp.Alphabet, "encode_target", refuse)
    outcome, model = train_unit(config, bundle, "unilstm_attn", 1)
    assert not outcome.diagnostic
    acc_rows, _ = eval_test(model, bundle, config.beam_width, "unilstm_attn", 1)
    rating_rows, _ = score_wugs(model, bundle, config, "unilstm_attn", 1)
    # the same unit through its checkpoint gives the same rows
    assert not _train_and_save(config, bundle, "unilstm_attn", 1).diagnostic
    assert _eval_unit(config, bundle, "unilstm_attn", 1)[0] == acc_rows
    assert _wug_unit(config, bundle, "unilstm_attn", 1)[1] == rating_rows


def test_train_unit_reports_divergence(corpora, tmp_path):
    config = _en_config(corpora, tmp_path, architectures=("unilstm_noattn",),
                        lr=1e308, epochs=2)
    bundle = load_data(config)
    with np.errstate(all="ignore"):  # the overflow is the point
        outcome, model = train_unit(config, bundle, "unilstm_noattn", seed=1)
    assert outcome.diagnostic
    assert model is None
    assert "non-finite" in outcome.diagnostic


def test_run_experiment_survives_divergence(corpora, tmp_path):
    config = _en_config(corpora, tmp_path, architectures=("unilstm_noattn",),
                        lr=1e308, epochs=2)
    with np.errstate(all="ignore"):
        summary = run_experiment(config)
    diverged = summary["models"]["unilstm_noattn"]["diverged"]
    assert "1" in diverged
    rows = read_csv_rows(tmp_path / "accuracy.csv")
    assert rows == []  # header only: the diverged unit contributed nothing


def test_diverged_retrain_removes_stale_checkpoint(corpora, tmp_path):
    config = _en_config(corpora, tmp_path, architectures=("unilstm_noattn",), epochs=1)
    run_train(config)
    assert (tmp_path / "checkpoints" / "unilstm_noattn-seed1.npz").exists()
    with np.errstate(all="ignore"):
        run_train(_en_config(corpora, tmp_path, architectures=("unilstm_noattn",),
                             epochs=1, lr=1e308))
    assert not (tmp_path / "checkpoints" / "unilstm_noattn-seed1.npz").exists()
    run_eval(config)
    assert read_csv_rows(tmp_path / "accuracy.csv") == []


def test_run_without_wugs_clears_earlier_wug_files(corpora, tmp_path):
    config = _en_config(corpora, tmp_path, architectures=("unilstm_noattn",), epochs=1)
    summary = run_experiment(config)
    assert summary["models"]["unilstm_noattn"]["rating_correlations"]
    summary = run_experiment(_en_config(corpora, tmp_path, architectures=("unilstm_noattn",),
                                        epochs=1, wugs=None))
    for name in ("ratings.csv", "correlations.csv", "productions.csv"):
        assert not (tmp_path / name).exists(), name
    assert all(entry["rating_correlations"] == {} for entry in summary["models"].values())


def test_retrain_clears_outputs_of_replaced_checkpoints(corpora, tmp_path):
    config = _en_config(corpora, tmp_path, architectures=("bilstm_attn", "unilstm_noattn"),
                        seeds=(1, 2), epochs=1)
    run_train(config)
    run_eval(config)
    assert read_csv_rows(tmp_path / "accuracy.csv")
    run_train(_en_config(corpora, tmp_path, architectures=("bilstm_attn",),
                         seeds=(1, 2), epochs=3))
    for name in ("accuracy.csv", "f1.csv", "ratings.csv", "correlations.csv",
                 "productions.csv", "summary.json"):
        assert not (tmp_path / name).exists(), name
    summary = run_report(config)
    assert summary["test_accuracy"] == {}
    assert summary["models"]["bilstm_attn"]["test_accuracy"] == {}
    assert set(summary["models"]) == {"bilstm_attn"}


def test_staged_report_records_divergence(corpora, tmp_path, capsys):
    config = _en_config(corpora, tmp_path, architectures=("unilstm_noattn",),
                        lr=1e308, epochs=2)
    with np.errstate(all="ignore"):
        run_train(config)
    out = capsys.readouterr().out
    assert out.startswith("diverged: unilstm_noattn seed 1: non-finite")
    summary = run_report(config)
    diverged = summary["models"]["unilstm_noattn"]["diverged"]
    assert diverged == {"1": out[len("diverged: "):].rstrip("\n")}
    assert summary["models"]["unilstm_noattn"]["best_epochs"] == {}


def test_train_does_no_decoding(corpora, tmp_path, monkeypatch):
    import wugbench.runner as runner

    def refuse(*args, **kwargs):
        raise AssertionError("train must stop after the checkpoint")

    monkeypatch.setattr(runner, "eval_test", refuse)
    monkeypatch.setattr(runner, "score_wugs", refuse)
    config = _en_config(corpora, tmp_path, architectures=("unilstm_attn",), epochs=1)
    run_train(config)
    assert (tmp_path / "checkpoints" / "unilstm_attn-seed1.npz").exists()
    (unit,) = read_csv_rows(tmp_path / "units.csv")
    assert unit["model"] == "unilstm_attn" and unit["best_epoch"] == "1"


# ---------------------------------------------------------------------------
# full experiment outputs


def test_report_files_and_headers(en_run):
    _, out, _ = en_run
    for name, header in [
        ("training_curves.csv", CURVES_HEADER),
        ("units.csv", UNITS_HEADER),
        ("accuracy.csv", ACCURACY_HEADER),
        ("f1.csv", F1_HEADER),
        ("ratings.csv", RATINGS_HEADER),
        ("productions.csv", PRODUCTIONS_HEADER),
        ("correlations.csv", CORRELATIONS_HEADER),
    ]:
        path = out / name
        assert path.exists(), name
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == ",".join(header), name


def test_curve_rows_complete_and_ordered(en_run):
    config, out, _ = en_run
    rows = read_csv_rows(out / "training_curves.csv")
    assert len(rows) == len(config.architectures) * len(config.seeds) * config.epochs
    assert [r["model"] for r in rows] == sorted(
        [r["model"] for r in rows],
        key=lambda a: ("bilstm_attn", "bilstm_noattn", "unilstm_attn",
                       "unilstm_noattn", "transformer").index(a))
    for row in rows:
        float(row["train_loss"])
        float(row["dev_accuracy"])


def test_accuracy_rows_have_all_and_classes(en_run):
    _, out, _ = en_run
    rows = read_csv_rows(out / "accuracy.csv")
    by_model = {}
    for row in rows:
        by_model.setdefault(row["model"], []).append(row["class"])
    for model, classes in by_model.items():
        assert classes[0] == "all"
        assert "regular" in classes
    assert set(by_model) == {"bilstm_attn", "transformer"}


def test_english_run_has_no_f1_rows(en_run):
    _, out, _ = en_run
    assert read_csv_rows(out / "f1.csv") == []


def test_german_run_emits_f1(de_run):
    _, out, _ = de_run
    rows = read_csv_rows(out / "f1.csv")
    classes = {row["class"] for row in rows}
    assert classes == set(cp.GERMAN_CLASSES) | {cp.OTHER_CLASS}
    # NaN F1 (class absent from this tiny test split) serializes as empty
    for row in rows:
        assert row["f1"] == "" or 0.0 <= float(row["f1"]) <= 100.0


def test_ratings_cover_every_candidate_and_seed(en_run):
    config, out, _ = en_run
    rows = read_csv_rows(out / "ratings.csv")
    wugs = cp.parse_wugs(config.wugs)
    n_candidates = sum(len(item.candidates) for item in wugs.items)
    assert len(rows) == n_candidates * 2  # two architectures, one seed each
    assert {row["seed"] for row in rows} == {"bilstm_attn-seed1", "transformer-seed1"}
    for row in rows:
        p = float(row["normalized_prob"])
        assert 0.0 <= p <= 1.0
        assert float(row["raw_logprob"]) <= 0.0


def test_production_rows_are_per_item_distributions(de_run):
    config, out, _ = de_run
    rows = read_csv_rows(out / "productions.csv")
    wugs = cp.parse_wugs(config.wugs)
    report = cp.GERMAN_CLASSES + (cp.OTHER_CLASS,)
    assert len(rows) == len(wugs.items) * len(report)
    by_lemma = {}
    for row in rows:
        by_lemma.setdefault(row["lemma"], 0.0)
        by_lemma[row["lemma"]] += float(row["probability"])
    # every class is listed, so per-item masses sum to 1 exactly
    for lemma, total in by_lemma.items():
        assert total == pytest.approx(1.0)


def test_correlation_rows_grouped(en_run):
    _, out, _ = en_run
    rows = read_csv_rows(out / "correlations.csv")
    groups = {(row["model"], row["group"]) for row in rows}
    for arch in ("bilstm_attn", "transformer"):
        assert (arch, "all") in groups
        assert (arch, "regular") in groups
        assert (arch, "irregular") in groups
    for row in rows:
        if row["spearman_rho"] != "":
            assert -1.0 <= float(row["spearman_rho"]) <= 1.0


def test_summary_contents(en_run):
    config, out, summary = en_run
    on_disk = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert on_disk["config_hash"] == config.hash()
    assert on_disk["language"] == "en"
    assert on_disk["data_sizes"] == {"train": 48, "dev": 6, "test": 6,
                                     "wug_items": 6}
    for arch in ("bilstm_attn", "transformer"):
        entry = on_disk["models"][arch]
        assert entry["param_count"] > 0
        assert entry["seeds"] == [1]
        assert "all" in entry["test_accuracy"]
        assert "all" in entry["rating_correlations"]
        # the per-model block and the lang/model block read the same CSV rows
        assert on_disk["test_accuracy"][f"en/{arch}"] == entry["test_accuracy"]
    assert on_disk["merged_dirs"] == [str(out)]
    assert "grid" in on_disk
    assert summary["config_hash"] == on_disk["config_hash"]


def test_summary_json_is_nan_free(de_run):
    _, out, _ = de_run
    text = (out / "summary.json").read_text(encoding="utf-8")
    assert "NaN" not in text
    json.loads(text)  # strict parse


def test_checkpoints_written_with_meta(en_run):
    config, out, _ = en_run
    from wugbench.ndiff import load_checkpoint
    path = out / "checkpoints" / "bilstm_attn-seed1.npz"
    assert path.exists()
    arrays, meta = load_checkpoint(path)
    assert meta["arch"] == "bilstm_attn"
    assert meta["config_hash"] == config.hash()
    assert meta["model_config"]["hidden_dim"] == TINY_DIMS["hidden_dim"]
    assert sum(a.size for a in arrays.values()) == meta["param_count"]
    # the fields the benchmark's checkpoint check rebuilds the model from
    bundle = load_data(config)
    mcfg = config.model_config("bilstm_attn", len(bundle.alphabet))
    assert ModelConfig(**meta["model_config"]) == mcfg
    assert meta["alphabet"] == list(bundle.alphabet.symbols)
    units = {row["model"]: int(row["param_count"]) for row in read_csv_rows(out / "units.csv")}
    assert meta["param_count"] == units["bilstm_attn"]
    identity = unit_identity(bundle, mcfg, 1)
    assert {k: meta[k] for k in identity} == identity


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("sample_productions", [0, 3])
def test_rerun_is_byte_identical(corpora, tmp_path, sample_productions):
    out = tmp_path / "run"
    config = _en_config(corpora, out, architectures=("unilstm_attn",), epochs=2,
                        sample_productions=sample_productions)
    run_experiment(config)
    names = ["training_curves.csv", "accuracy.csv", "ratings.csv",
             "correlations.csv", "productions.csv", "summary.json"]
    first = {n: (out / n).read_bytes() for n in names}
    run_experiment(config)
    for n in names:
        assert (out / n).read_bytes() == first[n], n


def test_parallel_run_matches_serial(corpora, tmp_path, monkeypatch):
    out = tmp_path / "run"
    config = _en_config(
        corpora, out, architectures=("unilstm_attn", "unilstm_noattn"),
        seeds=(1, 2), epochs=1)
    run_experiment(config)
    names = ["training_curves.csv", "accuracy.csv", "ratings.csv", "summary.json"]
    serial = {n: (out / n).read_bytes() for n in names}
    monkeypatch.setenv("WUGBENCH_THREADS", "2")
    run_experiment(config)
    for n in names:
        assert (out / n).read_bytes() == serial[n], n


REPORT_CSVS = ("training_curves.csv", "units.csv", "accuracy.csv", "f1.csv",
               "ratings.csv", "correlations.csv", "productions.csv")
# the class row order README's "Output files" documents, written out rather
# than read from the code under test
CLASS_ORDER = {"en": ("all", "regular", "irregular", "other"),
               "de": ("all", "(e)n", "e", "zero", "er", "s", "other")}


def _report_key(name: str, row: dict, lang: str) -> tuple:
    """The report order of a CSV row: architecture, then seed, then what
    orders the rows within one unit or architecture."""
    from wugbench.runner import _arch_rank

    order = CLASS_ORDER[lang]
    if name == "ratings.csv":
        arch, seed = row["seed"].rsplit("-seed", 1)
        return (_arch_rank(arch), int(seed), row["lemma"], row["form"])
    head = (_arch_rank(row["model"]),)
    if name == "correlations.csv":
        return head + (order.index(row["group"]),)
    if name == "productions.csv":
        return head + (row["lemma"], order.index(row["class"]))
    head += (int(row["seed"]),)
    if name == "training_curves.csv":
        return head + (int(row["epoch"]),)
    if name in ("accuracy.csv", "f1.csv"):
        return head + (order.index(row["class"]),)
    return head


@pytest.mark.parametrize("lang", ["en", "de"])
def test_unit_order_of_the_config_does_not_reach_the_reports(corpora, tmp_path, lang):
    # two configs that list the same units in opposite orders leave the same
    # bytes, with every CSV's rows in report order
    extra = {} if lang == "en" else dict(
        dataset=str(corpora / "de.tsv"), wugs=str(corpora / "de_wugs.tsv"),
        sample_productions=3)
    outs = {}
    for order, archs, seeds in (("canonical", ("bilstm_attn", "transformer"), (1, 2)),
                                ("reversed", ("transformer", "bilstm_attn"), (2, 1))):
        out = outs[order] = tmp_path / order
        run_experiment(_en_config(corpora, out, architectures=archs, seeds=seeds, **extra))
    for name in REPORT_CSVS:
        assert (outs["reversed"] / name).read_bytes() == \
            (outs["canonical"] / name).read_bytes(), name
        rows = read_csv_rows(outs["reversed"] / name)
        assert rows or (lang, name) == ("en", "f1.csv"), name
        keys = [_report_key(name, row, lang) for row in rows]
        assert all(a < b for a, b in zip(keys, keys[1:])), name
    if lang == "de":
        # no gold test form is 'other', yet its F1 is defined: some prediction
        # is classed 'other', and the key check above found its row last in
        # each unit
        accuracy = read_csv_rows(outs["reversed"] / "accuracy.csv")
        assert cp.OTHER_CLASS not in {row["class"] for row in accuracy}
        f1 = read_csv_rows(outs["reversed"] / "f1.csv")
        assert any(row["class"] == cp.OTHER_CLASS and row["f1"] != "" for row in f1)


def test_worker_count_validation(monkeypatch):
    monkeypatch.setenv("WUGBENCH_THREADS", "lots")
    from wugbench.runner import _worker_count
    with pytest.raises(RunnerError, match="WUGBENCH_THREADS"):
        _worker_count()


# ---------------------------------------------------------------------------
# staged pipeline


def test_staged_pipeline_matches_run(corpora, tmp_path):
    out = tmp_path / "run"
    config = _en_config(corpora, out, architectures=("bilstm_noattn", "unilstm_attn"),
                        seeds=(1, 2), epochs=2)

    run_train(config)
    assert (out / "checkpoints" / "bilstm_noattn-seed1.npz").exists()
    run_eval(config)
    run_wug(config)
    report = run_report(config)
    assert "en/bilstm_noattn" in report["test_accuracy"]
    names = ["training_curves.csv", "units.csv", "accuracy.csv", "f1.csv",
             "ratings.csv", "correlations.csv", "productions.csv", "summary.json"]
    staged = {n: (out / n).read_bytes() for n in names}

    # the one-shot pipeline writes the same files byte for byte
    summary = run_experiment(config)
    for n in names:
        assert (out / n).read_bytes() == staged[n], n
    assert summary == report


def test_eval_rejects_mismatched_data(corpora, tmp_path, de_run):
    de_config, de_out, _ = de_run
    # point a config at the de checkpoints but the en dataset
    config = _en_config(corpora, de_out, architectures=("unilstm_noattn",))
    with pytest.raises(RunnerError, match="alphabet"):
        run_eval(config)


def test_eval_rejects_checkpoint_of_another_unit(corpora, tmp_path, de_run):
    de_config, de_out, _ = de_run
    (tmp_path / "checkpoints").mkdir()
    (tmp_path / "checkpoints" / "unilstm_noattn-seed3.npz").write_bytes(
        (de_out / "checkpoints" / "unilstm_noattn-seed1.npz").read_bytes())
    config = ExperimentConfig.from_dict(
        {**de_config.to_dict(), "out_dir": str(tmp_path), "seeds": [3]})
    with pytest.raises(RunnerError, match=r"\['seed'\]"):
        run_eval(config)


def test_eval_without_checkpoints(corpora, tmp_path):
    config = _en_config(corpora, tmp_path / "fresh")
    with pytest.raises(RunnerError, match="checkpoints"):
        run_eval(config)


def test_run_split_writes_parts(corpora, tmp_path):
    out = tmp_path / "splits"
    config = ExperimentConfig(out_dir=str(out), dataset=str(corpora / "en.tsv"))
    run_split(config)
    total = 0
    for name in ("train", "dev", "test"):
        lang, examples = cp.parse_dataset(out / f"{name}.tsv")
        assert lang == "en"
        total += len(examples)
    assert total == 60


def test_report_merges_languages(en_run, de_run, tmp_path):
    en_config, en_out, _ = en_run
    _, de_out, _ = de_run
    report_config = ExperimentConfig(
        out_dir=str(en_out), dataset=en_config.dataset)
    summary = run_report(report_config, merge_dirs=[str(de_out)])
    assert "en/bilstm_attn" in summary["test_accuracy"]
    assert "de/unilstm_noattn" in summary["test_accuracy"]
    assert "de/unilstm_noattn" in summary["test_f1"]
    grid = summary["grid"]
    assert isinstance(grid["pooled"]["n"], int)


def test_report_refuses_a_unit_in_two_directories(corpora, tmp_path):
    # per-seed accuracies 40 and 60 have sd 14.14; merged with itself, or
    # with a copy of its second seed, the duplicated seeds would give 11.55
    config = _en_config(corpora, tmp_path / "run", architectures=("unilstm_noattn",),
                        seeds=(1, 2))
    rows = [{"lang": "en", "model": "unilstm_noattn", "seed": seed, "class": "all",
             "accuracy": acc} for seed, acc in ((1, 40.0), (2, 60.0))]
    write_csv(tmp_path / "run" / "accuracy.csv", ACCURACY_HEADER, rows)
    summary = run_report(config)
    assert summary["test_accuracy"]["en/unilstm_noattn"]["all"]["sd"] == pytest.approx(14.142,
                                                                                      abs=1e-3)
    write_csv(tmp_path / "copy" / "accuracy.csv", ACCURACY_HEADER, rows[1:])
    for merge, units in (("run", r"\['en/unilstm_noattn/seed1', 'en/unilstm_noattn/seed2'\]"),
                         ("copy", r"\['en/unilstm_noattn/seed2'\]")):
        with pytest.raises(RunnerError, match=units):
            run_report(config, [str(tmp_path / merge)])


def test_report_refuses_a_merge_directory_without_rows(corpora, tmp_path):
    # a missing or misspelled directory, or one with only correlations,
    # would be listed in merged_dirs and contribute no unit
    config = _en_config(corpora, tmp_path / "run", architectures=("unilstm_noattn",),
                        seeds=(1,))
    write_csv(tmp_path / "run" / "accuracy.csv", ACCURACY_HEADER,
              [{"lang": "en", "model": "unilstm_noattn", "seed": 1, "class": "all",
                "accuracy": 40.0}])
    write_csv(tmp_path / "header-only" / "accuracy.csv", ACCURACY_HEADER, [])
    for merge in ("nonexistent", "header-only"):
        with pytest.raises(RunnerError, match=re.escape(repr([str(tmp_path / merge)]))):
            run_report(config, [str(tmp_path / merge)])
    assert not (tmp_path / "run" / "summary.json").exists()
    # out_dir itself may hold no rows while a merged directory does
    (tmp_path / "empty").mkdir()
    empty_run = _en_config(corpora, tmp_path / "empty", architectures=("unilstm_noattn",),
                           seeds=(1,))
    assert run_report(empty_run, [str(tmp_path / "run")])["models"] == {}


# ---------------------------------------------------------------------------
# emission helpers


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [
        {"a": "x", "b": 1.5, "c": 3},
        {"a": "", "b": float("nan"), "c": None},
    ])
    text = path.read_text(encoding="utf-8")
    assert text == "a,b,c\nx,1.5,3\n,,\n"
    rows = read_csv_rows(path)
    assert rows[1] == {"a": "", "b": "", "c": ""}


def test_failed_csv_write_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("v",), [{"v": 1}, {"v": 2}])

    def rows():
        yield {"v": 3}
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space"):
        write_csv(path, ("v",), rows())
    assert path.read_text(encoding="utf-8") == "v\n1\n2\n"
    assert list(tmp_path.iterdir()) == [path]


def test_float_formatting_is_shortest_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    value = 1.0 / 3.0
    write_csv(path, ("v",), [{"v": value}])
    cell = read_csv_rows(path)[0]["v"]
    assert float(cell) == value
    assert cell == repr(value)


def test_build_grid_from_csv_strings():
    accuracy_rows = [
        {"lang": "en", "model": "m", "seed": "1", "class": "regular", "accuracy": "90.0"},
        {"lang": "en", "model": "m", "seed": "1", "class": "irregular", "accuracy": ""},
        {"lang": "en", "model": "m", "seed": "1", "class": "all", "accuracy": "88.0"},
    ]
    correlation_rows = [
        {"lang": "en", "model": "m", "group": "regular", "n": "4",
         "spearman_rho": "0.4", "spearman_p": "0.6", "pearson_r": "0.5",
         "pearson_p": "0.5"},
        {"lang": "en", "model": "m", "group": "all", "n": "8",
         "spearman_rho": "0.2", "spearman_p": "0.8", "pearson_r": "0.1",
         "pearson_p": "0.9"},
    ]
    grid = build_grid(accuracy_rows, [], correlation_rows)
    assert grid["cells"] == {
        "m/regular": {"performance": 90.0, "human_fit": 0.5}}
    assert "m/irregular" in grid["missing"]


@pytest.mark.parametrize("undefined", [float("nan"), ""])
def test_build_grid_skips_undefined_performance_per_seed(undefined):
    f1_rows = [
        {"lang": "de", "model": "m", "seed": 1, "class": "s", "f1": undefined},
        {"lang": "de", "model": "m", "seed": 2, "class": "s", "f1": 50.0},
        {"lang": "de", "model": "m", "seed": 1, "class": "e", "f1": 80.0},
    ]
    correlation_rows = [
        {"lang": "de", "model": "m", "group": g, "n": 4, "spearman_rho": 0.1,
         "spearman_p": 0.9, "pearson_r": r, "pearson_p": 0.5}
        for g, r in (("s", 0.3), ("e", float("nan")))
    ]
    grid = build_grid([], f1_rows, correlation_rows)
    assert grid["cells"] == {"m/s": {"performance": 50.0, "human_fit": 0.3}}
    assert "m/s" not in grid["missing"]
    assert "m/e" in grid["missing"]  # an undefined human fit also leaves a gap


def test_build_grid_averages_merged_correlation_rows():
    # two merged runs of one model: performance and human fit both average
    accuracy_rows = [
        {"lang": "en", "model": "m", "seed": seed, "class": "regular", "accuracy": acc}
        for seed, acc in ((1, 40.0), (2, 60.0))
    ]
    correlation_rows = [
        {"lang": "en", "model": "m", "group": "regular", "n": 4, "spearman_rho": 0.1,
         "spearman_p": 0.9, "pearson_r": r, "pearson_p": 0.5}
        for r in (0.1, 0.9, float("nan"))
    ]
    grid = build_grid(accuracy_rows, [], correlation_rows)
    assert grid["cells"] == {"m/regular": {"performance": 50.0, "human_fit": 0.5}}


def test_compute_correlations_tracks_direction(corpora):
    # ratings proportional to human ratings give Spearman rho 1 per group
    wugs = cp.parse_wugs(corpora / "en_wugs.tsv")
    rows = []
    for item in wugs.items:
        for cand in item.candidates:
            rows.append({"lemma": item.lemma, "form": cand.form,
                         "seed": "bilstm_attn-seed1",
                         "normalized_prob": cand.rating / 10.0})
    out = compute_correlations("en", {"bilstm_attn": rows}, wugs)
    by_group = {row["group"]: row for row in out}
    assert by_group["all"]["spearman_rho"] == pytest.approx(1.0)
    assert by_group["all"]["n"] == sum(len(i.candidates) for i in wugs.items)
    assert by_group["regular"]["pearson_r"] == pytest.approx(1.0)

    # keep the irregular candidate of the first item only: that group's one
    # point has no correlation, while 'regular' keeps all of its points
    first = wugs.items[0].lemma
    sparse = cp.WugSet(wugs.lang, wugs.scale, tuple(
        cp.WugItem(item.lemma, tuple(c for c in item.candidates
                                     if c.cls == "regular" or item.lemma == first))
        for item in wugs.items))
    by_group = {row["group"]: row for row in compute_correlations(
        "en", {"bilstm_attn": rows}, sparse)}
    assert [row["group"] for row in by_group.values()] == ["all", "regular", "irregular"]
    assert by_group["irregular"]["n"] == 1
    assert math.isnan(by_group["irregular"]["spearman_rho"])
    assert math.isnan(by_group["irregular"]["pearson_r"])
    assert by_group["regular"]["n"] == len(wugs.items)
    assert by_group["regular"]["spearman_rho"] == pytest.approx(1.0)


def test_planted_human_ratings_correlate_perfectly(en_run, tmp_path):
    # human ratings planted as an increasing linear map of bilstm_attn's
    # seed-mean normalized probability: the join of ratings rows to
    # candidates and the statistics must give rho = r = 1 in every group
    config, out, _ = en_run
    shutil.copytree(out / "checkpoints", tmp_path / "checkpoints")
    shutil.copy(out / "units.csv", tmp_path / "units.csv")
    probs: dict[tuple[str, str], list[float]] = {}
    for row in read_csv_rows(out / "ratings.csv"):
        if row["seed"].startswith("bilstm_attn-"):
            probs.setdefault((row["lemma"], row["form"]), []).append(
                float(row["normalized_prob"]))
    mean = {key: float(np.mean(values)) for key, values in probs.items()}
    low, high = min(mean.values()), max(mean.values())
    assert low < high
    lo, hi = cp.parse_wugs(config.wugs).scale
    lines = Path(config.wugs).read_text(encoding="utf-8").splitlines()
    planted = lines[:1]
    for line in lines[1:]:
        parts = line.split("\t")
        parts[2] = repr(lo + (hi - lo) * (mean[(parts[0], parts[1])] - low) / (high - low))
        planted.append("\t".join(parts))
    (tmp_path / "planted.tsv").write_text("\n".join(planted) + "\n", encoding="utf-8")

    run_wug(dataclasses.replace(config, out_dir=str(tmp_path),
                                wugs=str(tmp_path / "planted.tsv")))
    assert (tmp_path / "ratings.csv").read_bytes() == (out / "ratings.csv").read_bytes()
    rows = [row for row in read_csv_rows(tmp_path / "correlations.csv")
            if row["model"] == "bilstm_attn" and int(row["n"]) >= 2]
    assert {row["group"] for row in rows} == {"all", *cp.ENGLISH_CLASSES}
    for row in rows:
        assert abs(float(row["spearman_rho"]) - 1) <= 1e-12, row
        assert abs(float(row["pearson_r"]) - 1) <= 1e-12, row


# ---------------------------------------------------------------------------
# learnability: the default-shape models can master an easy rule quickly


@pytest.mark.slow
def test_regular_rule_is_learnable(tmp_path):
    # enough unseen-stem variety that memorizing beats nothing: the model
    # has to pick up copy-then-suffix to score on dev at all
    rng = np.random.default_rng(7)
    examples = []
    stems = set()
    while len(examples) < 300:
        stem = datagen._stem(rng, 1, 2)
        if len(stem) > 5 or stem in stems:
            continue
        stems.add(stem)
        examples.append(cp.InflectionExample(stem, stem + "ed", ("PST",), "regular"))
    cp.write_dataset(tmp_path / "easy.tsv", "en", examples)
    config = ExperimentConfig(
        out_dir=str(tmp_path / "out"),
        dataset=str(tmp_path / "easy.tsv"),
        architectures=("bilstm_attn",),
        seeds=(1,),
        epochs=12,
        batch_size=8,
        lr=3e-3,
        model_overrides={"default": {"emb_dim": 32, "hidden_dim": 64,
                                     "attn_dim": 32, "enc_layers": 1,
                                     "dropout": 0.0}},
    )
    bundle = load_data(config)
    outcome, model = train_unit(config, bundle, "bilstm_attn", seed=1)
    assert not outcome.diagnostic
    assert outcome.best_dev_accuracy >= 75.0
    first_loss = outcome.curve_rows[0]["train_loss"]
    last_loss = outcome.curve_rows[-1]["train_loss"]
    assert last_loss < first_loss / 4


# floors on the mean regular accuracy of seeds 1 and 2, each 10 points
# below the lowest mean of any two of seeds 1-5 trained this way, since a
# change to training shifts the trajectories as another seed would
ENGLISH_FLOORS = {"bilstm_attn": 50.0, "bilstm_noattn": 9.0, "unilstm_attn": 57.0,
                  "unilstm_noattn": 6.0, "transformer": 63.0}


@pytest.mark.slow
def test_english_training_quality_gate(tmp_path):
    # the paper's comparison on synthetic data at small dimensions: every
    # architecture learns the regular rule, and attention helps both LSTMs
    # by at least criterion 5's 8 points.  Regular test words are 34, so one
    # word moves a seed's accuracy by 2.9 points
    cp.write_dataset(tmp_path / "en.tsv", "en", datagen.make_english(400, np.random.default_rng(3)))
    small = {"emb_dim": 32, "hidden_dim": 64, "attn_dim": 32, "enc_layers": 1, "dropout": 0.0}
    config = ExperimentConfig(
        out_dir=str(tmp_path / "out"), dataset=str(tmp_path / "en.tsv"), seeds=(1, 2),
        epochs=35, batch_size=16, lr=3e-3, beam_width=4,
        model_overrides={"default": small, "transformer": {
            "d_model": 64, "ffn_dim": 128, "heads": 2, "enc_blocks": 2, "dec_blocks": 2,
            "dropout": 0.0}})
    summary = run_experiment(config)
    regular = {arch: summary["models"][arch]["test_accuracy"]["regular"]["mean"]
               for arch in ARCHITECTURES}
    assert all(regular[arch] >= floor for arch, floor in ENGLISH_FLOORS.items()), regular
    assert regular["bilstm_attn"] - regular["bilstm_noattn"] >= 8.0, regular
    assert regular["unilstm_attn"] - regular["unilstm_noattn"] >= 8.0, regular
