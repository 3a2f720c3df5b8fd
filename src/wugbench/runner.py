"""Experiment orchestration: train seeds, score them, emit reports.

A run is described by an ``ExperimentConfig`` (usually a JSON file).  For
every (architecture, seed) pair the runner trains a model with teacher
forcing and batched gradient accumulation, keeps the checkpoint with the
best greedy dev accuracy (ties go to the earlier epoch), then scores the
test set with beam search and the wug items with forced scoring.

The stages are ``run_train``, ``run_eval``, ``run_wug`` and ``run_report``;
``run_experiment`` runs them in order.  A stage maps one per-unit function
over the units, which ``_units`` lists in report order (architectures in
``ARCHITECTURES`` order, then seeds ascending) whatever order the config
gives, and writes the rows in the order they come back.  ``eval`` and
``wug`` rebuild every model from the checkpoint ``train`` wrote, and refuse
one whose ``unit_identity`` (data and model config included) differs.
``run_report`` alone builds summary.json, from the CSVs.

Everything emitted is byte-deterministic for a given config: row orders
are fixed, floats are written in shortest round-trip form, and nothing
derived from wall-clock time reaches a file.  Set WUGBENCH_THREADS to run
each stage's units in that many worker processes; outputs are identical
either way.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import corpus as cp
from .decode import beam_search, force_score, greedy_decode, sample_decode
from .ndiff import (
    Adam,
    DROPOUT_STREAM,
    INIT_STREAM,
    SAMPLE_STREAM,
    SHUFFLE_STREAM,
    backward,
    clip_global_norm,
    load_checkpoint,
    save_checkpoint,
    seeded_rng,
)
from .ndiff.checkpoint import atomic_write, move_into
from .seq2seq import ARCHITECTURES, ModelConfig, build_model, count_parameters
from .wugeval import (
    CorrelationResult,
    accuracy_by_class,
    accuracy_correlation_grid,
    exact_match_accuracy,
    f1_by_class,
    model_rating,
    pearson,
    production_probabilities,
    spearman,
)

# each language's classes in report order, the one source of class order
CLASSES = {"en": cp.ENGLISH_CLASSES, "de": cp.GERMAN_CLASSES}

CURVES_HEADER = ("lang", "model", "seed", "epoch", "train_loss", "dev_accuracy")
UNITS_HEADER = ("lang", "model", "seed", "param_count", "best_epoch", "best_dev_accuracy",
                "diagnostic")
ACCURACY_HEADER = ("lang", "model", "seed", "class", "accuracy")
F1_HEADER = ("lang", "model", "seed", "class", "f1")
RATINGS_HEADER = ("lemma", "form", "class", "context", "seed",
                  "normalized_prob", "raw_logprob")
PRODUCTIONS_HEADER = ("lang", "model", "lemma", "context", "class", "probability")
CORRELATIONS_HEADER = ("lang", "model", "group", "n", "spearman_rho", "spearman_p",
                       "pearson_r", "pearson_p")


class RunnerError(Exception):
    """Configuration or orchestration problem."""


def _require_object(blob) -> None:
    """Refuse a config whose top level is not a JSON object."""
    if not isinstance(blob, dict):
        raise RunnerError(f"config must be a JSON object, got {blob!r}")


def _is_number(value) -> bool:
    """A finite int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


class TrainingDiverged(Exception):
    """Loss or gradients went non-finite; carries a diagnostic string."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run's outputs.

    Data is given either as one ``dataset`` file (split here by
    ``split_ratios``/``split_seed``) or as explicit train/dev/test paths.
    ``model_overrides`` maps 'default' or an architecture name to
    ModelConfig field overrides, e.g. shrinking dims for smoke tests.
    """

    out_dir: str
    dataset: str | None = None
    train: str | None = None
    dev: str | None = None
    test: str | None = None
    wugs: str | None = None
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    split_seed: int = 0
    architectures: tuple[str, ...] = ARCHITECTURES
    seeds: tuple[int, ...] = tuple(range(1, 11))
    epochs: int = 50
    batch_size: int = 32
    beam_width: int = 12
    lr: float = 0.001
    clip_norm: float = 5.0
    sample_productions: int = 0
    model_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise RunnerError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        for name in ("dataset", "train", "dev", "test", "wugs"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise RunnerError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if self.dataset is None and not (self.train and self.dev and self.test):
            raise RunnerError("config needs either 'dataset' or all of train/dev/test")
        if self.dataset is not None and (self.train or self.dev or self.test):
            raise RunnerError("give 'dataset' or explicit splits, not both")
        unknown = set(self.architectures) - set(ARCHITECTURES)
        if unknown:
            raise RunnerError(f"unknown architectures: {sorted(unknown)}")
        if not self.architectures:
            raise RunnerError("architectures must name at least one architecture")
        if not self.seeds:
            raise RunnerError("at least one seed is required")
        for name, low in (("epochs", 1), ("batch_size", 1), ("beam_width", 1),
                          ("split_seed", 0), ("sample_productions", 0), ("seeds", 0)):
            value = getattr(self, name)
            if not all(isinstance(v, int) and not isinstance(v, bool) and v >= low
                       for v in (value if name == "seeds" else (value,))):
                raise RunnerError(f"{name} takes integers >= {low}, got {value!r}")
        for name in ("architectures", "seeds"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise RunnerError(f"{name} lists {repeated} more than once")
        for name, value in (("lr", self.lr), ("clip_norm", self.clip_norm)):
            if not (_is_number(value) and value > 0):
                raise RunnerError(f"{name} must be a finite number > 0, got {value!r}")
        ratios = self.split_ratios
        if not (isinstance(ratios, (list, tuple)) and len(ratios) == 3
                and all(_is_number(r) and r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
            raise RunnerError("split_ratios takes three finite numbers >= 0 that sum to 1, "
                              f"got {ratios!r}")
        if not isinstance(self.model_overrides, dict):
            raise RunnerError(f"model_overrides must be a mapping, got {self.model_overrides!r}")
        tunable = set(ModelConfig.__dataclass_fields__) - {"arch", "vocab_size"}
        for key, overrides in self.model_overrides.items():
            if key != "default" and key not in ARCHITECTURES:
                raise RunnerError(f"model_overrides key {key!r} is not an architecture")
            if not isinstance(overrides, dict) or not set(overrides) <= tunable:
                raise RunnerError(f"model_overrides[{key!r}] must map ModelConfig fields other "
                                  f"than arch and vocab_size to values, got {overrides!r}")
        for arch in self.architectures:
            try:
                self.model_config(arch, 4)
            except (TypeError, ValueError) as exc:
                raise RunnerError(f"model_overrides for {arch}: {exc}") from exc

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _require_object(d)
        d = dict(d)
        for key in ("split_ratios", "architectures", "seeds"):
            if key in d:
                if not isinstance(d[key], (list, tuple)):
                    raise RunnerError(f"{key} takes a list, got {d[key]!r}")
                d[key] = tuple(d[key])
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise RunnerError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise RunnerError(f"bad config: {exc}") from exc

    @classmethod
    def from_file(cls, path, overrides=None) -> "ExperimentConfig":
        """The config in a JSON file, with ``overrides`` (such as the
        command line's) replacing its top-level keys."""
        try:
            blob = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RunnerError(f"cannot read config {path}: {exc}") from exc
        _require_object(blob)
        return cls.from_dict({**blob, **(overrides or {})})

    def to_dict(self) -> dict:
        d = asdict(self)
        d["split_ratios"] = list(self.split_ratios)
        d["architectures"] = list(self.architectures)
        d["seeds"] = list(self.seeds)
        return d

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def model_config(self, arch: str, vocab_size: int) -> ModelConfig:
        overrides = dict(self.model_overrides.get("default", {}))
        overrides.update(self.model_overrides.get(arch, {}))
        return ModelConfig(arch=arch, vocab_size=vocab_size, **overrides)


def report_classes(lang: str) -> tuple[str, ...]:
    """The language's classes, then 'other': the order of a unit's class rows."""
    return CLASSES[lang] + (cp.OTHER_CLASS,)


# ---------------------------------------------------------------------------
# data loading


@dataclass(frozen=True)
class DataBundle:
    """A run's examples and the alphabet that encodes them.  The model
    input is derived here alone, once, on first use: each split's (source,
    target) ids in split order, each wug candidate's in file order, and
    each wug item's production source, from its candidates' one tag set."""

    lang: str
    train: tuple[cp.InflectionExample, ...]
    dev: tuple[cp.InflectionExample, ...]
    test: tuple[cp.InflectionExample, ...]
    wugs: cp.WugSet | None
    alphabet: cp.Alphabet

    def _pair(self, tags: Sequence[str], lemma: str, form: str) -> tuple[list[int], list[int]]:
        return self.alphabet.encode_source(tags, lemma), self.alphabet.encode_target(form)

    @cached_property
    def pairs(self) -> dict[str, list[tuple[list[int], list[int]]]]:
        return {name: [self._pair(ex.tags, ex.lemma, ex.form) for ex in getattr(self, name)]
                for name in ("train", "dev", "test")}

    @cached_property
    def wug_pairs(self) -> list[tuple[list[int], list[int]]]:
        return [self._pair(cand.tags, item.lemma, cand.form)
                for item in self.wugs.items for cand in item.candidates]

    @cached_property
    def wug_sources(self) -> list[list[int]]:
        return [self.alphabet.encode_source(item.candidates[0].tags, item.lemma)
                for item in self.wugs.items]

    @cached_property
    def digest(self) -> str:
        """sha256 of the encoded train, dev and test pairs, in split order."""
        canon = json.dumps(list(self.pairs.values()), separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _split(config: ExperimentConfig):
    """(lang, train, dev, test) of the config's one dataset, split by class;
    refuses a split that leaves a part empty."""
    lang, examples = cp.parse_dataset(config.dataset)
    rng = seeded_rng(config.split_seed, SHUFFLE_STREAM)
    parts = cp.split_dataset(examples, config.split_ratios, rng, stratify=lambda ex: ex.cls)
    empty = [name for name, part in zip(("train", "dev", "test"), parts) if not part]
    if empty:
        raise RunnerError(f"split_ratios {list(config.split_ratios)} leave {', '.join(empty)} "
                          f"empty out of {len(examples)} examples")
    return (lang, *parts)


def load_data(config: ExperimentConfig) -> DataBundle:
    """The config's examples and wug set, and the alphabet over them all;
    refuses files whose languages disagree."""
    if config.dataset is not None:
        lang, train, dev, test = _split(config)
    else:
        lang, train = cp.parse_dataset(config.train)
        lang_dev, dev = cp.parse_dataset(config.dev)
        lang_test, test = cp.parse_dataset(config.test)
        if not (lang == lang_dev == lang_test):
            raise RunnerError("train/dev/test language headers disagree")
    wugs = None
    if config.wugs is not None:
        wugs = cp.parse_wugs(config.wugs)
        if wugs.lang != lang:
            raise RunnerError(f"wug language {wugs.lang!r} != dataset language {lang!r}")
    alphabet = cp.build_alphabet([*train, *dev, *test], [wugs] if wugs else [])
    return DataBundle(lang, tuple(train), tuple(dev), tuple(test), wugs, alphabet)


# ---------------------------------------------------------------------------
# training one (arch, seed) unit


def _greedy_accuracy(model, bundle: DataBundle) -> float:
    hyps = greedy_decode(model, [source for source, _ in bundle.pairs["dev"]])
    return exact_match_accuracy([ex.form for ex in bundle.dev],
                                [bundle.alphabet.decode(hyp.symbols) for hyp in hyps])


@dataclass
class TrainOutcome:
    lang: str
    arch: str
    seed: int
    curve_rows: list[dict]
    best_epoch: int
    best_dev_accuracy: float
    param_count: int
    diagnostic: str = ""  # why the unit diverged; empty if it did not


def train_unit(config: ExperimentConfig, bundle: DataBundle, arch: str,
               seed: int) -> tuple[TrainOutcome, object]:
    """Train one model; returns its outcome record and the model restored to
    its best-dev checkpoint (None after divergence)."""
    mcfg = config.model_config(arch, len(bundle.alphabet))
    model = build_model(mcfg, seeded_rng(seed, INIT_STREAM))
    dropout_rng = seeded_rng(seed, DROPOUT_STREAM)
    shuffle_rng = seeded_rng(seed, SHUFFLE_STREAM)
    optim = Adam(model.params, lr=config.lr)
    encoded = bundle.pairs["train"]
    outcome = TrainOutcome(bundle.lang, arch, seed, [], 0, -math.inf,
                           count_parameters(model))
    best_params: dict[str, np.ndarray] | None = None

    try:
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(len(encoded))
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start:start + config.batch_size]
                optim.zero_grad()
                loss = model.batch_loss([encoded[i] for i in batch], rng=dropout_rng, train=True)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged(
                        f"{arch} seed {seed}: non-finite loss {value} at "
                        f"epoch {epoch}, batch {start // config.batch_size + 1}"
                    )
                epoch_loss += value
                backward(loss)
                del loss  # free this batch's graph before the next one is built
                norm, factor = clip_global_norm(model.params, config.clip_norm, len(batch))
                if not math.isfinite(norm):
                    raise TrainingDiverged(
                        f"{arch} seed {seed}: non-finite gradient norm at epoch {epoch}"
                    )
                optim.step(factor)  # the batch mean and the clip, applied as it updates
            dev_acc = _greedy_accuracy(model, bundle)
            outcome.curve_rows.append({
                "lang": bundle.lang, "model": arch, "seed": seed, "epoch": epoch,
                "train_loss": epoch_loss / len(encoded), "dev_accuracy": dev_acc,
            })
            if dev_acc > outcome.best_dev_accuracy:
                outcome.best_dev_accuracy = dev_acc
                outcome.best_epoch = epoch
                best_params = {k: p.data.copy() for k, p in model.params.items()}
    except TrainingDiverged as exc:
        outcome.diagnostic = str(exc)
        return outcome, None

    move_into(model.params, best_params)
    return outcome, model


# ---------------------------------------------------------------------------
# evaluation of a trained model


def eval_test(model, bundle: DataBundle, beam_width: int, arch: str,
              seed: int) -> tuple[list[dict], list[dict]]:
    """Beam-decode the test set; returns (accuracy rows, f1 rows).

    Accuracy rows are 'all', then each class of ``report_classes`` that
    occurs in the gold test data; German F1 rows cover every class of
    ``report_classes``, in that order."""
    beams = beam_search(model, [source for source, _ in bundle.pairs["test"]], beam_width)
    golds = [ex.form for ex in bundle.test]
    preds = [bundle.alphabet.decode(beam.hyps[0].symbols) for beam in beams]
    classes = [ex.cls for ex in bundle.test]
    acc_rows = [{
        "lang": bundle.lang, "model": arch, "seed": seed, "class": "all",
        "accuracy": exact_match_accuracy(golds, preds),
    }]
    per_class = accuracy_by_class(classes, golds, preds)
    for cls in report_classes(bundle.lang):
        if cls in per_class:
            acc_rows.append({"lang": bundle.lang, "model": arch, "seed": seed,
                             "class": cls, "accuracy": per_class[cls]})
    f1_rows = []
    if bundle.lang == "de":
        pred_classes = [
            cp.classify_german_suffix(ex.lemma, p) for ex, p in zip(bundle.test, preds)
        ]
        for cls, f1 in f1_by_class(classes, pred_classes, report_classes("de")).items():
            f1_rows.append({"lang": bundle.lang, "model": arch, "seed": seed,
                            "class": cls, "f1": f1})
    return acc_rows, f1_rows


def _production_class(lang: str, item: cp.WugItem, produced: str) -> str:
    """Class of a freely produced wug form.

    German forms classify by suffix; English forms only match known
    candidate forms (there is no surface rule for irregularity), so
    anything unlisted counts as 'other'.
    """
    if lang == "de":
        return cp.classify_german_suffix(item.lemma, produced)
    for cand in item.candidates:
        if cand.form == produced:
            return cand.cls
    return cp.OTHER_CLASS


def score_wugs(model, bundle: DataBundle, config: ExperimentConfig, arch: str,
               seed: int) -> tuple[list[dict], dict[str, list[str]]]:
    """Forced-score every candidate and record this model's productions.

    Returns (ratings rows in (lemma, form) order, lemma -> produced
    classes).  The ratings 'seed' column is the model identity '<arch>-seed<k>'.
    """
    alphabet = bundle.alphabet
    identity = f"{arch}-seed{seed}"
    items = bundle.wugs.items
    candidates = [(item, cand) for item in items for cand in item.candidates]
    scores = force_score(model, bundle.wug_pairs)
    rating_rows = [{
        "lemma": item.lemma, "form": cand.form, "class": cand.cls,
        "context": item.context or cand.cls, "seed": identity,
        "normalized_prob": score.normalized_prob,
        "raw_logprob": score.raw_logprob,
    } for (item, cand), score in zip(candidates, scores)]
    rating_rows.sort(key=lambda r: (r["lemma"], r["form"]))
    sources = bundle.wug_sources
    if config.sample_productions:
        produced = [[alphabet.decode(h.symbols) for h in hyps] for hyps in sample_decode(
            model, sources, config.sample_productions, seeded_rng(seed, SAMPLE_STREAM))]
    else:
        produced = [[alphabet.decode(beam.hyps[0].symbols)]
                    for beam in beam_search(model, sources, config.beam_width)]
    outcomes = {item.lemma: [_production_class(bundle.lang, item, p) for p in forms]
                for item, forms in zip(items, produced)}
    return rating_rows, outcomes


# ---------------------------------------------------------------------------
# the per-unit path: each stage maps one of these over the units


def checkpoint_path(out_dir, arch: str, seed: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"{arch}-seed{seed}.npz"


def unit_identity(bundle: DataBundle, mcfg: ModelConfig, seed: int) -> dict:
    """What a unit's checkpoint meta must match to be evaluated, data
    included.  Training hyperparameters (epochs, lr, batch size, clip
    norm) are left out, so ``train --epochs N`` then ``eval`` still works."""
    return {"arch": mcfg.arch, "seed": seed, "alphabet": list(bundle.alphabet.symbols),
            "model_config": mcfg.to_dict(), "data": bundle.digest}


def _flat(identity: dict) -> dict:
    """An identity with each model config field as a 'model_config.<field>'
    key; a model config that is not an object stays one value."""
    if not isinstance(identity["model_config"], dict):
        return identity
    return {**{k: v for k, v in identity.items() if k != "model_config"},
            **{f"model_config.{k}": v for k, v in identity["model_config"].items()}}


def _train_and_save(config: ExperimentConfig, bundle: DataBundle, arch: str,
                    seed: int) -> TrainOutcome:
    """Train one unit and write its checkpoint.  A diverged unit deletes
    any checkpoint an earlier training left, so no stage evaluates it."""
    outcome, model = train_unit(config, bundle, arch, seed)
    path = checkpoint_path(config.out_dir, arch, seed)
    if model is None:
        path.unlink(missing_ok=True)
        return outcome
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        path, model.params,
        meta={
            **unit_identity(bundle, model.config, seed),
            "language": bundle.lang,
            "best_epoch": outcome.best_epoch,
            "best_dev_accuracy": float(outcome.best_dev_accuracy),
            "param_count": outcome.param_count,
            "config_hash": config.hash(),
        })
    return outcome


def _load_unit(config: ExperimentConfig, bundle: DataBundle, arch: str, seed: int):
    """The unit's model rebuilt from its checkpoint.  Refuses a meta that
    differs from the unit's identity, naming the path and the keys (e.g.
    ``['data']``, ``model_config.hidden_dim``)."""
    path = checkpoint_path(config.out_dir, arch, seed)
    arrays, meta = load_checkpoint(path)
    mcfg = config.model_config(arch, len(bundle.alphabet))
    identity = unit_identity(bundle, mcfg, seed)
    want, got = _flat(identity), _flat({k: meta.get(k) for k in identity})
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    if differ:
        raise RunnerError(f"{path}: checkpoint does not match the config and data in {differ}")
    model = build_model(mcfg)
    move_into(model.params, arrays)
    return model


def _eval_unit(config: ExperimentConfig, bundle: DataBundle, arch: str, seed: int):
    return eval_test(_load_unit(config, bundle, arch, seed), bundle, config.beam_width,
                     arch, seed)


def _wug_unit(config: ExperimentConfig, bundle: DataBundle, arch: str, seed: int):
    return (arch, *score_wugs(_load_unit(config, bundle, arch, seed), bundle, config,
                              arch, seed))


def _units(config: ExperimentConfig) -> list[tuple[str, int]]:
    """The configured units in report order: architectures in
    ``ARCHITECTURES`` order, then seeds ascending."""
    return [(arch, seed) for arch in ARCHITECTURES if arch in config.architectures
            for seed in sorted(config.seeds)]


def _trained_units(config: ExperimentConfig) -> list[tuple[str, int]]:
    """The configured units that units.csv does not record as diverged.
    Each must have a checkpoint, or this raises naming those without."""
    units_csv = Path(config.out_dir) / "units.csv"
    diverged = {(row["model"], int(row["seed"])) for row in _read_back(units_csv, UNITS_HEADER)
                if row["diagnostic"]} if units_csv.exists() else set()
    trained = [unit for unit in _units(config) if unit not in diverged]
    missing = [f"{arch}-seed{seed}" for arch, seed in trained
               if not checkpoint_path(config.out_dir, arch, seed).exists()]
    if missing:
        raise RunnerError(f"no checkpoints under {config.out_dir} for {', '.join(missing)}")
    return trained


def _worker_count() -> int:
    raw = os.environ.get("WUGBENCH_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise RunnerError(f"WUGBENCH_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def _map_units(fn, config: ExperimentConfig, bundle: DataBundle,
               units: Sequence[tuple[str, int]]) -> list:
    """``fn(config, bundle, arch, seed)`` for each unit, results in the
    order of ``units``: serially, or in WUGBENCH_THREADS worker processes."""
    payloads = [(config, bundle, arch, seed) for arch, seed in units]
    workers = min(_worker_count(), len(payloads))
    if workers <= 1:
        return [fn(*payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*payloads)))


# ---------------------------------------------------------------------------
# deterministic emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if math.isnan(f):
        return ""
    return repr(f)


def write_csv(path, header: Sequence[str], rows: Iterable[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow([_fmt(r[col]) for col in header])


def _finite(value) -> float | None:
    """A number or CSV cell as a float; None where it is empty or not finite."""
    if value is None or value == "":
        return None
    f = float(value)
    return f if math.isfinite(f) else None


def read_csv_rows(path) -> list[dict]:
    return _read_back(path, ())


# read-back columns the runner converts, with what each cell must be; a
# diverged unit's best_epoch is empty, and _finite reads an empty cell as NaN
NUMERIC_COLUMNS = {
    "seed": (int, "an integer"), "param_count": (int, "an integer"),
    "best_epoch": (int, "an integer"), "n": (int, "an integer"),
    **{col: (_finite, "a number") for col in ("accuracy", "f1", *CORRELATIONS_HEADER[4:])},
}


def _read_back(path, header: Sequence[str]) -> list[dict]:
    """A CSV's rows as dicts.  Refuses a file whose header lacks a column of
    ``header``, a row with fewer fields than the file's header, and a cell
    of a ``header`` column in ``NUMERIC_COLUMNS`` that does not parse."""
    numeric = {col: NUMERIC_COLUMNS[col] for col in header if col in NUMERIC_COLUMNS}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in header if col not in (reader.fieldnames or ())]
        if missing:
            raise RunnerError(f"{path}: the header lacks the columns {missing}")
        rows = []
        for row in reader:
            if None in row.values():
                raise RunnerError(f"{path}: line {reader.line_num} has fewer fields "
                                  "than the header")
            for col, (parse, kind) in numeric.items():
                if col == "best_epoch" and row.get("diagnostic"):
                    continue
                try:
                    parse(row[col])
                except ValueError:
                    raise RunnerError(f"{path}: line {reader.line_num}, column {col!r}: "
                                      f"{row[col]!r} is not {kind}") from None
            rows.append(row)
    return rows


def _arch_rank(arch: str) -> tuple[int, str]:
    return (ARCHITECTURES.index(arch), arch) if arch in ARCHITECTURES else (len(ARCHITECTURES), arch)


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def _corr_to_json(c: CorrelationResult) -> dict:
    return {"statistic": _finite(c.statistic), "pvalue": _finite(c.pvalue), "n": c.n}


def compute_correlations(lang: str, rows_by_arch: dict[str, Sequence[dict]],
                         wugs: cp.WugSet) -> list[dict]:
    """Human rating vs. per-architecture model rating, for each architecture
    of ``rows_by_arch`` in its order: 'all', then each of ``CLASSES[lang]``.

    ``rows_by_arch`` maps an architecture to the rating rows of all its
    seeds.  Model rating of a candidate is its normalized probability
    averaged over those seeds.  A group of fewer than two candidates has
    NaN statistics."""
    human: dict[tuple[str, str], float] = {}
    cls_of: dict[tuple[str, str], str] = {}
    for item in wugs.items:
        for cand in item.candidates:
            human[(item.lemma, cand.form)] = cand.rating
            cls_of[(item.lemma, cand.form)] = cand.cls

    out: list[dict] = []
    for arch, rows in rows_by_arch.items():
        per_cand: dict[tuple[str, str], list[float]] = {}
        for row in rows:
            per_cand.setdefault((row["lemma"], row["form"]), []).append(
                float(row["normalized_prob"]))
        for group in ("all",) + CLASSES[lang]:
            keys = sorted(
                k for k in per_cand
                if k in human and (group == "all" or cls_of[k] == group)
            )
            xs = [human[k] for k in keys]
            ys = [model_rating(per_cand[k]) for k in keys]
            rho = spearman(xs, ys)
            r = pearson(xs, ys)
            out.append({
                "lang": lang, "model": arch, "group": group, "n": len(keys),
                "spearman_rho": rho.statistic, "spearman_p": rho.pvalue,
                "pearson_r": r.statistic, "pearson_p": r.pvalue,
            })
    return out


def compute_production_rows(lang: str, outcomes_by_arch: dict[str, dict[str, list[list[str]]]],
                            wugs: cp.WugSet) -> list[dict]:
    classes = report_classes(lang)
    rows: list[dict] = []
    context = {item.lemma: item.context for item in wugs.items}
    for arch, per_item in outcomes_by_arch.items():
        for lemma in sorted(per_item):
            probs = production_probabilities(per_item[lemma], classes)
            for cls in classes:
                rows.append({
                    "lang": lang, "model": arch, "lemma": lemma,
                    "context": context.get(lemma, ""), "class": cls,
                    "probability": probs[cls],
                })
    return rows


def build_grid(accuracy_rows: Sequence[dict], f1_rows: Sequence[dict],
               correlation_rows: Sequence[dict]) -> dict:
    """Task-performance vs. human-fit grid over every (model, class) cell.

    English cells use per-class accuracy, German cells per-class F1,
    averaged over the seeds where the value is defined; the human-fit
    coordinate is the Pearson r of that model's ratings within the class,
    averaged over the merged runs where it is defined. Languages contribute
    their own classes, so a merged English+German report has 7 classes per
    model."""
    perf: dict[tuple[str, str], list[float]] = {}
    classes: tuple[str, ...] = ()
    for lang, rows, col in (("en", accuracy_rows, "accuracy"), ("de", f1_rows, "f1")):
        found = False
        for row in rows:
            value = _finite(row[col])
            if row["lang"] == lang and row["class"] in CLASSES[lang] and value is not None:
                perf.setdefault((row["model"], row["class"]), []).append(value)
                found = True
        if found:
            classes += CLASSES[lang]

    fit: dict[tuple[str, str], list[float]] = {}
    for row in correlation_rows:
        r = _finite(row["pearson_r"])
        if row["group"] != "all" and r is not None:
            fit.setdefault((row["model"], row["group"]), []).append(r)

    models = sorted({m for m, _ in perf} | {m for m, _ in fit}, key=_arch_rank)
    cells = {}
    for key, values in perf.items():
        if key in fit:
            cells[key] = (float(np.mean(values)), float(np.mean(fit[key])))
    summary = accuracy_correlation_grid(cells, models, classes)
    return {
        "cells": {
            f"{m}/{c}": {"performance": cells[(m, c)][0], "human_fit": cells[(m, c)][1]}
            for (m, c) in sorted(cells)
        },
        "per_model": {m: _corr_to_json(r) for m, r in summary.per_model.items()},
        "per_class": {c: _corr_to_json(r) for c, r in summary.per_class.items()},
        "pooled": _corr_to_json(summary.pooled),
        "missing": [f"{m}/{c}" for m, c in summary.missing],
    }


def _class_stats(rows: Iterable[dict], col: str, by) -> dict[str, dict]:
    """Mean and sd over seeds of ``col`` per ``by(row)`` and class, skipping
    undefined values; groups without a defined value are left out."""
    values: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        value = _finite(row[col])
        if value is not None:
            values.setdefault(by(row), {}).setdefault(row["class"], []).append(value)
    return {
        key: {cls: dict(zip(("mean", "sd"), _mean_sd(vals))) for cls, vals in classes.items()}
        for key, classes in sorted(values.items())
    }


def _write_summary(path, summary: dict) -> None:
    # summary numbers pass through _finite or _corr_to_json, so none is NaN
    blob = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(blob + "\n")


# ---------------------------------------------------------------------------
# pipeline stages; ``run_experiment`` composes them in one process


def run_experiment(config: ExperimentConfig) -> dict:
    """Train, test and wug-score every unit, then report; returns the
    summary dict it wrote."""
    run_train(config)
    run_eval(config)
    if config.wugs is not None:
        run_wug(config)
    return run_report(config)


def run_split(config: ExperimentConfig) -> None:
    """Write train/dev/test TSVs for a config that names one dataset."""
    if config.dataset is None:
        raise RunnerError("split needs a config with a 'dataset' entry")
    lang, train, dev, test = _split(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("dev", dev), ("test", test)):
        cp.write_dataset(out_dir / f"{name}.tsv", lang, part)


# outputs computed from checkpoints, which a retrained unit makes stale
LATER_OUTPUTS = ("accuracy.csv", "f1.csv", "ratings.csv", "correlations.csv",
                 "productions.csv", "summary.json")


def run_train(config: ExperimentConfig) -> None:
    """Train the configured units; write checkpoints, curves and units.csv.

    The later stages' outputs in ``out_dir`` are deleted before the first
    unit trains, so ``report`` never reads numbers of replaced checkpoints."""
    bundle = load_data(config)
    out_dir = Path(config.out_dir)
    for name in LATER_OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    outcomes = _map_units(_train_and_save, config, bundle, _units(config))
    write_csv(out_dir / "training_curves.csv", CURVES_HEADER,
              (row for o in outcomes for row in o.curve_rows))
    write_csv(out_dir / "units.csv", UNITS_HEADER, (
        {"lang": o.lang, "model": o.arch, "seed": o.seed, "param_count": o.param_count,
         "best_epoch": None if o.diagnostic else o.best_epoch,
         "best_dev_accuracy": None if o.diagnostic else o.best_dev_accuracy,
         "diagnostic": o.diagnostic}
        for o in outcomes))
    for o in outcomes:
        if o.diagnostic:
            print(f"diverged: {o.diagnostic}")


def run_eval(config: ExperimentConfig) -> None:
    """Test-set evaluation of the trained units, read from their checkpoints."""
    bundle = load_data(config)
    results = _map_units(_eval_unit, config, bundle, _trained_units(config))
    out_dir = Path(config.out_dir)
    write_csv(out_dir / "accuracy.csv", ACCURACY_HEADER,
              (row for acc, _ in results for row in acc))
    write_csv(out_dir / "f1.csv", F1_HEADER, (row for _, f1 in results for row in f1))


def run_wug(config: ExperimentConfig) -> None:
    """Wug scoring of the trained units' checkpoints: ratings, productions, correlations."""
    bundle = load_data(config)
    if bundle.wugs is None:
        raise RunnerError("wug scoring needs a 'wugs' entry in the config")
    rows_by_arch: dict[str, list[dict]] = {}
    outcomes_by_arch: dict[str, dict[str, list[list[str]]]] = {}
    for arch, rows, outcomes in _map_units(_wug_unit, config, bundle, _trained_units(config)):
        rows_by_arch.setdefault(arch, []).extend(rows)
        arch_outcomes = outcomes_by_arch.setdefault(arch, {})
        for lemma, produced in outcomes.items():
            arch_outcomes.setdefault(lemma, []).append(produced)
    out_dir = Path(config.out_dir)
    write_csv(out_dir / "ratings.csv", RATINGS_HEADER,
              (row for rows in rows_by_arch.values() for row in rows))
    write_csv(out_dir / "correlations.csv", CORRELATIONS_HEADER,
              compute_correlations(bundle.lang, rows_by_arch, bundle.wugs))
    write_csv(out_dir / "productions.csv", PRODUCTIONS_HEADER,
              compute_production_rows(bundle.lang, outcomes_by_arch, bundle.wugs))


REPORT_INPUTS = {"units.csv": UNITS_HEADER, "accuracy.csv": ACCURACY_HEADER,
                 "f1.csv": F1_HEADER, "correlations.csv": CORRELATIONS_HEADER}


def run_report(config: ExperimentConfig, merge_dirs: Sequence[str] = ()) -> dict:
    """Build summary.json from the CSVs of ``out_dir`` and any merged runs.

    ``models`` describes the units of ``out_dir`` alone, keyed by
    architecture; ``test_accuracy`` and ``test_f1`` (keyed 'lang/model')
    and ``grid`` cover every merged directory.  A (lang, model, seed) unit
    in two directories would count its seed twice in every sd, and a merged
    directory without rows would add nothing: both are refused."""
    dirs = [Path(config.out_dir), *map(Path, merge_dirs)]
    tables = [{name: _read_back(d / name, header) if (d / name).exists() else []
               for name, header in REPORT_INPUTS.items()} for d in dirs]
    # out_dir alone may hold no rows, when a merged directory holds some
    empty = [str(d) for i, (d, t) in enumerate(zip(dirs, tables))
             if not (t["units.csv"] or t["accuracy.csv"]) and (i or not merge_dirs)]
    if empty:
        raise RunnerError(f"no units.csv or accuracy.csv rows under {empty}")
    units = Counter(unit for t in tables for unit in {
        f'{r["lang"]}/{r["model"]}/seed{r["seed"]}'
        for name in ("units.csv", "accuracy.csv", "f1.csv") for r in t[name]})
    repeated = sorted(unit for unit, n in units.items() if n > 1)
    if repeated:
        raise RunnerError(f"units in more than one merged directory: {repeated}")
    own = tables[0]
    merged = {name: [row for t in tables for row in t[name]] for name in REPORT_INPUTS}

    models: dict[str, dict] = {}
    for row in own["units.csv"]:
        entry = models.setdefault(row["model"], {
            "param_count": int(row["param_count"]), "seeds": [], "diverged": {},
            "best_epochs": {},
        })
        entry["seeds"].append(int(row["seed"]))
        if row["diagnostic"]:
            entry["diverged"][row["seed"]] = row["diagnostic"]
        else:
            entry["best_epochs"][row["seed"]] = int(row["best_epoch"])
    accuracy = _class_stats(own["accuracy.csv"], "accuracy", lambda r: r["model"])
    f1 = _class_stats(own["f1.csv"], "f1", lambda r: r["model"])
    for arch, entry in models.items():
        entry["test_accuracy"] = accuracy.get(arch, {})
        entry["test_f1"] = f1.get(arch, {})
        entry["rating_correlations"] = {
            row["group"]: {"n": int(row["n"]),
                           **{col: _finite(row[col]) for col in CORRELATIONS_HEADER[4:]}}
            for row in own["correlations.csv"] if row["model"] == arch
        }

    def lang_model(row):
        return f'{row["lang"]}/{row["model"]}'

    bundle = load_data(config)
    summary = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "merged_dirs": [str(d) for d in dirs],
        "language": bundle.lang,
        "alphabet_size": len(bundle.alphabet),
        "data_sizes": {"train": len(bundle.train), "dev": len(bundle.dev),
                       "test": len(bundle.test),
                       "wug_items": len(bundle.wugs.items) if bundle.wugs else 0},
        "models": models,
        "test_accuracy": _class_stats(merged["accuracy.csv"], "accuracy", lang_model),
        "test_f1": _class_stats(merged["f1.csv"], "f1", lang_model),
        "grid": build_grid(merged["accuracy.csv"], merged["f1.csv"],
                           merged["correlations.csv"]),
    }
    _write_summary(Path(config.out_dir) / "summary.json", summary)
    return summary
