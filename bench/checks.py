"""Output checks for one round of a workload.

Each check compares the program's output files against a computation
made apart from the program (scipy's correlations, the generated inputs,
a reloaded model's teacher-forced loss) or against a property the method
must have.  None compares against stored output.

A check returns ``Problem``s.  A problem names the (architecture, seed)
unit it belongs to, or ``None`` when it concerns every unit of the round.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

TOL = 1e-9
EOS_SYMBOL = "</s>"
CLASSES = {"en": ("regular", "irregular"), "de": ("(e)n", "e", "zero", "er", "s")}

Unit = tuple[str, int]


@dataclass(frozen=True)
class Problem:
    unit: Unit | None
    message: str


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _unit_of(identity: str) -> Unit:
    arch, seed = identity.rsplit("-seed", 1)
    return arch, int(seed)


def read_wug_tsv(path: Path) -> dict[tuple[str, str], tuple[float, str, list[str]]]:
    """(lemma, form) -> (human rating, class, tags), read straight from the TSV."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        lemma, form, rating, tags, cls, *_ = line.split("\t")
        out[(lemma, form)] = (float(rating), cls, tags.split(";"))
    return out


def check_curves(run: Path, units: list[Unit], epochs: int) -> list[Problem]:
    """Every unit has one finite train_loss per epoch, falling from the first
    epoch to the last."""
    curves: dict[Unit, dict[int, float]] = defaultdict(dict)
    for row in _rows(run / "training_curves.csv"):
        curves[(row["model"], int(row["seed"]))][int(row["epoch"])] = float(row["train_loss"])
    problems = []
    for unit in units:
        losses = [curves[unit].get(e, math.nan) for e in range(1, epochs + 1)]
        if not all(math.isfinite(x) for x in losses):
            problems.append(Problem(unit, f"train_loss missing or not finite: {losses}"))
        elif not losses[-1] < losses[0]:
            problems.append(Problem(unit, f"train_loss did not fall: {losses}"))
    return problems


def check_accuracy(run: Path, units: list[Unit], test_classes: list[str]) -> list[Problem]:
    """The 'all' accuracy is the mean of the per-class rows weighted by each
    class's count in the generated test set."""
    counts: dict[str, int] = defaultdict(int)
    for cls in test_classes:
        counts[cls] += 1
    acc: dict[Unit, dict[str, float]] = defaultdict(dict)
    for row in _rows(run / "accuracy.csv"):
        acc[(row["model"], int(row["seed"]))][row["class"]] = float(row["accuracy"])
    problems = []
    for unit in units:
        got = acc.get(unit, {})
        if set(got) != {"all", *counts}:
            problems.append(Problem(unit, f"accuracy classes {sorted(got)} != test classes"))
            continue
        weighted = sum(counts[c] * got[c] for c in counts) / len(test_classes)
        if abs(weighted - got["all"]) > TOL:
            problems.append(Problem(unit, f"accuracy all={got['all']} but weighted mean {weighted}"))
    return problems


def check_ratings(run: Path, units: list[Unit], wugs: dict) -> list[Problem]:
    """One rating per unit and candidate, with normalized_prob equal to
    exp(raw_logprob / (len(form) + 1)) and inside (0, 1]."""
    seen: dict[Unit, list] = defaultdict(list)
    problems = []
    for row in _rows(run / "ratings.csv"):
        unit = _unit_of(row["seed"])
        raw, prob = float(row["raw_logprob"]), float(row["normalized_prob"])
        expected = math.exp(raw / (len(row["form"]) + 1))
        if not 0.0 < prob <= 1.0 or abs(prob - expected) > TOL * expected:
            problems.append(Problem(unit, f"rating {row['lemma']}/{row['form']}: "
                                          f"normalized_prob {prob} != {expected}"))
        seen[unit].append((row["lemma"], row["form"]))
    for unit in units:
        if sorted(seen.get(unit, [])) != sorted(wugs):
            problems.append(Problem(unit, "ratings.csv does not cover every wug candidate once"))
    return problems


def check_correlations(run: Path, units: list[Unit], wugs: dict, lang: str) -> list[Problem]:
    """correlations.csv against scipy, from ratings.csv averaged over seeds
    and the human ratings in the wug TSV."""
    per_arch: dict[str, dict[tuple[str, str], list[float]]] = defaultdict(lambda: defaultdict(list))
    for row in _rows(run / "ratings.csv"):
        arch, _ = _unit_of(row["seed"])
        per_arch[arch][(row["lemma"], row["form"])].append(float(row["normalized_prob"]))
    written = {(row["model"], row["group"]): row for row in _rows(run / "correlations.csv")}
    arch_units: dict[str, list[Unit]] = defaultdict(list)
    for unit in units:
        arch_units[unit[0]].append(unit)

    problems = []
    for arch, its_units in arch_units.items():
        for group in ("all", *CLASSES[lang]):
            keys = sorted(k for k in wugs if group == "all" or wugs[k][1] == group)
            human = np.array([wugs[k][0] for k in keys])
            model = np.array([np.mean(per_arch[arch][k]) if per_arch[arch][k] else math.nan
                              for k in keys])
            row = written.get((arch, group))
            wrong = None
            if row is None:
                wrong = "row missing"
            elif int(row["n"]) != len(keys):
                wrong = f"n={row['n']}, expected {len(keys)}"
            else:
                defined = len(keys) >= 2 and np.ptp(human) > 0 and np.ptp(model) > 0
                for col, fn in (("spearman_rho", stats.spearmanr), ("pearson_r", stats.pearsonr)):
                    got = math.nan if row[col] == "" else float(row[col])
                    want = float(fn(human, model)[0]) if defined else math.nan
                    if math.isnan(want) != math.isnan(got) or abs(got - want) > TOL:
                        wrong = f"{col}={row[col]!r}, scipy gives {want!r}"
            if wrong:
                problems += [Problem(u, f"correlations {arch}/{group}: {wrong}") for u in its_units]
    return problems


def check_productions(run: Path, units: list[Unit], wugs: dict) -> list[Problem]:
    """Each (model, lemma) production distribution sums to 1."""
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for row in _rows(run / "productions.csv"):
        totals[(row["model"], row["lemma"])] += float(row["probability"])
    lemmas = {lemma for lemma, _ in wugs}
    problems = []
    for unit in units:
        for lemma in sorted(lemmas):
            total = totals.get((unit[0], lemma))
            if total is None or abs(total - 1.0) > TOL:
                problems.append(Problem(unit, f"productions {unit[0]}/{lemma} sum to {total}"))
    return problems


def check_summary(run: Path, units: list[Unit], sizes: dict, staged: bool) -> list[Problem]:
    """summary.json gives the generated data sizes (the one-shot summary), or
    has every trained model (the staged report).  Diverged units are not a
    wrong output: ``diverged_units`` counts them as failed."""
    summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
    problems = []
    if staged:
        lang_models = {key.split("/", 1)[1] for key in summary["test_accuracy"]}
        for unit in units:
            if unit[0] not in lang_models:
                problems.append(Problem(unit, "summary.json has no test accuracy for the model"))
        return problems
    if summary["data_sizes"] != sizes:
        problems.append(Problem(None, f"summary data_sizes {summary['data_sizes']} != {sizes}"))
    return problems


def diverged_units(run: Path, train_stdout: str, staged: bool) -> set[Unit]:
    """Units the program reports as diverged."""
    if staged:
        out = set()
        for line in train_stdout.splitlines():
            if line.startswith("diverged: "):
                arch, _, seed, *_ = line[len("diverged: "):].split()
                out.add((arch, int(seed.rstrip(":"))))
        return out
    summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
    return {(arch, int(seed)) for arch, model in summary["models"].items()
            for seed in model["diverged"]}


def check_checkpoint(run: Path, unit: Unit, wugs: dict, n_candidates: int,
                     param_count: int | None) -> list[Problem]:
    """Reload one unit's checkpoint: its parameter count matches the one
    the program reports (``param_count`` from summary.json, or the
    checkpoint's own record where the summary has none), and for a sample
    of candidates raw_logprob equals minus the reloaded model's
    teacher-forced loss."""
    from wugbench.ndiff import INIT_STREAM, load_checkpoint, restore_into, seeded_rng
    from wugbench.seq2seq import ModelConfig, build_model

    arch, seed = unit
    (path,) = (run / "checkpoints").glob(f"{arch}-seed{seed}.*")
    arrays, meta = load_checkpoint(path)
    problems = []
    if param_count is None:
        param_count = meta["param_count"]
    size = sum(a.size for a in arrays.values())
    if size != param_count:
        problems.append(Problem(unit, f"checkpoint holds {size} parameters, report says {param_count}"))
    model = build_model(ModelConfig(**meta["model_config"]), seeded_rng(seed, INIT_STREAM))
    restore_into(model.params, arrays)
    index = {symbol: i for i, symbol in enumerate(meta["alphabet"])}
    ratings = {(r["lemma"], r["form"]): float(r["raw_logprob"]) for r in _rows(run / "ratings.csv")
               if _unit_of(r["seed"]) == unit}
    for lemma, form in sorted(wugs)[:n_candidates]:
        src = [index[t] for t in wugs[(lemma, form)][2]] + [index[ch] for ch in lemma]
        tgt = [index[ch] for ch in form] + [index[EOS_SYMBOL]]
        loss = model.loss(src, tgt, train=False).item()
        if abs(ratings[(lemma, form)] + loss) > TOL:
            problems.append(Problem(unit, f"raw_logprob of {lemma}/{form} is "
                                          f"{ratings[(lemma, form)]}, reloaded loss {loss}"))
    return problems
