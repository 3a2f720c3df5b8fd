"""Metric implementations against loop-oracles, scipy, and hand cases."""

import math
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pearson_oracle, ranks_oracle, spearman_oracle, t_pvalue_oracle
from wugbench.wugeval import (
    EvaluationError,
    _t_pvalue,
    accuracy_by_class,
    accuracy_correlation_grid,
    average_ranks,
    exact_match_accuracy,
    f1_by_class,
    model_rating,
    pearson,
    production_probabilities,
    spearman,
)

# ---------------------------------------------------------------------------
# accuracy


def test_exact_match_accuracy():
    assert exact_match_accuracy(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(200 / 3)
    assert exact_match_accuracy(["a"], ["a"]) == 100.0
    assert math.isnan(exact_match_accuracy([], []))
    with pytest.raises(EvaluationError):
        exact_match_accuracy(["a"], ["a", "b"])


def test_accuracy_by_class():
    classes = ["reg", "reg", "irr", "irr", "irr"]
    golds = ["walked", "played", "sang", "ran", "went"]
    preds = ["walked", "plays", "sang", "ran", "goed"]
    acc = accuracy_by_class(classes, golds, preds)
    assert acc["reg"] == pytest.approx(50.0)
    assert acc["irr"] == pytest.approx(200 / 3)


def test_f1_hand_case():
    gold = ["e", "e", "s", "er", "er"]
    pred = ["e", "s", "s", "er", "e"]
    f1 = f1_by_class(gold, pred)
    # e: tp=1 fp=1 fn=1 -> p=r=.5 -> 50
    assert f1["e"] == pytest.approx(50.0)
    # s: tp=1 fp=1 fn=0 -> p=.5 r=1 -> 2/3
    assert f1["s"] == pytest.approx(200 / 3)
    # er: tp=1 fp=0 fn=1 -> p=1 r=.5 -> 2/3
    assert f1["er"] == pytest.approx(200 / 3)


def test_f1_degenerate_classes():
    f1 = f1_by_class(["a", "a"], ["b", "b"], classes=["a", "b", "c"])
    assert f1["a"] == 0.0          # members but no true positives
    assert f1["b"] == 0.0          # predicted but never gold
    assert math.isnan(f1["c"])     # never seen at all
    assert f1_by_class(["a"], ["a"])["a"] == 100.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=30),
       st.integers(min_value=0, max_value=10 ** 6))
def test_f1_matches_sklearn_style_formula(gold, seed):
    rng = np.random.default_rng(seed)
    pred = [str(rng.choice(["x", "y", "z"])) for _ in gold]
    ours = f1_by_class(gold, pred, classes=["x", "y", "z"])
    for cls in "xyz":
        tp = sum(g == cls and p == cls for g, p in zip(gold, pred))
        fp = sum(g != cls and p == cls for g, p in zip(gold, pred))
        fn = sum(g == cls and p != cls for g, p in zip(gold, pred))
        if tp + fp + fn == 0:
            assert math.isnan(ours[cls])
        elif tp == 0:
            assert ours[cls] == 0.0
        else:
            want = 100.0 * 2 * tp / (2 * tp + fp + fn)
            assert ours[cls] == pytest.approx(want)


# ---------------------------------------------------------------------------
# wug aggregation


def test_production_probabilities_top_beam():
    outcomes = [["e"], ["e"], ["s"], ["other"]]
    probs = production_probabilities(outcomes, ["e", "s", "er"])
    assert probs["e"] == pytest.approx(0.5)
    assert probs["s"] == pytest.approx(0.25)
    assert probs["er"] == 0.0
    # 'other' productions dilute the mass: listed classes sum to < 1
    assert sum(probs.values()) == pytest.approx(0.75)


def test_production_probabilities_sampled():
    outcomes = [["e", "e", "s"], ["e"]]
    probs = production_probabilities(outcomes, ["e", "s"])
    assert probs["e"] == pytest.approx(0.75)
    assert probs["s"] == pytest.approx(0.25)
    with pytest.raises(EvaluationError):
        production_probabilities([[], []], ["e"])


def test_model_rating_is_seed_mean():
    assert model_rating([0.2, 0.4, 0.9]) == pytest.approx(0.5)
    with pytest.raises(EvaluationError):
        model_rating([])


# ---------------------------------------------------------------------------
# correlations vs oracles


def _random_pairs(rng, n, tie_prob=0.0):
    x = rng.normal(size=n)
    y = 0.6 * x + rng.normal(size=n)
    if tie_prob:
        # quantize to force ties
        x = np.round(x, 1)
        y = np.round(y, 1)
    return x.tolist(), y.tolist()


@pytest.mark.parametrize("trial", range(25))
def test_pearson_against_loop_oracle(trial):
    rng = np.random.default_rng(trial)
    x, y = _random_pairs(rng, int(rng.integers(2, 40)))
    got = pearson(x, y)
    assert got.statistic == pytest.approx(pearson_oracle(x, y), abs=1e-12)
    assert got.n == len(x)


@pytest.mark.parametrize("trial", range(25))
def test_spearman_against_loop_oracle(trial):
    rng = np.random.default_rng(100 + trial)
    x, y = _random_pairs(rng, int(rng.integers(3, 40)), tie_prob=0.5)
    got = spearman(x, y)
    assert got.statistic == pytest.approx(spearman_oracle(x, y), abs=1e-12)


@pytest.mark.parametrize("trial", range(10))
def test_correlations_against_scipy(trial):
    rng = np.random.default_rng(200 + trial)
    x, y = _random_pairs(rng, 30, tie_prob=0.3)
    ours_p = pearson(x, y)
    ref_p = scipy.stats.pearsonr(x, y)
    assert ours_p.statistic == pytest.approx(ref_p.statistic, abs=1e-12)
    assert ours_p.pvalue == pytest.approx(ref_p.pvalue, abs=1e-9)
    ours_s = spearman(x, y)
    ref_s = scipy.stats.spearmanr(x, y)
    assert ours_s.statistic == pytest.approx(ref_s.statistic, abs=1e-12)
    assert ours_s.pvalue == pytest.approx(ref_s.pvalue, abs=1e-9)


def test_average_ranks_against_oracle():
    cases = [
        [3.0, 1.0, 2.0],
        [1.0, 1.0, 1.0],
        [2.0, 1.0, 2.0, 3.0, 2.0],
        [5.0],
    ]
    for x in cases:
        np.testing.assert_allclose(average_ranks(x), ranks_oracle(x))


def test_ranks_of_ties():
    np.testing.assert_allclose(average_ranks([10.0, 20.0, 20.0, 30.0]),
                               [1.0, 2.5, 2.5, 4.0])


def test_pvalue_formula():
    rng = np.random.default_rng(7)
    for n in (3, 5, 12, 35):
        x, y = _random_pairs(rng, n)
        got = pearson(x, y)
        assert got.pvalue == pytest.approx(t_pvalue_oracle(got.statistic, n), rel=1e-12, abs=0)


# |r| from 1e-12 to 0.999: log-spaced, and round values
R_GRID = sorted({*np.geomspace(1e-12, 0.999, 60).tolist(),
                 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999})


@pytest.mark.parametrize("n", (3, 4, 5, 30, 56, 281, 5000))
def test_t_pvalue_keeps_relative_accuracy(n):
    # against the oracle's p-value: scipy's stdtr, or at n = 3 the Cauchy form
    for r in R_GRID:
        want = t_pvalue_oracle(r, n)
        for stat in (r, -r):
            got = _t_pvalue(stat, n)
            if want < sys.float_info.min:  # stdtr underflows below the normal range
                assert got < sys.float_info.min, (stat, got, want)
            else:
                assert abs(got - want) <= 1e-12 * want, (stat, got, want)


def test_correlation_edge_cases():
    assert math.isnan(pearson([1.0], [2.0]).statistic)
    assert math.isnan(pearson([1.0, 1.0], [2.0, 3.0]).statistic)  # zero variance
    perfect = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert perfect.statistic == pytest.approx(1.0)
    assert perfect.pvalue == pytest.approx(0.0, abs=1e-12)
    two = pearson([1.0, 2.0], [5.0, 3.0])
    assert two.statistic == pytest.approx(-1.0)
    assert math.isnan(two.pvalue)  # p undefined below n=3
    with pytest.raises(EvaluationError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(EvaluationError):
        spearman([1.0, 2.0], [1.0])


def test_spearman_is_monotone_invariant():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2.0, 8.0, 9.0, 11.0, 40.0]
    assert spearman(x, y).statistic == pytest.approx(1.0)
    assert spearman(x, [math.exp(v) for v in y]).statistic == pytest.approx(1.0)
    assert spearman(x, y[::-1]).statistic == pytest.approx(-1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=2, max_size=25),
       st.integers(min_value=0, max_value=10 ** 6))
def test_correlation_bounds_property(x, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=len(x)).tolist()
    r = pearson(x, y).statistic
    s = spearman(x, y).statistic
    for v in (r, s):
        assert math.isnan(v) or -1.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# accuracy vs human-fit grid


def test_grid_summary_matches_direct_pearson():
    models = ["m1", "m2", "m3"]
    classes = ["a", "b", "c"]
    rng = np.random.default_rng(3)
    cells = {}
    for m in models:
        for c in classes:
            cells[(m, c)] = (float(rng.uniform(50, 100)), float(rng.uniform(-1, 1)))
    grid = accuracy_correlation_grid(cells, models, classes)
    assert not grid.missing
    assert grid.pooled.n == 9
    xs = [cells[(m, c)][0] for m in models for c in classes]
    ys = [cells[(m, c)][1] for m in models for c in classes]
    assert grid.pooled.statistic == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)
    for m in models:
        want = pearson_oracle([cells[(m, c)][0] for c in classes],
                              [cells[(m, c)][1] for c in classes])
        assert grid.per_model[m].statistic == pytest.approx(want, abs=1e-12)
    for c in classes:
        want = pearson_oracle([cells[(m, c)][0] for m in models],
                              [cells[(m, c)][1] for m in models])
        assert grid.per_class[c].statistic == pytest.approx(want, abs=1e-12)


def test_grid_skips_missing_and_nan_cells():
    models = ["m1", "m2"]
    classes = ["a", "b"]
    cells = {
        ("m1", "a"): (90.0, 0.5),
        ("m1", "b"): (80.0, float("nan")),
        ("m2", "a"): (70.0, 0.1),
        # (m2, b) absent
    }
    grid = accuracy_correlation_grid(cells, models, classes)
    assert set(grid.missing) == {("m1", "b"), ("m2", "b")}
    assert grid.pooled.n == 2
    assert math.isnan(grid.per_model["m1"].statistic)  # single usable point
    assert grid.per_class["a"].n == 2
    # no usable cell at all
    assert grid.per_class["b"].n == 0
    assert math.isnan(grid.per_class["b"].statistic)
    assert math.isnan(grid.per_class["b"].pvalue)
