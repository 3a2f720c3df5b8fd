"""Acceptance gates.

One numbered criterion per test group; the terminal summary prints a
PASS/FAIL/SKIP line for each (see conftest).  Criteria 5-7 need the real
datasets and desk-scale compute: they run only when WUGBENCH_DESK=1 and
the data environment variables below are set, and skip otherwise rather
than asserting on data this sandbox does not have.

    WUGBENCH_EN_DATA / WUGBENCH_EN_WUGS   English dataset / wug TSVs
    WUGBENCH_DE_DATA / WUGBENCH_DE_WUGS   German dataset / wug TSVs
    WUGBENCH_EN_RUN / WUGBENCH_DE_RUN     optional finished run directories
                                          (skip retraining, gate on reports)
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import datagen
from oracles import (
    chained_logprobs,
    directional_grad_error,
    enumeration_beam,
    grad_check,
    pearson_oracle,
    random_table_model,
    spearman_oracle,
)
from reference import (
    PARAM_COUNT_TOLERANCE,
    PUBLISHED_PARAM_COUNTS,
    PUBLISHED_S_CLASS_RATING_RHO,
)
from wugbench import corpus as cp
from wugbench import ndiff as nd
from wugbench.decode import beam_search, force_score, greedy_decode
from wugbench.runner import (
    ExperimentConfig,
    read_csv_rows,
    run_experiment,
)
from wugbench.seq2seq import ARCHITECTURES, ModelConfig, build_model, count_parameters
from wugbench.wugeval import pearson, spearman

TRIALS = 10
_timings: dict[str, float] = {}


# ===========================================================================
# criterion 1: gradients


def _op_suite(rng):
    """(name, f, x) triples covering every differentiable op; constants are
    hoisted so repeated calls see identical values."""
    m34 = rng.normal(size=(3, 4))
    m34b = rng.normal(size=(3, 4)) + 2.5
    v4 = rng.normal(size=(4,))
    rng.normal(size=(4, 3))  # unused; drawn so later draws keep their values
    m24 = rng.normal(size=(2, 4))
    b234 = rng.normal(size=(2, 3, 4))
    rng.normal(size=(2, 4, 5))  # unused
    w34 = rng.normal(size=(3, 4))
    b3 = rng.normal(size=(3,))
    sel34 = rng.normal(size=(3, 4))
    rng.normal(size=(2, 3))  # unused
    rng.normal(size=(12,))  # unused
    selB = rng.normal(size=(2, 3, 4))
    table_sel = rng.normal(size=(3, 4))
    gain = rng.uniform(0.5, 1.5, size=(4,))
    bias = rng.normal(size=(4,))
    mask = np.ones((3, 3), dtype=bool)
    mask[:, 2] = False
    lw = rng.normal(size=(8, 6)) * 0.5
    lb = rng.normal(size=(8,))
    lh = rng.normal(size=(2,))
    lc = rng.normal(size=(2,))
    lx = rng.normal(size=(4,))
    lsel = rng.normal(size=(4,))
    rng.uniform(0.5, 2.0, size=(3, 4))  # unused; drawn so later draws keep their values
    nokink = np.where(np.abs(m34) < 0.1, m34 + 0.3, m34)
    flat = m34.copy()
    flat[1] = m34[1, 0]  # a zero-variance layer-norm row

    T = nd.Tensor
    ops = [
        ("add", lambda t: nd.sum_(nd.add(t, T(v4))), m34),
        ("mul", lambda t: nd.sum_(nd.mul(t, T(m34b))), m34),
        ("tanh", lambda t: nd.sum_(nd.tanh(t)), m34),
        ("relu", lambda t: nd.sum_(nd.relu(t)), nokink),
        ("sum_", lambda t: nd.sum_(nd.mul(nd.sum_(t, axis=0), T(v4))), m34),
        ("affine", lambda t: nd.sum_(nd.affine(t, T(w34), T(b3))), m24),
        ("affine-weight", lambda t: nd.sum_(nd.affine(T(m24), t, T(b3))), w34),
        ("concat", lambda t: nd.sum_(nd.mul(nd.concat([t, T(m34)], axis=0),
                                            T(np.concatenate([sel34, sel34])))), m34),
        ("narrow", lambda t: nd.sum_(nd.mul(nd.narrow(t, 1, 1, 2), T(sel34[:, 1:3]))), m34),
        ("embedding_lookup", lambda t: nd.sum_(nd.mul(nd.embedding_lookup(t, [1, 0, 1]),
                                                      T(table_sel[:, :4]))),
         rng.normal(size=(3, 4))),
        ("layer_norm", lambda t: nd.sum_(nd.mul(nd.layer_norm(t, T(gain), T(bias)),
                                                T(sel34))), m34),
        ("layer_norm-flat-row", lambda t: nd.sum_(nd.mul(nd.layer_norm(t, T(gain), T(bias)),
                                                         T(sel34))), flat),
        ("layer_norm-gain", lambda t: nd.sum_(nd.mul(nd.layer_norm(T(m34), t, T(bias)),
                                                     T(sel34))), gain),
        ("layer_norm-bias", lambda t: nd.sum_(nd.mul(nd.layer_norm(T(m34), T(gain), t),
                                                     T(sel34))), bias),
        ("scaled_dot_product", lambda t: nd.sum_(nd.mul(
            nd.scaled_dot_product(t, T(b234), T(b234), mask), T(selB))), b234),
        ("scaled_dot_product-k", lambda t: nd.sum_(nd.mul(
            nd.scaled_dot_product(T(b234), t, T(b234), mask), T(selB))), b234),
        ("scaled_dot_product-v", lambda t: nd.sum_(nd.mul(
            nd.scaled_dot_product(T(b234), T(b234), t, mask), T(selB))), b234),
        ("dropout", lambda t: nd.sum_(nd.dropout(t, 0.4, train=True,
                                                 rng=nd.seeded_rng(13))), m34b),
    ]

    # rows 1-2 of the lstm batch (of its first position, for lx and lsel);
    # drawn before the attention inputs, which so keep their values
    lh = np.vstack([lh, rng.normal(size=(2, 2))])
    lc = np.vstack([lc, rng.normal(size=(2, 2))])
    lx = np.vstack([lx, rng.normal(size=(2, 4))])
    lsel = np.vstack([lsel, rng.normal(size=(2, 4))])

    # attention as the transformer calls it: two heads, q, k, v [B, T, D]
    # drawn per head [B, heads, T, d_head] and merged, and a padded-key
    # mask [B, 1, 1, S]; the first row's last two keys are padding
    def merged(x):
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], -1)

    aq = merged(rng.normal(size=(2, 2, 3, 4)))
    akv = merged(rng.normal(size=(2, 2, 5, 4)))
    asel = merged(rng.normal(size=(2, 2, 3, 4)))
    key_mask = np.ones((2, 1, 1, 5), dtype=bool)
    key_mask[0, ..., 3:] = False

    def attend(**leaf):
        a = {"q": T(aq), "k": T(akv), "v": T(akv), **leaf}
        return nd.sum_(nd.mul(nd.scaled_dot_product(a["q"], a["k"], a["v"], key_mask, 2),
                              T(asel)))

    # additive attention as the LSTMs call it: one query a row q [B, 1, A],
    # keys [B, S, A], v [A] and memory [B, S, C]; the second row's last
    # three positions are padding
    dq = rng.normal(size=(2, 3))[:, None]
    dkeys = rng.normal(size=(2, 4, 3))
    dv = rng.normal(size=(3,))
    dmemory = rng.normal(size=(2, 4, 2))
    dsel = rng.normal(size=(2, 2))[:, None]
    pad_mask = np.ones((2, 4), dtype=bool)
    pad_mask[1, 1:] = False

    def additive(sel=dsel, **leaf):
        a = {"q": T(dq), "keys": T(dkeys), "v": T(dv), "memory": T(dmemory), **leaf}
        return nd.sum_(nd.mul(nd.additive_attention(a["q"], a["keys"], a["v"], a["memory"],
                                                    pad_mask), T(sel)))

    # the lstm over three positions, the rows above at the first; row 1 is
    # dead at its last position and row 2 at its last two
    lx = np.concatenate([lx[:, None], rng.normal(size=(3, 2, 4))], axis=1)
    lsel = np.concatenate([lsel[:, None], rng.normal(size=(3, 2, 4))], axis=1)
    live = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])

    lstate = np.concatenate([lh, lc], axis=1)[:, None]  # the start state concat([h, c])

    def recur(reverse=False, **leaf):
        a = {"xs": T(lx), "state": T(lstate), "w": T(lw), **leaf}
        return nd.sum_(nd.mul(nd.lstm(a["xs"], a["state"], a["w"], T(lb), live, reverse),
                              T(lsel)))

    # drawn after every input above, which so keep their values: affine
    # over rows [2, 3, in], lookups by ids [2, 2], and two queries a row
    x3 = rng.normal(size=(2, 3, 4))
    sel3 = rng.normal(size=(2, 3, 3))
    table = rng.normal(size=(3, 4))
    table_sel3 = rng.normal(size=(2, 2, 4))
    dq2 = rng.normal(size=(2, 2, 3))
    dsel2 = rng.normal(size=(2, 2, 2))

    # drawn last: the loss head over rows [3, 5] and positions [2, 3, 5],
    # and the positions' weights; position (1, 2) is dead
    tl2 = rng.normal(size=(3, 5))
    tlsel2 = rng.normal(size=(3,))
    tl3 = rng.normal(size=(2, 3, 5))
    tlsel3 = rng.normal(size=(2, 3))
    targets3 = [[4, 0, 2], [1, 1, 3]]
    tlive = np.array([[1, 1, 1], [1, 1, 0]])
    # drawn after those: a lookup from a 3-D table, per-source rows gathered
    # to their pairs with a repeat, whose gradients sum
    rows3 = rng.normal(size=(3, 2, 4))
    rows_sel = rng.normal(size=(4, 2, 4))

    def head(t, targets, live, sel):
        return nd.sum_(nd.mul(nd.target_logprobs(t, targets, live), T(sel)))

    return ops + [
        ("lstm", lambda t: recur(w=t), lw),
        ("lstm-x", lambda t: recur(xs=t), lx),
        ("lstm-state", lambda t: recur(state=t), lstate),
        ("lstm-reverse", lambda t: recur(True, w=t), lw),
        ("scaled_dot_product-padded-q", lambda t: attend(q=t), aq),
        ("scaled_dot_product-padded-k", lambda t: attend(k=t), akv),
        ("scaled_dot_product-padded-v", lambda t: attend(v=t), akv),
        ("additive_attention", lambda t: additive(q=t), dq),
        ("additive_attention-keys", lambda t: additive(keys=t), dkeys),
        ("additive_attention-v", lambda t: additive(v=t), dv),
        ("additive_attention-memory", lambda t: additive(memory=t), dmemory),
        ("affine-rows", lambda t: nd.sum_(nd.mul(nd.affine(t, T(w34), T(b3)), T(sel3))), x3),
        ("affine-rows-weight", lambda t: nd.sum_(nd.mul(nd.affine(T(x3), t, T(b3)),
                                                        T(sel3))), w34),
        ("embedding_lookup-grid", lambda t: nd.sum_(nd.mul(
            nd.embedding_lookup(t, [[1, 0], [2, 1]]), T(table_sel3))), table),
        ("embedding_lookup-rows", lambda t: nd.sum_(nd.mul(
            nd.embedding_lookup(t, [2, 0, 2, 1]), T(rows_sel))), rows3),
        ("additive_attention-queries", lambda t: additive(dsel2, q=t), dq2),
        ("additive_attention-queries-keys", lambda t: additive(dsel2, q=T(dq2), keys=t), dkeys),
        ("additive_attention-queries-memory",
         lambda t: additive(dsel2, q=T(dq2), memory=t), dmemory),
        ("target_logprobs", lambda t: head(t, [2, 0, 4], np.ones(3), tlsel2), tl2),
        ("target_logprobs-positions", lambda t: head(t, targets3, np.ones((2, 3)), tlsel3), tl3),
        ("target_logprobs-live", lambda t: head(t, targets3, tlive, tlsel3), tl3),
    ]


@pytest.mark.criterion(1)
def test_criterion1_every_op_matches_finite_differences():
    start = time.perf_counter()
    failures = []
    for trial in range(TRIALS):
        rng = np.random.default_rng(1000 + trial)
        for name, f, x in _op_suite(rng):
            err = grad_check(f, x)
            if err >= 1e-4:
                failures.append(f"{name} trial {trial}: {err:.3e}")
    _timings["criterion1_ops"] = time.perf_counter() - start
    assert not failures, failures


# exports of wugbench.ndiff that are not differentiable ops
_NOT_OPS = {
    "Adam", "CheckpointError", "ContractError", "DROPOUT_STREAM", "INIT_STREAM",
    "SAMPLE_STREAM", "SHUFFLE_STREAM", "ShapeError", "Tensor", "backward",
    "clip_global_norm", "grad_enabled", "load_checkpoint", "no_grad", "parameter",
    "restore_into", "save_checkpoint", "seeded_rng",
}


@pytest.mark.criterion(1)
def test_criterion1_op_suite_covers_every_exported_op():
    # an entry is named after its op, optionally followed by "-<case>"
    covered = {name.split("-")[0] for name, _, _ in _op_suite(np.random.default_rng(0))}
    assert _NOT_OPS <= set(nd.__all__), sorted(_NOT_OPS - set(nd.__all__))
    assert covered == set(nd.__all__) - _NOT_OPS


@pytest.mark.criterion(1)
def test_criterion1_every_architecture_loss_matches_finite_differences():
    # Full-model losses are checked along random directions: the analytic
    # directional derivative against a central difference.  Elementwise
    # probing is meaningless here because sub-1e-8 gradient entries drown
    # in floating-point noise of the O(1) loss evaluations.
    start = time.perf_counter()
    tiny = dict(emb_dim=4, hidden_dim=3, attn_dim=3, enc_layers=2,
                d_model=8, ffn_dim=12, heads=2, enc_blocks=1, dec_blocks=1,
                dropout=0.0)
    failures = []
    for arch in ARCHITECTURES:
        model = build_model(ModelConfig(arch=arch, vocab_size=8, **tiny),
                            nd.seeded_rng(17, nd.INIT_STREAM))
        rng = np.random.default_rng(55)
        for trial in range(TRIALS):
            src = [int(v) for v in rng.integers(3, 8, size=rng.integers(2, 6))]
            tgt = [int(v) for v in rng.integers(3, 8, size=rng.integers(1, 5))] + [cp.EOS]
            err = directional_grad_error(model, src, tgt, rng)
            if err >= 1e-4:
                failures.append(f"{arch} trial {trial}: {err:.3e}")
    elapsed = time.perf_counter() - start
    assert not failures, failures
    total = elapsed + _timings.get("criterion1_ops", 0.0)
    assert total < 60.0, f"criterion 1 took {total:.1f}s, budget is 60s"


# ===========================================================================
# criterion 2: search and statistics match brute-force oracles


@pytest.mark.criterion(2)
@pytest.mark.parametrize("vocab", [3, 4])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_criterion2_beam_matches_enumeration(vocab, width):
    for trial in range(8):
        rng = np.random.default_rng(2000 + 10 * trial + vocab)
        model = random_table_model(rng, vocab_size=vocab, depth=4,
                                   eos_boost=float(rng.uniform(0.5, 2.0)))
        got = beam_search(model, [[3, 3]], width, max_len=5)[0].hyps
        want = enumeration_beam(model, [3, 3], width, max_len=5)
        assert [(h.symbols, h.finished) for h in got] == [
            (symbols, finished) for symbols, _, finished in want]
        for hyp, (_, logprob, _) in zip(got, want):
            assert abs(hyp.logprob - logprob) < 1e-12


@pytest.mark.criterion(2)
def test_criterion2_beam_width_one_is_greedy_bit_exact():
    for trial in range(20):
        rng = np.random.default_rng(2100 + trial)
        model = random_table_model(rng, vocab_size=4, depth=4,
                                   eos_boost=float(rng.uniform(0.5, 3.0)))
        beam = beam_search(model, [[3]], width=1, max_len=5)[0].hyps[0]
        greedy = greedy_decode(model, [[3]], max_len=5)[0]
        assert beam.symbols == greedy.symbols
        assert beam.finished == greedy.finished
        assert beam.logprob == greedy.logprob  # bit-exact, not approximate


def _tiny_transformer(seed: int, vocab: int):
    cfg = ModelConfig(arch="transformer", vocab_size=vocab, d_model=8, ffn_dim=12,
                      heads=2, enc_blocks=1, dec_blocks=1, dropout=0.0)
    return build_model(cfg, nd.seeded_rng(seed, nd.INIT_STREAM))


@pytest.mark.criterion(2)
@pytest.mark.parametrize("vocab", [4, 5])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_criterion2_transformer_beam_matches_enumeration(vocab, width):
    # the transformer steps its live hypotheses as one cached batch; the
    # oracle rescores every candidate from scratch one step at a time
    for trial in range(4):
        model = _tiny_transformer(2200 + 10 * trial + vocab, vocab)
        src = [3, vocab - 1, 3]
        got = beam_search(model, [src], width, max_len=4)[0].hyps
        want = enumeration_beam(model, src, width, max_len=4)
        assert [(h.symbols, h.finished) for h in got] == [
            (symbols, finished) for symbols, _, finished in want]
        for hyp, (_, logprob, _) in zip(got, want):
            assert abs(hyp.logprob - logprob) < 1e-12


@pytest.mark.criterion(2)
def test_criterion2_transformer_beam_width_one_is_greedy_bit_exact():
    for trial in range(10):
        model = _tiny_transformer(2300 + trial, 5)
        src = [3, 4, 3, 4][:2 + trial % 3]
        beam = beam_search(model, [src], width=1, max_len=6)[0].hyps[0]
        greedy = greedy_decode(model, [src], max_len=6)[0]
        assert beam.symbols == greedy.symbols
        assert beam.finished == greedy.finished
        assert beam.logprob == greedy.logprob  # bit-exact, not approximate


@pytest.mark.criterion(2)
def test_criterion2_correlations_match_brute_force_on_1000_vectors():
    rng = np.random.default_rng(22)
    for case in range(1000):
        n = int(rng.integers(2, 26))
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        if case % 2:  # half the cases carry ties
            x = np.round(x, 1)
            y = np.round(y, 1)
        xs, ys = x.tolist(), y.tolist()
        for ours, oracle in ((pearson(xs, ys).statistic, pearson_oracle(xs, ys)),
                             (spearman(xs, ys).statistic, spearman_oracle(xs, ys))):
            if math.isnan(oracle):
                assert math.isnan(ours)
            else:
                assert abs(ours - oracle) <= 1e-12


# ===========================================================================
# criterion 3: forced scoring is consistent with stepwise decoding


def _criterion3_models():
    tiny = dict(emb_dim=4, hidden_dim=3, attn_dim=3, enc_layers=2,
                d_model=8, ffn_dim=12, heads=2, enc_blocks=1, dec_blocks=1,
                dropout=0.0)
    rng = nd.seeded_rng(5, nd.INIT_STREAM)
    for arch in ARCHITECTURES:
        fresh = build_model(ModelConfig(arch=arch, vocab_size=10, **tiny),
                            nd.seeded_rng(3, nd.INIT_STREAM))
        yield f"{arch}-untrained", fresh
        trained = build_model(ModelConfig(arch=arch, vocab_size=10, **tiny),
                              nd.seeded_rng(4, nd.INIT_STREAM))
        optim = nd.Adam(trained.params, lr=1e-2)
        data_rng = np.random.default_rng(71)
        for _ in range(5):
            optim.zero_grad()
            src = [int(v) for v in data_rng.integers(3, 10, size=4)]
            tgt = [int(v) for v in data_rng.integers(3, 10, size=3)] + [cp.EOS]
            nd.backward(trained.loss(src, tgt, train=False))
            optim.step()
        yield f"{arch}-trained", trained


@pytest.mark.criterion(3)
def test_criterion3_force_score_equals_chained_steps():
    rng = np.random.default_rng(500)
    for label, model in _criterion3_models():
        for _ in range(TRIALS):
            src = [int(v) for v in rng.integers(3, 10, size=rng.integers(2, 7))]
            tgt = [int(v) for v in rng.integers(3, 10, size=rng.integers(1, 6))] + [cp.EOS]
            score = force_score(model, [(src, tgt)])[0]
            chained = chained_logprobs(model, src, tgt)
            assert abs(score.raw_logprob - chained.sum()) < 1e-9, label
            np.testing.assert_allclose(score.step_logprobs, chained, atol=1e-9)
            # k characters plus the end-of-sequence factor
            want_norm = math.exp(score.raw_logprob / len(tgt))
            assert abs(score.normalized_prob - want_norm) < 1e-12, label
            loss = model.loss(src, tgt, train=False).item()
            assert abs(loss + score.raw_logprob) < 1e-9, label


# ===========================================================================
# criterion 4: parameter budgets


@pytest.mark.criterion(4)
def test_criterion4_param_counts_match_published_budgets():
    # the published counts correspond to an English-run alphabet of ~45
    counts = {
        arch: count_parameters(build_model(ModelConfig(arch, vocab_size=45),
                                           nd.seeded_rng(0, nd.INIT_STREAM)))
        for arch in ARCHITECTURES
    }
    for arch, published in PUBLISHED_PARAM_COUNTS.items():
        rel = abs(counts[arch] - published) / published
        assert rel <= PARAM_COUNT_TOLERANCE, (
            f"{arch}: {counts[arch]} vs published {published} ({rel:.1%})")
    ours_order = sorted(counts, key=counts.get)
    published_order = sorted(PUBLISHED_PARAM_COUNTS, key=PUBLISHED_PARAM_COUNTS.get)
    assert ours_order == published_order


# ===========================================================================
# criteria 5-7: desk-scale reproduction (gated on real data)


def _desk_run(lang: str) -> dict:
    """Summary of a desk-scale run, training one if no finished dir is given."""
    if os.environ.get("WUGBENCH_DESK") != "1":
        pytest.skip("desk-scale reproduction: set WUGBENCH_DESK=1 with data paths")
    run_dir = os.environ.get(f"WUGBENCH_{lang.upper()}_RUN")
    if run_dir:
        summary_path = Path(run_dir) / "summary.json"
        if not summary_path.exists():
            pytest.skip(f"{summary_path} not found")
        return json.loads(summary_path.read_text(encoding="utf-8"))
    data = os.environ.get(f"WUGBENCH_{lang.upper()}_DATA")
    wugs = os.environ.get(f"WUGBENCH_{lang.upper()}_WUGS")
    if not data:
        pytest.skip(f"desk-scale reproduction: set WUGBENCH_{lang.upper()}_DATA")
    config = ExperimentConfig(
        out_dir=f"desk_{lang}", dataset=data, wugs=wugs,
        seeds=tuple(range(1, 11)), epochs=50)
    return run_experiment(config)


def _mean_acc(summary: dict, arch: str, cls: str) -> float:
    return summary["models"][arch]["test_accuracy"][cls]["mean"]


def _mean_f1(summary: dict, arch: str, cls: str) -> float:
    return summary["models"][arch]["test_f1"][cls]["mean"]


@pytest.mark.criterion(5)
def test_criterion5_english_accuracy_gates():
    summary = _desk_run("en")
    assert _mean_acc(summary, "transformer", "regular") >= 95.0
    assert _mean_acc(summary, "bilstm_attn", "regular") >= 93.0
    assert (_mean_acc(summary, "bilstm_attn", "regular")
            - _mean_acc(summary, "bilstm_noattn", "regular")) >= 8.0
    assert (_mean_acc(summary, "unilstm_attn", "regular")
            - _mean_acc(summary, "unilstm_noattn", "regular")) >= 8.0


@pytest.mark.criterion(6)
def test_criterion6_german_f1_gates():
    summary = _desk_run("de")
    for arch in ("bilstm_attn", "unilstm_attn"):
        assert _mean_f1(summary, arch, "(e)n") >= 88.0
        assert _mean_f1(summary, arch, "zero") >= 88.0
    attn_e = min(_mean_f1(summary, a, "e") for a in ("bilstm_attn", "unilstm_attn"))
    noattn_e = max(_mean_f1(summary, a, "e") for a in ("bilstm_noattn", "unilstm_noattn"))
    assert attn_e - noattn_e >= 15.0


@pytest.mark.criterion(7)
def test_criterion7_s_class_correlation_direction():
    summary = _desk_run("de")

    def rho(arch):
        return summary["models"][arch]["rating_correlations"]["s"]["spearman_rho"]

    tf, uni = rho("transformer"), rho("unilstm_noattn")
    assert tf is not None and uni is not None
    assert tf > 0.0
    assert tf > uni
    # flag (never fail) when far from the published point estimates
    for arch, got in (("transformer", tf), ("unilstm_noattn", uni)):
        published = PUBLISHED_S_CLASS_RATING_RHO[arch]
        if abs(got - published) > 0.25:
            print(f"flag: {arch} /-s/ rho {got:.2f} vs published {published:.2f}")


# ===========================================================================
# criterion 8: smoke pipeline


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    rng = np.random.default_rng(2024)
    examples = datagen.make_english(200, rng, irregular_rate=0.25)
    wugs = datagen.make_english_wugs(8, rng, avoid={ex.lemma for ex in examples})
    cp.write_dataset(root / "en.tsv", "en", examples)
    cp.write_wugs(root / "wugs.tsv", wugs)
    out = root / "run"
    config = ExperimentConfig(
        out_dir=str(out),
        dataset=str(root / "en.tsv"),
        wugs=str(root / "wugs.tsv"),
        seeds=(1, 2),
        epochs=5,
    )
    names = ["training_curves.csv", "accuracy.csv", "f1.csv", "ratings.csv",
             "correlations.csv", "productions.csv", "summary.json"]
    start = time.perf_counter()
    summary = run_experiment(config)
    first = {n: (out / n).read_bytes() for n in names}
    run_experiment(config)
    elapsed = time.perf_counter() - start
    second = {n: (out / n).read_bytes() for n in names}
    return config, out, summary, first, second, elapsed


@pytest.mark.slow
@pytest.mark.criterion(8)
def test_criterion8_smoke_report_is_complete(smoke):
    config, out, summary, _, _, _ = smoke
    n_units = len(ARCHITECTURES) * 2

    curves = read_csv_rows(out / "training_curves.csv")
    assert len(curves) == n_units * 5

    acc = read_csv_rows(out / "accuracy.csv")
    for arch in ARCHITECTURES:
        for seed in ("1", "2"):
            classes = {r["class"] for r in acc
                       if r["model"] == arch and r["seed"] == seed}
            assert {"all", "regular", "irregular"} <= classes, (arch, seed)
            for r in acc:
                if r["model"] == arch and r["seed"] == seed:
                    assert r["accuracy"] != ""

    wug_set = cp.parse_wugs(config.wugs)
    n_candidates = sum(len(item.candidates) for item in wug_set.items)
    ratings = read_csv_rows(out / "ratings.csv")
    assert len(ratings) == n_candidates * n_units
    assert all(r["normalized_prob"] != "" for r in ratings)

    corr = read_csv_rows(out / "correlations.csv")
    assert {(r["model"], r["group"]) for r in corr} == {
        (arch, g) for arch in ARCHITECTURES for g in ("all", "regular", "irregular")}

    prods = read_csv_rows(out / "productions.csv")
    assert len(prods) == len(ARCHITECTURES) * len(wug_set.items) * 3

    assert set(summary["models"]) == set(ARCHITECTURES)
    for arch in ARCHITECTURES:
        entry = summary["models"][arch]
        assert not entry["diverged"]
        assert entry["param_count"] > 100_000

    grid = summary["grid"]
    assert grid["missing"] == []
    assert len(grid["cells"]) == len(ARCHITECTURES) * 2  # regular + irregular


@pytest.mark.slow
@pytest.mark.criterion(8)
def test_criterion8_smoke_reruns_are_byte_identical(smoke):
    _, _, _, first, second, _ = smoke
    for name in first:
        assert second[name] == first[name], f"{name} differs between runs"


@pytest.mark.slow
@pytest.mark.criterion(8)
def test_criterion8_smoke_fits_time_budget(smoke):
    _, _, _, _, _, elapsed = smoke
    assert elapsed < 600.0, f"two smoke runs took {elapsed:.0f}s"
