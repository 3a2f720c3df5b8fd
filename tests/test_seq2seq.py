"""Architecture construction, parameter budgets, and decode/loss agreement."""

import math

import numpy as np
import pytest

import datagen
from oracles import directional_grad_error, grad_check, interior_nodes, op_counts
from wugbench.corpus import build_alphabet
from wugbench.decode import greedy_decode
from wugbench.ndiff import (
    INIT_STREAM,
    Adam,
    ContractError,
    Tensor,
    backward,
    restore_into,
    save_checkpoint,
    seeded_rng,
)
from wugbench.seq2seq import (
    ARCHITECTURES,
    LSTM_ARCHITECTURES,
    ModelConfig,
    build_model,
    count_parameters,
)
from wugbench.seq2seq.model import Seq2Seq
from wugbench.seq2seq.transformer import positional_encoding

TINY = dict(emb_dim=4, hidden_dim=3, attn_dim=3, enc_layers=2,
            d_model=8, ffn_dim=12, heads=2, enc_blocks=1, dec_blocks=1)


def tiny_model(arch, vocab=8, seed=0, dropout=0.3):
    cfg = ModelConfig(arch=arch, vocab_size=vocab, dropout=dropout, **TINY)
    return build_model(cfg, seeded_rng(seed, INIT_STREAM))


# ---------------------------------------------------------------------------
# configuration


def test_architecture_lists():
    assert ARCHITECTURES == ("bilstm_attn", "bilstm_noattn", "unilstm_attn",
                             "unilstm_noattn", "transformer")
    assert set(LSTM_ARCHITECTURES) == set(ARCHITECTURES) - {"transformer"}


def test_config_flags():
    assert ModelConfig("bilstm_attn", 10).bidirectional
    assert ModelConfig("bilstm_attn", 10).attention
    assert not ModelConfig("unilstm_noattn", 10).bidirectional
    assert not ModelConfig("bilstm_noattn", 10).attention
    assert ModelConfig("unilstm_attn", 10).attention


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig("gru", 10)
    with pytest.raises(ValueError):
        ModelConfig("transformer", 0)
    with pytest.raises(ValueError):
        ModelConfig("transformer", 10, dropout=1.5)
    with pytest.raises(ValueError):
        ModelConfig("transformer", 10, d_model=10, heads=4)  # not divisible


def test_config_roundtrip_and_overrides():
    cfg = ModelConfig("bilstm_attn", 45)
    assert ModelConfig(**cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_init_is_seed_deterministic(arch):
    a = tiny_model(arch, seed=4)
    b = tiny_model(arch, seed=4)
    c = tiny_model(arch, seed=5)
    assert list(a.params) == list(b.params) == list(c.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert any(
        not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
    )


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_model_built_without_rng_takes_a_checkpoint(arch):
    # a checkpoint load allocates the parameters without drawing them, then
    # restores every one; names, order and shapes match a drawn model's
    drawn = tiny_model(arch, seed=4)
    cfg = ModelConfig(arch=arch, vocab_size=8, dropout=0.3, **TINY)
    blank = build_model(cfg)
    assert [(n, p.shape) for n, p in blank.params.items()] == [
        (n, p.shape) for n, p in drawn.params.items()]
    restore_into(blank.params, {n: p.data for n, p in drawn.params.items()})
    pair = ([3, 4, 5], [6, 7, 2])
    assert blank.loss(*pair, train=False).item() == drawn.loss(*pair, train=False).item()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_every_parameter_requires_grad(arch):
    model = tiny_model(arch)
    assert model.params
    for p in model.params.values():
        assert p.requires_grad
        assert p.data.dtype == np.float64


def test_attention_params_only_when_attending():
    assert any(n.startswith("attn.") for n in tiny_model("bilstm_attn").params)
    assert any(n.startswith("attn.") for n in tiny_model("unilstm_attn").params)
    assert not any(n.startswith("attn.") for n in tiny_model("bilstm_noattn").params)
    assert not any(n.startswith("attn.") for n in tiny_model("unilstm_noattn").params)


def test_forget_gate_bias_starts_open():
    model = tiny_model("unilstm_noattn")
    h = TINY["hidden_dim"]
    for name, p in model.params.items():
        if name.endswith(".b") and ("enc." in name or name.startswith("dec.")):
            np.testing.assert_array_equal(p.data[h:2 * h], 1.0)
            np.testing.assert_array_equal(p.data[:h], 0.0)


def test_count_parameters_matches_manual_sum():
    model = tiny_model("bilstm_attn")
    assert count_parameters(model) == sum(p.data.size for p in model.params.values())


@pytest.mark.parametrize("vocab", [45, 65])
def test_relative_parameter_ordering(vocab):
    counts = {
        arch: count_parameters(build_model(ModelConfig(arch, vocab),
                                           seeded_rng(0, INIT_STREAM)))
        for arch in ARCHITECTURES
    }
    assert counts["transformer"] > counts["bilstm_attn"] > counts["bilstm_noattn"]
    assert counts["bilstm_noattn"] > counts["unilstm_attn"] > counts["unilstm_noattn"]


# ---------------------------------------------------------------------------
# decode/loss agreement


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_decode_step_returns_distribution(arch):
    model = tiny_model(arch)
    state = model.encode([[3, 4, 5]])
    (probs,), state = model.decode_step_batch(state, [1])
    assert probs.shape == (8,)
    assert np.all(probs >= 0)
    assert math.isclose(probs.sum(), 1.0, rel_tol=1e-9)
    (probs2,), _ = model.decode_step_batch(state, [3])
    assert math.isclose(probs2.sum(), 1.0, rel_tol=1e-9)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_loss_equals_chained_step_nll(arch):
    model = tiny_model(arch, seed=11)
    src = [3, 4, 5, 6]
    tgt = [4, 3, 7, 2]  # ends with the end-of-sequence id
    loss = model.loss(src, tgt, train=False).item()

    state = model.encode([src])
    prev = 1
    total = 0.0
    for sym in tgt:
        (probs,), state = model.decode_step_batch(state, [prev])
        total -= math.log(probs[sym])
        prev = sym
    assert abs(loss - total) < 1e-9


def test_transformer_forced_logprobs_match_steps():
    model = tiny_model("transformer", seed=3)
    src = [3, 4, 5]
    tgt = [5, 6, 2]
    lps = model.teacher_forced_logprobs([(src, tgt)]).data
    assert lps.shape == (1, 3)
    state = model.encode([src])
    prev = 1
    for i, sym in enumerate(tgt):
        (probs,), state = model.decode_step_batch(state, [prev])
        assert abs(lps[0, i] - math.log(probs[sym])) < 1e-9
        prev = sym
    # a longer target pads the first row, which reads 0 past its end
    lps = model.teacher_forced_logprobs([(src, tgt), (src, [5, 6, 7, 2])]).data
    assert lps.shape == (2, 4) and lps[0, 3] == 0.0 and np.all(lps[:, :3] < 0.0)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_batch_loss_matches_per_example_sum(arch):
    # sources and targets of unequal lengths, so both sides of the batch are
    # padded and a bidirectional encoder meets padding in both directions;
    # with dropout off the padded graph must add nothing.  Then sources of
    # one length, whose padding mask hides no position
    model = tiny_model(arch, seed=13, dropout=0.0)
    for pairs in ([([3, 4, 5, 6, 7], [4, 2]), ([5], [6, 7, 3, 4, 2]), ([4, 6, 3], [5, 6, 7, 2])],
                  [([3, 4, 5], [4, 2]), ([6, 7, 3], [5, 6, 7, 2]), ([5, 5, 4], [6, 2])]):
        for p in model.params.values():
            p.grad = None
        batch = model.batch_loss(pairs, train=True)
        backward(batch)
        batch_grads = {n: p.grad for n, p in model.params.items()}
        for p in model.params.values():
            p.grad = None
        total = 0.0
        for src, tgt in pairs:
            loss = model.loss(src, tgt, train=True)
            total += loss.item()
            backward(loss)
        assert abs(batch.item() - total) < 1e-9
        for name, p in model.params.items():
            assert batch_grads[name] is not None and p.grad is not None, name
            np.testing.assert_allclose(batch_grads[name], p.grad, rtol=0, atol=1e-9,
                                       err_msg=name)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_batch_loss_over_a_repeated_source_matches_finite_differences(arch):
    # three pairs of one source among others share its encoder pass, which
    # a gather hands to each of them; the source embedding's gradient sums
    # their parts.  Every parameter is redrawn at unit scale: at the
    # init's scale the LSTMs' gradients lie near 1e-8 to 1e-5, where the
    # differences' rounding alone is 1e-4 of them
    model = tiny_model(arch, seed=17, dropout=0.0)
    rng = np.random.default_rng(17)
    for p in model.params.values():
        p.data = rng.normal(size=p.shape)
    pairs = [([3, 4, 5], [6, 2]), ([7, 6], [4, 5, 2]), ([3, 4, 5], [7, 3, 4, 2]),
             ([3, 4, 5], [5, 2])]
    table = model.params["emb.src"]

    def loss(t):
        model.params["emb.src"] = t
        return model.batch_loss(pairs)

    err = grad_check(loss, table.data)
    assert err < 1e-4, f"gradient error {err:.3e}"


@pytest.mark.parametrize("arch", LSTM_ARCHITECTURES)
def test_lstm_training_graph_size(arch):
    # one lstm node per direction and layer runs the whole source, so the
    # training graph does not grow with the source width
    model = tiny_model(arch, vocab=12)
    tgts = [[7, 8, 2], [6, 10, 11, 3, 2]]
    sizes = [
        interior_nodes(model.batch_loss(list(zip(srcs, tgts)), rng=np.random.default_rng(0)))
        for srcs in ([[3, 4, 5, 6], [5, 9]], [[3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 4, 5], [5, 9]])
    ]
    assert sizes[0] == sizes[1], sizes


# op nodes of one default-dims training loss with dropout on: each layer
# norm, attention, lstm and the loss head is one node, and no architecture
# reshapes
NODE_CEILINGS = {"transformer": 158, "bilstm_attn": 102, "bilstm_noattn": 78,
                 "unilstm_attn": 91, "unilstm_noattn": 69}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_training_graph_node_ceiling(arch):
    examples = datagen.make_english(32, np.random.default_rng(1))
    alphabet = build_alphabet(examples)
    pairs = [(alphabet.encode_source(ex.tags, ex.lemma), alphabet.encode_target(ex.form))
             for ex in examples]
    model = build_model(ModelConfig(arch, len(alphabet)), seeded_rng(0, INIT_STREAM))
    counts = op_counts(model.batch_loss(pairs, rng=np.random.default_rng(0), train=True))
    assert sum(counts.values()) <= NODE_CEILINGS[arch], counts
    assert counts["reshape"] == 0, counts


def test_transformer_checkpoint_size(tmp_path):
    # a binary checkpoint is its float64 payload plus zip and .npy headers;
    # a text format would be about 2.7 times the payload
    model = build_model(ModelConfig("transformer", 45), seeded_rng(0, INIT_STREAM))
    path = tmp_path / "transformer-seed1.npz"
    save_checkpoint(path, model.params, meta={"arch": "transformer"})
    assert path.stat().st_size <= 8 * count_parameters(model) + 64 * 1024


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_batched_step_matches_single_steps(arch):
    # rows of sources of different lengths, so the encoder and the
    # cross-attention meet padding; the rows are reordered with repeats,
    # as beam search moves hypotheses by parent index
    model = tiny_model(arch, seed=8)
    sources = [[3, 4, 5], [6], [4, 3, 7, 5, 6]]
    _, started = model.decode_step_batch(model.encode(sources), [1, 1, 1])
    parents = [2, 0, 0, 1, 2]
    _, state = model.decode_step_batch(started.take(parents), [3, 4, 5, 6, 7])
    assert len(state) == 5
    prevs = [6, 3, 7, 4, 5]
    probs, stepped = model.decode_step_batch(state, prevs)
    assert probs.shape == (5, 8)
    for i, (parent, prev) in enumerate(zip(parents, prevs)):
        # the same row decoded alone, from its own one-source encoding
        single = model.encode([sources[parent]])
        for fed in (1, [3, 4, 5, 6, 7][i]):
            _, single = model.decode_step_batch(single, [fed])
        (single_probs,), single = model.decode_step_batch(single, [prev])
        np.testing.assert_allclose(probs[i], single_probs, rtol=0, atol=1e-12)
        # the stepped rows carry on exactly like singly stepped ones
        np.testing.assert_allclose(model.decode_step_batch(stepped.take([i]), [4])[0][0],
                                   model.decode_step_batch(single, [4])[0][0],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forks_past_the_store_capacity_match_fresh_chains(arch):
    # rows forked with repeats across interleaved sources, up to 240 at
    # once over 21 steps, so the store the forks share grows many times;
    # every row's distribution equals its own single-source chain, stepped
    # alone from a fresh encoding
    model = tiny_model(arch, seed=5)
    sources = [[3, 4, 5], [6], [4, 3, 7, 5, 6], [7, 7]]
    rng = np.random.default_rng(11)
    state, src, fed = model.encode(sources), list(range(len(sources))), [[] for _ in sources]
    for step in range(21):
        prevs = [int(v) for v in rng.integers(1, 8, size=len(state))]
        probs, state = model.decode_step_batch(state, prevs)
        fed = [ids + [prev] for ids, prev in zip(fed, prevs)]
        if step == 6:  # a fork, stepped once now and once after every later step
            kept = state.take([5, 0, 5])
            kept_probs, _ = model.decode_step_batch(kept, [3, 4, 3])
        parents = rng.integers(0, len(state), size=min(240, 3 * len(state)))
        state, src, fed = state.take(parents), [src[p] for p in parents], [fed[p] for p in parents]
    assert len(state) == 240
    for i, (source, ids) in enumerate(zip(src, fed)):
        single = model.encode([sources[source]])
        for fed_id in ids:
            (single_probs,), single = model.decode_step_batch(single, [fed_id])
        np.testing.assert_allclose(probs[parents[i]], single_probs, rtol=0, atol=1e-12)
    # no fork's steps changed what the early fork reads
    np.testing.assert_array_equal(model.decode_step_batch(kept, [3, 4, 3])[0], kept_probs)


class _Appender(Seq2Seq):
    """A decoder whose step appends to the histories ``plan[position]``."""

    def __init__(self, plan):
        self.plan = plan

    def _encode(self, src, live, train, rng):
        return (), ()

    def _step(self, rows, shared, live, prev_ids, step):
        for name in self.plan[step.length]:
            step.append(name, Tensor(np.zeros((len(prev_ids), 1, 2))))
        return Tensor(np.zeros((len(prev_ids), 1, 3))), ()


@pytest.mark.parametrize("plan, match", [
    ([["k", "v"], ["k", "v", "k"]], "twice"),  # would overwrite this step's slot
    ([["k", "v"], ["k"]], "every history"),
])
def test_a_step_appends_to_every_history_once(plan, match):
    model = _Appender(plan)
    _, state = model.decode_step_batch(model.encode([[3], [4, 5]]), [1, 1])
    with pytest.raises(ContractError, match=match):
        model.decode_step_batch(state, [2, 2])


def test_transformer_decoder_is_causal():
    # the forced score of a shared prefix must not depend on the suffix
    model = tiny_model("transformer", seed=9)
    src = [3, 4]
    a = model.teacher_forced_logprobs([(src, [5, 6, 2])]).data[0]
    b = model.teacher_forced_logprobs([(src, [5, 7, 3])]).data[0]
    np.testing.assert_allclose(a[:1], b[:1], atol=1e-12)
    c = model.teacher_forced_logprobs([(src, [5, 6, 3])]).data[0]
    np.testing.assert_allclose(a[:2], c[:2], atol=1e-12)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_decode_step_is_pure(arch):
    # stepping twice from the same state must give identical distributions
    model = tiny_model(arch)
    state = model.encode([[3, 4]])
    (p1,), first = model.decode_step_batch(state, [1])
    (p2,), _ = model.decode_step_batch(state, [1])
    np.testing.assert_array_equal(p1, p2)
    # fork: step one state with two different ids, then continue the first
    # branch; it must equal a fresh chain, so no step writes into a state
    # another branch still holds
    _, left = model.decode_step_batch(first, [5])
    model.decode_step_batch(first, [6])
    (forked,), _ = model.decode_step_batch(left, [7])
    _, fresh = model.decode_step_batch(model.encode([[3, 4]]), [1])
    _, fresh = model.decode_step_batch(fresh, [5])
    (chained,), _ = model.decode_step_batch(fresh, [7])
    np.testing.assert_array_equal(forked, chained)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_loss_eval_mode_is_deterministic(arch):
    model = tiny_model(arch)
    src, tgt = [3, 4, 5], [6, 7, 2]
    a = model.loss(src, tgt, train=False).item()
    b = model.loss(src, tgt, train=False).item()
    assert a == b


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_dropout_changes_training_loss(arch):
    model = tiny_model(arch, dropout=0.5)
    src, tgt = [3, 4, 5], [6, 7, 2]
    a = model.loss(src, tgt, rng=seeded_rng(1), train=True).item()
    b = model.loss(src, tgt, rng=seeded_rng(2), train=True).item()
    assert a != b
    # same seed gives the same mask and the same loss
    c = model.loss(src, tgt, rng=seeded_rng(1), train=True).item()
    assert a == c


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_gradient_reaches_every_parameter(arch):
    model = tiny_model(arch, seed=2)
    loss = model.loss([3, 4, 5], [6, 7, 2], train=False)
    backward(loss)
    dead = [n for n, p in model.params.items()
            if p.grad is None or not np.any(p.grad)]
    assert not dead, f"no gradient reached: {dead}"


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_directional_gradient_accuracy(arch):
    rng = np.random.default_rng(31)
    model = tiny_model(arch, seed=6)
    err = directional_grad_error(model, [3, 4, 5, 6], [7, 5, 2], rng)
    assert err < 1e-5, f"directional gradient error {err:.3e}"


# ---------------------------------------------------------------------------
# transformer pieces


def test_positional_encoding_shape_and_values():
    pe = positional_encoding(6, 8)
    assert pe.shape == (6, 8)
    np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-12)   # sin(0)
    np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-12)   # cos(0)
    assert abs(pe[3, 0] - math.sin(3.0)) < 1e-12


def test_positional_encoding_of_odd_width_follows_the_formula():
    pe = positional_encoding(7, 9)
    want = [[(math.sin if j % 2 == 0 else math.cos)(p / 10000.0 ** (2 * (j // 2) / 9))
             for j in range(9)] for p in range(7)]
    np.testing.assert_allclose(pe, want, rtol=0, atol=1e-12)


def test_transformer_of_odd_width_trains_and_decodes():
    cfg = ModelConfig(arch="transformer", vocab_size=8, d_model=9, ffn_dim=12, heads=3,
                      enc_blocks=1, dec_blocks=1)
    model = build_model(cfg, seeded_rng(0, INIT_STREAM))
    loss = model.batch_loss([([3, 4, 5], [6, 2]), ([7], [5, 4, 2])], np.random.default_rng(0))
    backward(loss)
    Adam(model.params).step()
    assert math.isfinite(loss.item())
    assert all(np.isfinite(p.data).all() for p in model.params.values())
    hyps = greedy_decode(model, [[3, 4, 5], [7]], max_len=5)
    assert len(hyps) == 2 and all(len(h.symbols) <= 5 for h in hyps)
