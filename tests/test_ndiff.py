"""Gradient, optimizer, rng, and checkpoint behavior of the autodiff core."""

import io
import json
import math
import os
import re
import stat
import threading
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import composed_target_logprobs, grad_check
from test_seq2seq import tiny_model
from wugbench import ndiff as nd
from wugbench.seq2seq import ARCHITECTURES

TRIALS = 10
TOL = 1e-4


def _rng(trial: int) -> np.random.Generator:
    return np.random.default_rng(900 + trial)


def _check(f, x, tol=TOL):
    data = x.data if isinstance(x, nd.Tensor) else x
    err = grad_check(f, data)
    assert err < tol, f"gradient error {err:.3e}"


# ---------------------------------------------------------------------------
# elementwise and reduction ops


@pytest.mark.parametrize("trial", range(TRIALS))
def test_arithmetic_grads(trial):
    rng = _rng(trial)
    a = nd.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = nd.Tensor(rng.normal(size=(4, 3)) + 3.0)
    _check(lambda t: nd.sum_(nd.add(t, b)), a)
    _check(lambda t: nd.sum_(nd.mul(t, b)), a)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_broadcast_grads(trial):
    rng = _rng(trial)
    a = nd.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    row_vec = nd.Tensor(rng.normal(size=(4,)), requires_grad=True)
    scalar = nd.Tensor(rng.normal(), requires_grad=True)
    _check(lambda t: nd.sum_(nd.mul(a, t)), row_vec)
    _check(lambda t: nd.sum_(nd.add(t, row_vec)), a)
    _check(lambda t: nd.sum_(nd.mul(a, t)), scalar)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_nonlinearity_grads(trial):
    rng = _rng(trial)
    x = nd.Tensor(rng.normal(size=(6,)), requires_grad=True)
    # keep relu inputs away from the kink
    off = nd.Tensor(np.where(np.abs(x.data) < 0.1, x.data + 0.5, x.data),
                    requires_grad=True)
    _check(lambda t: nd.sum_(nd.tanh(t)), x)
    _check(lambda t: nd.sum_(nd.relu(t)), off)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_reduction_grads(trial):
    rng = _rng(trial)
    x = nd.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = nd.Tensor(rng.normal(size=(3, 4)))
    _check(lambda t: nd.sum_(nd.mul(nd.sum_(t, axis=0), nd.Tensor(w.data[0]))), x)


# ---------------------------------------------------------------------------
# linear algebra and shaping ops


@pytest.mark.parametrize("trial", range(TRIALS))
def test_affine_grads(trial):
    rng = _rng(trial)
    w = nd.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = nd.Tensor(rng.normal(size=(3,)), requires_grad=True)
    x1 = nd.Tensor(rng.normal(size=(5,)), requires_grad=True)
    x2 = nd.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    _check(lambda t: nd.sum_(nd.affine(x2, t, b)), w)
    _check(lambda t: nd.sum_(nd.affine(x2, w, t)), b)
    _check(lambda t: nd.sum_(nd.affine(t, w, b)), x2)
    _check(lambda t: nd.sum_(nd.affine(t, w)), x2)
    # any leading shape runs as rows: none, and [2, 3]
    x3 = rng.normal(size=(2, 3, 5))
    sel = nd.Tensor(rng.normal(size=(2, 3, 3)))
    _check(lambda t: nd.sum_(nd.mul(nd.affine(t, w, b), nd.Tensor(sel.data[0, 0]))), x1)
    _check(lambda t: nd.sum_(nd.mul(nd.affine(t, w, b), sel)), x3)
    _check(lambda t: nd.sum_(nd.mul(nd.affine(nd.Tensor(x3), t, b), sel)), w)
    _check(lambda t: nd.sum_(nd.mul(nd.affine(nd.Tensor(x3), w, t), sel)), b)
    out = nd.affine(nd.Tensor(x3), w, b).data
    np.testing.assert_array_equal(out, nd.affine(nd.Tensor(x3.reshape(6, 5)), w, b).data
                                  .reshape(2, 3, 3))


@pytest.mark.parametrize("trial", range(TRIALS))
def test_shaping_grads(trial):
    rng = _rng(trial)
    x = nd.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    y = nd.Tensor(rng.normal(size=(2, 6)))
    _check(lambda t: nd.sum_(nd.mul(nd.concat([t, nd.Tensor(y.data)], axis=0),
                                    nd.Tensor(np.arange(36.0).reshape(6, 6)))), x)
    _check(lambda t: nd.sum_(nd.mul(nd.narrow(t, 1, 2, 3),
                                    nd.Tensor(np.arange(12.0).reshape(4, 3)))), x)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_stack_and_lookup_grads(trial):
    rng = _rng(trial)
    table = nd.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    ids = [2, 0, 2, 6]  # repeated id: grads must accumulate on that row
    sel = nd.Tensor(rng.normal(size=(4, 4)))
    _check(lambda t: nd.sum_(nd.mul(nd.embedding_lookup(t, ids), sel)), table)
    # ids of any shape: [2, 2] -> [2, 2, dim]
    grid = [[2, 0], [2, 6]]
    _check(lambda t: nd.sum_(nd.mul(nd.embedding_lookup(t, grid),
                                    nd.Tensor(sel.data.reshape(2, 2, 4)))), table)


# ---------------------------------------------------------------------------
# composite neural ops


@pytest.mark.parametrize("trial", range(TRIALS))
def test_softmax_grads(trial):
    # the loss head: log softmax read at the targets, over rows and over
    # [B, T] positions, some of them dead
    rng = _rng(trial)
    x = nd.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    sel = nd.Tensor(rng.normal(size=(3,)))
    _check(lambda t: nd.sum_(nd.mul(nd.target_logprobs(t, [4, 0, 4], np.ones(3)), sel)), x)
    x3 = nd.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    sel3 = nd.Tensor(rng.normal(size=(2, 3)))
    live = np.array([[1, 1, 0], [1, 0, 0]])
    _check(lambda t: nd.sum_(nd.mul(nd.target_logprobs(t, [[1, 2, 3], [0, 0, 4]], live),
                                    sel3)), x3)


def test_target_logprobs_is_bit_identical_to_composed_ops():
    # the one node equals log_softmax then gather, forward and backward,
    # bit for bit; a dead position reads 0 and passes no gradient
    rng = _rng(0)
    for batch, width, vocab in ((1, 1, 2), (3, 7, 11), (5, 4, 40)):
        logits = rng.normal(scale=4.0, size=(batch, width, vocab))
        targets = rng.integers(0, vocab, size=(batch, width))
        live = rng.random((batch, width)) < 0.7
        g = rng.normal(size=(batch, width))
        leaf = nd.Tensor(logits, requires_grad=True)
        out = nd.target_logprobs(leaf, targets, live)
        nd.backward(nd.sum_(nd.mul(out, nd.Tensor(g))))
        forward, grad = composed_target_logprobs(logits, targets, live, g)
        assert np.array_equal(out.data, forward)
        assert np.array_equal(leaf.grad, grad)
        assert not np.any(out.data[~live]) and not np.any(leaf.grad[~live])


@pytest.mark.parametrize("trial", range(TRIALS))
def test_layer_norm_grads(trial):
    rng = _rng(trial)
    x = nd.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    gain = nd.Tensor(rng.uniform(0.5, 1.5, size=(8,)), requires_grad=True)
    bias = nd.Tensor(rng.normal(size=(8,)), requires_grad=True)
    sel = nd.Tensor(rng.normal(size=(4, 8)))
    _check(lambda t: nd.sum_(nd.mul(nd.layer_norm(t, gain, bias), sel)), x)
    _check(lambda t: nd.sum_(nd.mul(nd.layer_norm(x, t, bias), sel)), gain)
    _check(lambda t: nd.sum_(nd.mul(nd.layer_norm(x, gain, t), sel)), bias)
    flat = x.data.copy()
    flat[2] = flat[2, 0]  # a zero-variance row
    _check(lambda t: nd.sum_(nd.mul(nd.layer_norm(t, gain, bias), sel)), flat)


def test_layer_norm_constant_row_lands_on_bias():
    rng = _rng(0)
    x = nd.Tensor(np.vstack([np.full(8, 3.7), rng.normal(size=8)]), requires_grad=True)
    gain = nd.Tensor(rng.uniform(0.5, 1.5, size=(8,)), requires_grad=True)
    bias = nd.Tensor(rng.normal(size=(8,)), requires_grad=True)
    out = nd.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data[0], bias.data, rtol=0, atol=1e-9)
    nd.backward(nd.sum_(nd.mul(out, nd.Tensor(rng.normal(size=(2, 8))))))
    for t in (x, gain, bias):
        assert np.all(np.isfinite(t.grad))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """[B, heads, T, d_head] -> [B, T, heads * d_head]."""
    return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], -1)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_attention_grads(trial):
    rng = _rng(trial)
    q = nd.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    k = nd.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    v = nd.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    mask = np.ones((3, 5), dtype=bool)
    mask[:, 4] = False
    sel = nd.Tensor(rng.normal(size=(2, 3, 4)))
    _check(lambda t: nd.sum_(nd.mul(nd.scaled_dot_product(t, k, v), sel)), q)
    _check(lambda t: nd.sum_(nd.mul(nd.scaled_dot_product(q, t, v), sel)), k)
    _check(lambda t: nd.sum_(nd.mul(nd.scaled_dot_product(q, k, t, mask), sel)), v)

    # two heads and a padded-key mask [B, 1, 1, S], as the transformer
    # passes them: per-head draws [B, heads, T, d_head], merged to [B, T, D]
    q4 = _merge_heads(rng.normal(size=(2, 2, 3, 4)))
    kv4 = _merge_heads(rng.normal(size=(2, 2, 5, 4)))
    sel4 = nd.Tensor(_merge_heads(rng.normal(size=(2, 2, 3, 4))))
    key_mask = np.ones((2, 1, 1, 5), dtype=bool)
    key_mask[1, ..., 2:] = False

    def attend(q, k, v):
        return nd.sum_(nd.mul(nd.scaled_dot_product(q, k, v, key_mask, heads=2), sel4))

    _check(lambda t: attend(t, nd.Tensor(kv4), nd.Tensor(kv4)), q4)
    _check(lambda t: attend(nd.Tensor(q4), t, nd.Tensor(kv4)), kv4)
    _check(lambda t: attend(nd.Tensor(q4), nd.Tensor(kv4), t), kv4)


def test_multi_head_attention_is_each_head_alone():
    rng = _rng(0)
    heads, d_head = 3, 2
    q = rng.normal(size=(2, 4, heads * d_head))
    k = rng.normal(size=(2, 5, heads * d_head))
    v = rng.normal(size=(2, 5, heads * d_head))
    mask = np.ones((2, 1, 1, 5), dtype=bool)
    mask[0, ..., 3:] = False
    out = nd.scaled_dot_product(nd.Tensor(q), nd.Tensor(k), nd.Tensor(v), mask, heads).data
    cols = [slice(h * d_head, (h + 1) * d_head) for h in range(heads)]
    alone = [nd.scaled_dot_product(nd.Tensor(q[..., c]), nd.Tensor(k[..., c]),
                                   nd.Tensor(v[..., c]), mask).data for c in cols]
    np.testing.assert_allclose(out, np.concatenate(alone, axis=-1), rtol=0, atol=1e-12)


def test_scaled_dot_product_live_mask_is_the_additive_mask():
    # a key mask [B, 1, 1, S] as the transformer passes it: the first row's
    # last two keys are dead, the second row's last four
    rng = _rng(0)
    heads, d_head = 2, 3
    q, k, v = (rng.normal(size=(2, t, heads * d_head)) for t in (4, 5, 5))
    live = np.ones((2, 1, 1, 5), dtype=bool)
    live[0, ..., 3:] = False
    live[1, ..., 1:] = False
    leaves = [nd.Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = nd.scaled_dot_product(*leaves, live, heads)

    # the reference adds -1e9 at dead keys and 0.0 at live ones, bit for bit
    def split(x):
        return x.reshape(*x.shape[:2], heads, -1).transpose(0, 2, 1, 3)

    scores = np.matmul(split(q), split(k).swapaxes(-1, -2)) * (1.0 / math.sqrt(d_head))
    scores = scores + np.where(live, 0.0, -1e9)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(
        out.data, _merge_heads(np.matmul(e / e.sum(axis=-1, keepdims=True), split(v))))

    # dead keys and values neither reach the output nor receive a gradient
    dead = ~live[:, 0, 0, :, None]
    noisy_k, noisy_v = (np.where(dead, 1e6 * rng.normal(size=a.shape), a) for a in (k, v))
    np.testing.assert_array_equal(
        nd.scaled_dot_product(nd.Tensor(q), nd.Tensor(noisy_k), nd.Tensor(noisy_v),
                              live, heads).data, out.data)
    nd.backward(nd.sum_(nd.mul(out, nd.Tensor(rng.normal(size=out.shape)))))
    for leaf in leaves[1:]:
        np.testing.assert_array_equal(leaf.grad[np.broadcast_to(dead, leaf.shape)], 0.0)


def test_attention_by_source_index_equals_gathered_rows():
    # rows in arbitrary source order, unequal rows per source, and source 2
    # with no rows: by index equals each row reading its own gathered copy
    # of its source's keys, values and key mask, forward and backward
    rng = _rng(3)
    heads = 2
    src = np.array([3, 0, 3, 3, 1, 0, 3])
    live = rng.random((4, 6)) < 0.6
    live[:, 0] = True
    q, k, v, sel = (rng.normal(size=shape) for shape in
                    ((7, 2, 8), (4, 6, 8), (4, 6, 8), (7, 2, 8)))
    leaves = [nd.Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = nd.scaled_dot_product(*leaves, live[:, None, None, :], heads, src)
    nd.backward(nd.sum_(nd.mul(out, nd.Tensor(sel))))
    copies = [nd.Tensor(a, requires_grad=True) for a in (q, k, v)]
    q2, k2, v2 = copies[0], *(nd.embedding_lookup(t, src) for t in copies[1:])
    want = nd.scaled_dot_product(q2, k2, v2, live[src][:, None, None, :], heads)
    nd.backward(nd.sum_(nd.mul(want, nd.Tensor(sel))))
    np.testing.assert_allclose(out.data, want.data, rtol=0, atol=1e-12)
    for got, ref in zip(leaves, copies):
        np.testing.assert_allclose(got.grad, ref.grad, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(leaves[1].grad[2], 0.0)

    mask = live[:, None, None, :]
    for bad in ([3, 0, 3, 3, 1, 0],  # one index short
                [3, 0, 3, 3, 1, 0, 4],  # no source 4
                [3, 0, 3, -1, 1, 0, 3],
                src.astype(float),
                src[None]):
        with pytest.raises(nd.ShapeError, match="scaled_dot_product"):
            nd.scaled_dot_product(*leaves, mask, heads, bad)
    with pytest.raises(nd.ShapeError, match="scaled_dot_product"):  # a per-row mask
        nd.scaled_dot_product(*leaves, live[src][:, None, None, :], heads, src)


ATTN_LIVE = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])  # source lengths 4, 2, 1


def _attention_inputs(rng):
    """two queries a row q [B, 2, A], keys [B, S, A], v [A], memory
    [B, S, C] and the boolean mask [B, S] of ``ATTN_LIVE``."""
    batch, width = ATTN_LIVE.shape
    return (rng.normal(size=(batch, 2, 3)), rng.normal(size=(batch, width, 3)),
            rng.normal(size=(3,)), rng.normal(size=(batch, width, 2)),
            ATTN_LIVE == 1)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_additive_attention_grads(trial):
    rng = _rng(trial)
    q, keys, v, memory, mask = _attention_inputs(rng)
    sel = nd.Tensor(rng.normal(size=(len(q), 2, 2)))

    def loss_wrt(which):
        def f(t):
            args = {"q": q, "keys": keys, "v": v, "memory": memory}
            args = {name: nd.Tensor(a) for name, a in args.items()} | {which: t}
            return nd.sum_(nd.mul(nd.additive_attention(args["q"], args["keys"], args["v"],
                                                        args["memory"], mask), sel))
        return f

    for name, var in [("q", q), ("keys", keys), ("v", v), ("memory", memory)]:
        _check(loss_wrt(name), var)


def test_additive_attention_forward_matches_textbook():
    q, keys, v, memory, mask = _attention_inputs(_rng(0))
    leaves = [nd.Tensor(a, requires_grad=True) for a in (q, keys, v, memory)]
    out = nd.additive_attention(*leaves, mask)
    for r, live in enumerate(ATTN_LIVE):
        s = int(live.sum())
        for t in range(q.shape[1]):
            scores = np.array([np.tanh(keys[r, j] + q[r, t]) @ v for j in range(s)])
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            np.testing.assert_allclose(out.data[r, t], weights @ memory[r, :s],
                                       rtol=0, atol=1e-12)
    # padded positions get exactly zero weight: their memory neither
    # reaches the output nor receives a gradient
    noisy = np.where(ATTN_LIVE[..., None] == 1, memory, 1e6)
    np.testing.assert_array_equal(
        nd.additive_attention(*(nd.Tensor(a) for a in (q, keys, v, noisy)), mask).data,
        out.data)
    nd.backward(nd.sum_(out))
    np.testing.assert_array_equal(leaves[3].grad[ATTN_LIVE == 0], 0.0)


# rows dead at their trailing positions: the middle row's last, the last
# row's last two
LSTM_LIVE = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])


def _lstm_inputs(rng, dx):
    """xs [B, T, dx], the start state concat([h, c]) [B, 1, 4], w and b."""
    batch, steps = LSTM_LIVE.shape
    dh = 2
    xs = rng.normal(size=(batch, steps, dx))
    h, c = rng.normal(size=(batch, dh)), rng.normal(size=(batch, dh))
    return (xs, np.concatenate([h, c], axis=1)[:, None], rng.normal(size=(4 * dh, dx + dh)) * 0.5,
            rng.normal(size=(4 * dh,)))


def _textbook_step(x, h, c, w, b):
    """One LSTM step of one row, from the published equations."""
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    dh = len(h)
    z = w @ np.concatenate([x, h]) + b
    i, f, g, o = z[:dh], z[dh:2 * dh], z[2 * dh:3 * dh], z[3 * dh:]
    c2 = sig(f) * c + sig(i) * np.tanh(g)
    return sig(o) * np.tanh(c2), c2


@pytest.mark.parametrize("trial", range(TRIALS))
def test_lstm_grads(trial):
    rng = _rng(trial)
    leaves = {k: nd.Tensor(a, requires_grad=True)
              for k, a in zip(("xs", "state", "w", "b"), _lstm_inputs(rng, dx=4))}
    sel = rng.normal(size=(*LSTM_LIVE.shape, 4))

    def loss(sel, reverse, **leaf):
        a = {**leaves, **leaf}
        return nd.sum_(nd.mul(nd.lstm(a["xs"], a["state"], a["w"], a["b"], LSTM_LIVE, reverse),
                              nd.Tensor(sel)))

    for reverse in (False, True):
        for name, var in leaves.items():
            _check(lambda t: loss(sel, reverse, **{name: t}), var)

    def grads(sel, reverse):
        for var in leaves.values():
            var.grad = None
        nd.backward(loss(sel, reverse))
        return {name: var.grad for name, var in leaves.items()}

    # going forward, the middle row's dead last position holds the state of
    # the position before it, and so passes its gradient straight there
    moved = sel.copy()
    moved[1, 1] += moved[1, 2]
    moved[1, 2] = 0.0
    for name, g in grads(sel, False).items():
        np.testing.assert_array_equal(g, grads(moved, False)[name], err_msg=name)
    # going backward, a dead position holds the start state: a gradient on
    # it alone reaches the start state and nothing else
    only = np.zeros_like(sel)
    only[2, 1:] = sel[2, 1:]
    got = grads(only, True)
    np.testing.assert_array_equal(got["state"][2, 0], sel[2, 1] + sel[2, 2])
    np.testing.assert_array_equal(np.delete(got["state"], 2, axis=0), 0.0)
    for name in ("xs", "w", "b"):
        np.testing.assert_array_equal(got[name], 0.0, err_msg=name)


def test_lstm_forward_matches_textbook():
    xs, hc, w, b = _lstm_inputs(_rng(0), dx=3)
    h, c = np.split(hc[:, 0], 2, axis=1)
    for reverse in (False, True):
        out = nd.lstm(*(nd.Tensor(a) for a in (xs, hc, w, b)), LSTM_LIVE, reverse).data
        for r, live in enumerate(LSTM_LIVE):
            n = int(live.sum())
            state = h[r], c[r]
            for t in (range(n - 1, -1, -1) if reverse else range(n)):
                state = _textbook_step(xs[r, t], *state, w, b)
                np.testing.assert_allclose(out[r, t], np.concatenate(state), rtol=0, atol=1e-12)
            # a dead position keeps the state it was handed, bit for bit:
            # going forward the row's last real one, going backward the start
            held = out[r, n - 1] if not reverse else hc[r, 0]
            for t in range(n, len(live)):
                np.testing.assert_array_equal(out[r, t], held)
    # one step without a mask: every row is live and takes one textbook step
    for reverse in (False, True):
        out = nd.lstm(*(nd.Tensor(a) for a in (xs[:, :1], hc, w, b)), reverse=reverse).data
        for r in range(len(xs)):
            np.testing.assert_allclose(out[r, 0], np.concatenate(
                _textbook_step(xs[r, 0], h[r], c[r], w, b)), rtol=0, atol=1e-12)


def test_dropout_grads_and_scaling():
    x = nd.Tensor(np.ones((200,)), requires_grad=True)
    out = nd.dropout(x, 0.5, train=True, rng=nd.seeded_rng(77))
    kept = out.data != 0.0
    # inverted dropout: survivors scaled by 1/(1-p)
    np.testing.assert_allclose(out.data[kept], 2.0)
    assert 40 < kept.sum() < 160
    nd.backward(nd.sum_(out))
    np.testing.assert_allclose(x.grad[kept], 2.0)
    np.testing.assert_allclose(x.grad[~kept], 0.0)

    # identical rng seed gives an identical mask, so grad_check is valid here
    y = nd.Tensor(np.arange(1.0, 9.0), requires_grad=True)
    _check(lambda t: nd.sum_(nd.dropout(t, 0.4, train=True, rng=nd.seeded_rng(5))), y)


def test_dropout_eval_is_identity():
    x = nd.Tensor(np.arange(6.0), requires_grad=True)
    out = nd.dropout(x, 0.9, train=False)
    np.testing.assert_array_equal(out.data, x.data)
    out2 = nd.dropout(x, 0.0, train=True, rng=nd.seeded_rng(1))
    np.testing.assert_array_equal(out2.data, x.data)
    with pytest.raises(nd.ContractError):
        nd.dropout(x, 0.5, train=True)


# ---------------------------------------------------------------------------
# graph mechanics


def test_backward_accumulates_across_calls():
    x = nd.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    loss = nd.sum_(nd.mul(x, x))
    nd.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 6.0])
    nd.backward(loss)  # second pass adds exactly one more copy
    np.testing.assert_allclose(x.grad, [8.0, 12.0])


def test_backward_fans_in_shared_subgraph():
    x = nd.Tensor(np.array([1.5]), requires_grad=True)
    y = nd.mul(x, x)
    loss = nd.sum_(nd.add(y, y))  # d/dx 2x^2 = 4x
    nd.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_requires_scalar():
    x = nd.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(nd.ContractError):
        nd.backward(nd.mul(x, x))


def test_no_grad_suppresses_graph():
    x = nd.Tensor(np.ones(3), requires_grad=True)
    assert nd.grad_enabled()
    with nd.no_grad():
        assert not nd.grad_enabled()
        y = nd.mul(x, x)
        assert not y.requires_grad
    assert nd.grad_enabled()
    z = nd.mul(x, x)
    assert z.requires_grad


def test_no_grad_in_racing_threads_leaves_recording_on():
    # with one process-wide flag, two threads inside no_grad at once restore
    # each other's "off", and recording can stay off for good
    start = threading.Barrier(2)

    def enter_and_leave(times: int) -> bool:
        start.wait(timeout=60)
        for _ in range(times):
            with nd.no_grad():
                time.sleep(0)  # lets the other thread run inside the block
        return nd.grad_enabled()

    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(enter_and_leave, 200) for _ in range(2)]
        assert [f.result(timeout=60) for f in futures] == [True, True]
    assert nd.grad_enabled()
    x = nd.Tensor(np.ones(3), requires_grad=True)
    assert nd.mul(x, x).requires_grad


def test_no_grad_in_one_thread_keeps_recording_in_another():
    inside, release = threading.Event(), threading.Event()

    def hold():
        with nd.no_grad():
            inside.set()
            release.wait(timeout=60)

    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert inside.wait(timeout=60)
        assert nd.grad_enabled()
        x = nd.Tensor(np.ones(3), requires_grad=True)
        assert nd.mul(x, x).requires_grad
    finally:
        release.set()
        worker.join(timeout=60)
    assert not worker.is_alive()


def test_constant_inputs_get_no_grad():
    a = nd.Tensor(np.ones(3), requires_grad=True)
    b = nd.Tensor(np.ones(3))
    out = nd.sum_(nd.mul(a, b))
    nd.backward(out)
    assert b.grad is None
    np.testing.assert_allclose(a.grad, np.ones(3))


def test_shape_errors_name_the_op():
    a = nd.Tensor(np.ones((2, 3)))
    b = nd.Tensor(np.ones((4, 5)))
    with pytest.raises(nd.ShapeError, match="scaled_dot_product"):
        x = nd.Tensor(np.ones((2, 3, 4)))
        nd.scaled_dot_product(x, x, x, heads=3)  # 3 heads do not divide 4 columns
    with pytest.raises(nd.ShapeError, match="add"):
        nd.add(a, b)
    with pytest.raises(nd.ShapeError, match="affine"):
        nd.affine(nd.Tensor(np.ones(7)), nd.Tensor(np.ones((3, 5))), nd.Tensor(np.ones(3)))
    with pytest.raises(nd.ShapeError, match="lstm"):
        nd.lstm(nd.Tensor(np.ones((2, 3, 4))), nd.Tensor(np.ones((2, 1, 6))),
                nd.Tensor(np.ones((12, 7))), nd.Tensor(np.ones(12)),
                np.ones((3, 2)))  # live is [T, B], not [B, T]
    with pytest.raises(nd.ShapeError, match="target_logprobs"):
        nd.target_logprobs(nd.Tensor(np.ones((2, 3, 5))), np.zeros((3, 2)), np.ones((2, 3)))


def test_every_exported_op_has_a_caller():
    # an op that no model, decoder or runner calls is dead code to delete
    from test_acceptance import _NOT_OPS
    from test_bench_hooks import _global_loads
    from wugbench import decode, runner
    from wugbench.seq2seq import lstm, model, transformer

    called = set().union(*(_global_loads(m) for m in (model, lstm, transformer, decode, runner)))
    assert sorted(set(nd.__all__) - _NOT_OPS - called) == []


def test_grad_check_rejects_nonscalar():
    with pytest.raises(nd.ContractError):
        grad_check(lambda t: nd.mul(t, t), np.ones(3))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_matches_hand_rolled_update():
    rng = _rng(3)
    w0 = rng.normal(size=(4,))
    grads = [rng.normal(size=(4,)) for _ in range(5)]

    p = nd.Tensor(w0.copy(), requires_grad=True)
    opt = nd.Adam({"w": p}, lr=0.01)
    for g in grads:
        p.grad = g.copy()
        opt.step()
        opt.zero_grad()
        assert p.grad is None or not np.any(p.grad)

    # reference: the published update equations, run independently
    w = w0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9 ** t)
        vh = v / (1.0 - 0.999 ** t)
        w -= 0.01 * mh / (np.sqrt(vh) + 1e-8)
    np.testing.assert_allclose(p.data, w, atol=1e-14)


def test_adam_converges_on_quadratic():
    p = nd.Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = nd.Adam({"p": p}, lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        loss = nd.sum_(nd.mul(p, p))
        nd.backward(loss)
        opt.step()
    assert np.all(np.abs(p.data) < 1e-3)


def _whole_array_adam(x, g, m, v, t, lr=0.01, b1=0.9, b2=0.999, eps=1e-8, factor=1.0):
    """The unblocked update from ``g * factor``, one whole-array numpy pass
    per operation."""
    g = g * factor
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    x -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_blocked_adam_is_bit_identical_to_whole_array_update():
    rng = _rng(5)
    block = nd.Adam.BLOCK
    shapes = {"a": (1,), "b": (block - 1,), "c": (block,), "d": (2 * block + 3,),
              "e": (3, 5)}
    params = {k: nd.Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for k, p in params.items()}
    opt = nd.Adam(params, lr=0.01)
    # a batch mean of 16, of 3, and one scaled by a clip as well
    for t, factor in enumerate((1.0, 1.0 / 16, 1.0, 1.0 / 3, 0.0625 * 0.37), start=1):
        opt.zero_grad()
        for k, p in params.items():
            g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
            p.grad = g.copy()
            x, m, v = ref[k]
            _whole_array_adam(x, g, m, v, t, factor=factor)
        opt.step(factor)
        for k, p in params.items():
            x, m, v = ref[k]
            assert np.array_equal(p.data, x), k
            assert np.array_equal(opt.m[k], m), k
            assert np.array_equal(opt.v[k], v), k
            assert p.grad is not None and np.any(p.grad), k  # the step reads, not scales


def test_adam_refuses_non_contiguous_parameter():
    p = nd.Tensor(np.asfortranarray(np.ones((3, 4))), requires_grad=True)
    p.grad = np.ones((3, 4))
    with pytest.raises(nd.ContractError, match="C-contiguous"):
        nd.Adam({"w": p}).step()
    assert nd.parameter(np.asfortranarray(np.ones((3, 4)))).data.flags.c_contiguous


def test_zero_grad_zeroes_in_place():
    a = nd.Tensor(np.ones((2, 3)), requires_grad=True)
    b = nd.Tensor(np.ones(4), requires_grad=True)
    c = nd.Tensor(np.ones(2), requires_grad=True)
    opt = nd.Adam({"a": a, "b": b, "c": c})
    nd.backward(nd.add(nd.sum_(nd.mul(a, a)), nd.sum_(b)))
    grads = (a.grad, b.grad)
    opt.zero_grad()
    assert a.grad is grads[0] and b.grad is grads[1]
    assert not np.any(a.grad) and not np.any(b.grad)
    assert c.grad is None  # never reached: nothing to zero
    nd.backward(nd.sum_(nd.mul(a, a)))
    assert a.grad is grads[0]
    np.testing.assert_array_equal(a.grad, 2.0)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_zero_grad_in_place_trains_like_reset_to_none(arch):
    batches = [[([3, 4, 5], [6, 7, 2]), ([4, 5], [7, 6, 5, 2])],
               [([5, 3, 4, 6], [6, 2])],
               [([6, 5], [5, 6, 7, 2]), ([3], [4, 2]), ([7, 4, 3], [3, 2])]]

    def train(reset):
        model = tiny_model(arch)
        opt = nd.Adam(model.params, lr=0.01)
        rng = nd.seeded_rng(1, nd.DROPOUT_STREAM)
        for batch in batches:
            reset(opt)
            nd.backward(model.batch_loss(batch, rng=rng, train=True))
            _, factor = nd.clip_global_norm(model.params, 1.0, len(batch))
            opt.step(factor)
        return model, opt

    def to_none(opt):
        for p in opt.params.values():
            p.grad = None

    kept, kept_opt = train(nd.Adam.zero_grad)
    fresh, fresh_opt = train(to_none)
    for name, p in kept.params.items():
        assert np.array_equal(p.data, fresh.params[name].data), name
        assert np.array_equal(kept_opt.m[name], fresh_opt.m[name]), name
        assert np.array_equal(kept_opt.v[name], fresh_opt.v[name]), name


def test_clip_global_norm():
    a = nd.Tensor(np.zeros(3), requires_grad=True)
    b = nd.Tensor(np.zeros((2, 2)), requires_grad=True)
    c = nd.Tensor(np.zeros(2), requires_grad=True)  # no gradient: left out
    a.grad = np.array([6.0, 0.0, 0.0])
    b.grad = np.array([[0.0, 8.0], [0.0, 0.0]])
    params = {"a": a, "b": b, "c": c}
    # the summed gradients of 2 examples: the mean's norm is 5
    assert nd.clip_global_norm(params, 10.0, 2) == (5.0, 0.5)  # under the cap
    norm, factor = nd.clip_global_norm(params, 1.0, 2)
    assert norm == 5.0
    assert factor == pytest.approx(0.5 / 5.0)  # the mean, scaled to norm 1
    assert nd.clip_global_norm(params, 5.0, 1) == (10.0, 0.5)  # one example
    # no gradient is written
    np.testing.assert_array_equal(a.grad, [6.0, 0.0, 0.0])
    np.testing.assert_array_equal(b.grad, [[0.0, 8.0], [0.0, 0.0]])
    assert c.grad is None


# ---------------------------------------------------------------------------
# rng streams


def test_seeded_rng_reproducible_and_stream_separated():
    a = nd.seeded_rng(42, nd.INIT_STREAM).normal(size=8)
    b = nd.seeded_rng(42, nd.INIT_STREAM).normal(size=8)
    c = nd.seeded_rng(42, nd.DROPOUT_STREAM).normal(size=8)
    d = nd.seeded_rng(43, nd.INIT_STREAM).normal(size=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert len({nd.INIT_STREAM, nd.DROPOUT_STREAM, nd.SHUFFLE_STREAM,
                nd.SAMPLE_STREAM}) == 4


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = _rng(9)
    params = {
        "emb.src": nd.Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        "out.b": nd.Tensor(rng.normal(size=(5,)), requires_grad=True),
    }
    path = tmp_path / "model.json"
    nd.save_checkpoint(path, params, meta={"arch": "test", "seed": 1})
    arrays, meta = nd.load_checkpoint(path)
    assert meta["arch"] == "test"
    for name, p in params.items():
        np.testing.assert_array_equal(arrays[name], p.data)

    fresh = {name: nd.Tensor(np.zeros_like(p.data), requires_grad=True)
             for name, p in params.items()}
    nd.restore_into(fresh, arrays)
    for name, p in params.items():
        np.testing.assert_array_equal(fresh[name].data, p.data)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    params = {"w": nd.Tensor(np.array([[1.0, 2.5], [-0.125, 3.0]]))}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    nd.save_checkpoint(p1, params, meta={"k": 1})
    nd.save_checkpoint(p2, params, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_mismatches_raise(tmp_path):
    path = tmp_path / "m.json"
    nd.save_checkpoint(path, {"w": nd.Tensor(np.ones((2, 2)))})
    arrays, _ = nd.load_checkpoint(path)
    with pytest.raises(nd.CheckpointError, match="mismatch"):
        nd.restore_into({"other": nd.Tensor(np.ones((2, 2)))}, arrays)
    with pytest.raises(nd.CheckpointError):
        nd.restore_into({"w": nd.Tensor(np.ones((3, 2)))}, arrays)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(nd.CheckpointError):
        nd.load_checkpoint(bad)
    empty = tmp_path / "empty.npz"
    _archive(empty, {"w.npy": _npy(np.ones(2))})
    with pytest.raises(nd.CheckpointError, match="meta.json"):
        nd.load_checkpoint(empty)


def _npy(arr: np.ndarray, allow_pickle: bool = False) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=allow_pickle)
    return buf.getvalue()


def _archive(path, members: dict) -> None:
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


def _saved_checkpoint(tmp_path):
    rng = _rng(4)
    params = {"a": nd.Tensor(rng.normal(size=(3, 4))), "b": nd.Tensor(rng.normal(size=(6,)))}
    path = tmp_path / "unit-seed1.npz"
    nd.save_checkpoint(path, params, meta={"arch": "test"})
    return path, params


def test_truncated_checkpoint_raises(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    for cut in (0, 10, len(raw) // 2, len(raw) - 30, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(nd.CheckpointError, match=re.escape(str(path))):
            nd.load_checkpoint(path)


def test_flipped_payload_byte_raises(tmp_path):
    path, params = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    at = raw.find(params["b"].data.tobytes()) + 13
    assert at > 13
    raw[at] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(nd.CheckpointError, match="CRC"):
        nd.load_checkpoint(path)


def test_failed_save_leaves_previous_checkpoint(tmp_path, monkeypatch):
    path, params = _saved_checkpoint(tmp_path)
    before = path.read_bytes()
    write_array = np.lib.format.write_array
    calls = []

    def fail_on_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("no space left on device")
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_second)
    changed = {name: nd.Tensor(p.data + 1.0) for name, p in params.items()}
    with pytest.raises(OSError, match="no space"):
        nd.save_checkpoint(path, changed, meta={"arch": "test"})
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_save_fsyncs_file_before_rename_and_directory_after(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino, st.st_size))
        fsync(fd)

    def record_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    path, _ = _saved_checkpoint(tmp_path)
    ino = path.stat().st_ino
    assert events == [("fsync", False, ino, path.stat().st_size), ("replace", ino),
                      ("fsync", True, tmp_path.stat().st_ino, tmp_path.stat().st_size)]


_META_JSON = json.dumps({"arch": "test"})
STRICT_CASES = {
    "float32": {"w.npy": _npy(np.ones(3, dtype=np.float32)), "meta.json": _META_JSON},
    "big-endian": {"w.npy": _npy(np.ones(3, dtype=">f8")), "meta.json": _META_JSON},
    "object": {"w.npy": _npy(np.array([1.0, None], dtype=object), allow_pickle=True),
               "meta.json": _META_JSON},
    "stray member": {"w.npy": _npy(np.ones(3)), "notes.txt": _npy(np.ones(3)),
                     "meta.json": _META_JSON},
    "bad npy header": {"w.npy": b"\x93NUMPY\x01\x00garbage", "meta.json": _META_JSON},
    "meta not an object": {"w.npy": _npy(np.ones(3)), "meta.json": "[1, 2]"},
    "meta not JSON": {"w.npy": _npy(np.ones(3)), "meta.json": "{"},
}


def test_checkpoint_loader_reads_a_plain_archive(tmp_path):
    # the control for the strict cases: a hand-built archive of the same kind loads
    path = tmp_path / "plain.npz"
    _archive(path, {"w.npy": _npy(np.arange(3.0)), "meta.json": _META_JSON})
    arrays, meta = nd.load_checkpoint(path)
    assert meta == {"arch": "test"}
    np.testing.assert_array_equal(arrays["w"], np.arange(3.0))


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_checkpoint_loader_is_strict(tmp_path, case):
    path = tmp_path / "strict.npz"
    _archive(path, STRICT_CASES[case])
    with pytest.raises(nd.CheckpointError, match=re.escape(str(path))) as info:
        nd.load_checkpoint(path)
    if case == "stray member":
        assert "notes.txt" in str(info.value)


SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000,  # +0.0, -0.0
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,  # subnormals
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF80000DEADBEEF,  # quiet NaNs, distinct payloads
    0x7FF0000000000001, 0x7FF4000000000000,  # signalling NaNs
]


@st.composite
def parameter_sets(draw):
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_.]{0,8}", fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    params = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))  # () is 0-d
        size = math.prod(shape)
        bits = draw(st.lists(st.sampled_from(SPECIAL_BITS) | st.integers(0, 2 ** 64 - 1),
                             min_size=size, max_size=size))
        params[name] = np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)
    return params


@settings(max_examples=60, deadline=None)
@given(parameter_sets())
def test_checkpoint_roundtrip_property(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "roundtrip.npz"
    nd.save_checkpoint(path, {name: nd.Tensor(arr) for name, arr in data.items()},
                       meta={"k": 1})
    arrays, meta = nd.load_checkpoint(path)
    assert meta == {"k": 1} and sorted(arrays) == sorted(data)
    for name, arr in data.items():
        assert arrays[name].shape == arr.shape
        np.testing.assert_array_equal(arrays[name].view(np.uint64), arr.view(np.uint64))
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    assert [i.filename for i in infos] == [f"{n}.npy" for n in sorted(data)] + ["meta.json"]
    assert all(i.date_time == (1980, 1, 1, 0, 0, 0) for i in infos)
    fresh = {name: nd.Tensor(np.zeros(arr.shape)) for name, arr in data.items()}
    nd.restore_into(fresh, arrays)
    for name, arr in data.items():
        np.testing.assert_array_equal(fresh[name].data.view(np.uint64), arr.view(np.uint64))
        assert not np.shares_memory(fresh[name].data, arrays[name])


# ---------------------------------------------------------------------------
# properties


finite_rows = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(finite_rows)
def test_softmax_is_a_distribution(values):
    # the loss head read at every target in turn gives a distribution
    vocab = len(values)
    x = nd.Tensor(np.tile(values, (vocab, 1)))
    lp = nd.target_logprobs(x, np.arange(vocab), np.ones(vocab)).data
    assert np.all(lp <= 0.0)
    assert math.isclose(np.exp(lp).sum(), 1.0, rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(finite_rows)
def test_softmax_shift_invariance(values):
    vocab = len(values)
    x = np.tile(values, (vocab, 1))
    a = nd.target_logprobs(nd.Tensor(x), np.arange(vocab), np.ones(vocab)).data
    b = nd.target_logprobs(nd.Tensor(x + 123.0), np.arange(vocab), np.ones(vocab)).data
    np.testing.assert_allclose(np.exp(a), np.exp(b), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_layer_norm_standardizes_rows(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(3, dim)) * 4.0 + 1.0
    assume(np.all(raw.var(axis=-1) > 0.1))  # keep eps negligible vs row variance
    x = nd.Tensor(raw)
    gain = nd.Tensor(np.ones(dim))
    bias = nd.Tensor(np.zeros(dim))
    out = nd.layer_norm(x, gain, bias).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)
