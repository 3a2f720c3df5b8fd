"""LSTM encoder-decoder family: {bi,uni}directional x {attention,none}.

Encoder: stacked (default 2-layer) character LSTM over tag+lemma symbols,
run in both directions when bidirectional.  A tanh bridge maps the final
encoder state to the decoder's initial state.

Decoder: single-layer LSTM with input feeding (previous context vector is
concatenated to the symbol embedding).  Attentional variants attend over
the encoder outputs with one ``additive_attention`` node per decoder step
(Bahdanau et al. 2015), whose keys are projected once per source; the
others reuse the final encoder state as a constant context, which is the
only difference between the variants.

Rows, one per sequence, run through ``lstm`` nodes: one per encoder layer
and direction over the whole padded source, and one-step nodes in the
decoder, whose input feeding makes each step wait for the last.  The
decoder works in [rows, 1, ·], a one-position sequence, and carries each
row's state as one step of ``lstm`` output, concat([h, c]) [rows, 1, 2H],
which is also the start state the next step takes.
Teacher-forced work runs a batch of right-padded (source, target) pairs as
one graph.  The encoder's rows are dead at padded positions: going forward
a row carries its last real state to the end, going backward its zero
start state waits for its last symbol, so the final states sit at the last
position and the first.  Attention masks padded source positions; padded
targets come last, and the loss head reads 0 there.
Decoding works the same way: ``_encode``, the entry teacher forcing uses
too, runs many sources as one padded pass, and ``_step`` steps every
greedy, sampled or beam hypothesis of every source as one row, attending
over the memory, keys and live mask of its own source, which ``Seq2Seq``
gathers.  ``Seq2Seq`` pads, masks, builds and stores the states and reads
the probabilities; the hooks see only Tensors and masks.
"""

from __future__ import annotations

import numpy as np

from ..ndiff import (
    Tensor,
    additive_attention,
    affine,
    concat,
    dropout,
    embedding_lookup,
    lstm,
    narrow,
    parameter,
    tanh,
)
from .config import ModelConfig
from .model import Seq2Seq


class LSTMSeq2Seq(Seq2Seq):
    """One of the four LSTM architectures, chosen by config.arch."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        if config.arch == "transformer":
            raise ValueError("transformer config passed to the LSTM family")
        self.config = config
        self.directions = ("fwd", "bwd") if config.bidirectional else ("fwd",)
        self.attention = config.attention
        self.ctx_dim = config.hidden_dim * len(self.directions)
        self.params: dict[str, Tensor] = {}

        V, E, H, A = config.vocab_size, config.emb_dim, config.hidden_dim, config.attn_dim

        def add(name: str, data) -> None:
            self.params[name] = parameter(data)

        def uniform(name: str, *shape: int) -> None:
            add(name, np.empty(shape) if rng is None else rng.uniform(-0.08, 0.08, size=shape))

        lstm_bias = np.repeat([0.0, 1.0, 0.0, 0.0], H)  # the forget gate starts open

        # creation order is fixed: it defines the init rng draw sequence
        uniform("emb.src", V, E)
        uniform("emb.tgt", V, E)
        for layer in range(config.enc_layers):
            in_dim = E if layer == 0 else self.ctx_dim
            for d in self.directions:
                uniform(f"enc.{layer}.{d}.w", 4 * H, in_dim + H)
                add(f"enc.{layer}.{d}.b", lstm_bias)
        uniform("bridge.h.w", H, self.ctx_dim)
        add("bridge.h.b", np.zeros(H))
        uniform("bridge.c.w", H, self.ctx_dim)
        add("bridge.c.b", np.zeros(H))
        uniform("dec.w", 4 * H, E + self.ctx_dim + H)
        add("dec.b", lstm_bias)
        if self.attention:
            uniform("attn.query.w", A, H)
            uniform("attn.key.w", A, self.ctx_dim)
            uniform("attn.v", A)
        uniform("out.w", V, H + self.ctx_dim)
        add("out.b", np.zeros(V))

    # -- encoder -----------------------------------------------------------

    def _encode(self, src: np.ndarray, live: np.ndarray, train: bool, rng):
        """Decoder start for padded source ids [B, S] with live mask [B, S]:
        rows (state concat([h, c]) [B, 1, 2H], context [B, 1, ctx_dim] fed
        with the first input) and, attentional only, shared (memory
        [B, S, ctx_dim], its pre-projected keys [B, S, attn_dim])."""
        cfg, H = self.config, self.config.hidden_dim
        batch, width = src.shape
        zero = Tensor(np.zeros((batch, 1, 2 * H)))
        xs = embedding_lookup(self.params["emb.src"], src)
        for layer in range(cfg.enc_layers):
            if layer > 0:
                xs = dropout(xs, cfg.dropout, train, rng)
            outs = [lstm(xs, zero, self.params[f"enc.{layer}.{d}.w"],
                         self.params[f"enc.{layer}.{d}.b"], live, reverse=d == "bwd")
                    for d in self.directions]
            xs = _joined([narrow(out, 2, 0, H) for out in outs])
        finals = [narrow(out, 1, 0 if d == "bwd" else width - 1, 1)
                  for out, d in zip(outs, self.directions)]
        h_fin, c_fin = (_joined([narrow(f, 2, k * H, H) for f in finals]) for k in (0, 1))
        h0 = tanh(affine(h_fin, self.params["bridge.h.w"], self.params["bridge.h.b"]))
        c0 = tanh(affine(c_fin, self.params["bridge.c.w"], self.params["bridge.c.b"]))
        state = concat([h0, c0], axis=2)
        if not self.attention:
            return (state, h_fin), ()
        return ((state, Tensor(np.zeros((batch, 1, self.ctx_dim)))),
                (xs, affine(xs, self.params["attn.key.w"])))

    # -- decoder -----------------------------------------------------------

    def _cell(self, prev_ids, state: Tensor, ctx: Tensor, live, memory=None, keys=None):
        """Feed prev_ids [N] to every row; returns the rows' new state
        [N, 1, 2H], their h [N, 1, H] and their context [N, 1, ctx_dim]."""
        H = self.config.hidden_dim
        x = concat([embedding_lookup(self.params["emb.tgt"], prev_ids[:, None]), ctx], axis=2)
        out = lstm(x, state, self.params["dec.w"], self.params["dec.b"])
        h = narrow(out, 2, 0, H)
        if self.attention:
            q = affine(h, self.params["attn.query.w"])
            ctx = additive_attention(q, keys, self.params["attn.v"], memory, live)
        return out, h, ctx

    def _step(self, rows, shared, live, prev_ids: np.ndarray):
        hc, h, ctx = self._cell(prev_ids, *rows, live, *shared)
        logits = affine(concat([h, ctx], axis=2), self.params["out.w"], self.params["out.b"])
        return logits, (hc, ctx)

    # -- teacher forcing ---------------------------------------------------

    def _forced(self, rows, shared, live, tgt_in: np.ndarray, train: bool, rng) -> Tensor:
        state, ctx = rows
        feats = []
        for prev in tgt_in.T:
            state, h, ctx = self._cell(prev, state, ctx, live, *shared)
            feats.append(concat([h, ctx], axis=2))
        f = dropout(concat(feats, axis=1), self.config.dropout, train, rng)
        return affine(f, self.params["out.w"], self.params["out.b"])


def _joined(parts: list[Tensor]) -> Tensor:
    """The directions' parts side by side on the last axis."""
    return concat(parts, axis=2) if len(parts) > 1 else parts[0]
