"""LSTM encoder-decoder family: {bi,uni}directional x {attention,none}.

Encoder: stacked (default 2-layer) character LSTM over tag+lemma symbols,
run in both directions when bidirectional.  A tanh bridge maps the final
encoder state to the decoder's initial state.

Decoder: single-layer LSTM with input feeding (previous context vector is
concatenated to the symbol embedding).  Attentional variants use additive
attention over encoder outputs; the others reuse the final encoder state
as a constant context, which is the only difference between the variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ndiff import (
    Tensor,
    affine,
    concat,
    dropout,
    embedding_lookup,
    lstm_cell,
    matmul,
    narrow,
    parameter,
    reshape,
    row,
    softmax,
    stack_rows,
    tanh,
)
from ..corpus import BOS
from ..ndiff.tensor import ContractError
from .config import ModelConfig
from .model import nll, target_logprobs


@dataclass(frozen=True)
class LSTMState:
    """Decoder state between steps; immutable so search can fork it."""

    h: Tensor
    c: Tensor
    ctx: Tensor
    memory: Tensor | None  # [S, ctx_dim] encoder outputs, attentional only
    keys: Tensor | None    # [S, attn_dim] pre-projected memory


class LSTMSeq2Seq:
    """One of the four LSTM architectures, chosen by config.arch."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        if config.arch == "transformer":
            raise ValueError("transformer config passed to the LSTM family")
        self.config = config
        self.bidirectional = config.bidirectional
        self.attention = config.attention
        self.ctx_dim = config.hidden_dim * (2 if self.bidirectional else 1)
        self.params: dict[str, Tensor] = {}

        V, E, H, A = config.vocab_size, config.emb_dim, config.hidden_dim, config.attn_dim

        def uniform(name: str, *shape: int) -> Tensor:
            p = parameter(rng.uniform(-0.08, 0.08, size=shape))
            self.params[name] = p
            return p

        def lstm_bias(name: str) -> Tensor:
            b = np.zeros(4 * H)
            b[H:2 * H] = 1.0  # forget gate starts open
            p = parameter(b)
            self.params[name] = p
            return p

        def zeros(name: str, *shape: int) -> Tensor:
            p = parameter(np.zeros(shape))
            self.params[name] = p
            return p

        # creation order is fixed: it defines the init rng draw sequence
        uniform("emb.src", V, E)
        uniform("emb.tgt", V, E)
        directions = ("fwd", "bwd") if self.bidirectional else ("fwd",)
        for layer in range(config.enc_layers):
            in_dim = E if layer == 0 else self.ctx_dim
            for d in directions:
                uniform(f"enc.{layer}.{d}.w", 4 * H, in_dim + H)
                lstm_bias(f"enc.{layer}.{d}.b")
        uniform("bridge.h.w", H, self.ctx_dim)
        zeros("bridge.h.b", H)
        uniform("bridge.c.w", H, self.ctx_dim)
        zeros("bridge.c.b", H)
        uniform("dec.w", 4 * H, E + self.ctx_dim + H)
        lstm_bias("dec.b")
        if self.attention:
            uniform("attn.query.w", A, H)
            uniform("attn.key.w", A, self.ctx_dim)
            uniform("attn.v", A)
        uniform("out.w", V, H + self.ctx_dim)
        zeros("out.b", V)

    # -- encoder -----------------------------------------------------------

    def _run_direction(self, xs: Tensor, w: Tensor, b: Tensor, reverse: bool):
        """One LSTM sweep over the rows of xs; returns (rows per t, h, c)."""
        H = self.config.hidden_dim
        steps = range(xs.shape[0])
        if reverse:
            steps = reversed(steps)
        h = Tensor(np.zeros(H))
        c = Tensor(np.zeros(H))
        out: list[Tensor | None] = [None] * xs.shape[0]
        for t in steps:
            hc = lstm_cell(row(xs, t), h, c, w, b)
            h = narrow(hc, 0, 0, H)
            c = narrow(hc, 0, H, H)
            out[t] = h
        return out, h, c

    def _encode(self, src_ids, train: bool, rng):
        if len(src_ids) == 0:
            raise ContractError("encode: empty source sequence")
        cfg = self.config
        x = embedding_lookup(self.params["emb.src"], src_ids)
        h_fin = c_fin = None
        for layer in range(cfg.enc_layers):
            fwd, h_f, c_f = self._run_direction(
                x, self.params[f"enc.{layer}.fwd.w"], self.params[f"enc.{layer}.fwd.b"],
                reverse=False)
            if self.bidirectional:
                bwd, h_b, c_b = self._run_direction(
                    x, self.params[f"enc.{layer}.bwd.w"], self.params[f"enc.{layer}.bwd.b"],
                    reverse=True)
                rows = [concat([f, bk]) for f, bk in zip(fwd, bwd)]
                h_fin, c_fin = concat([h_f, h_b]), concat([c_f, c_b])
            else:
                rows = fwd
                h_fin, c_fin = h_f, c_f
            x = stack_rows(rows)
            if layer < cfg.enc_layers - 1:
                x = dropout(x, cfg.dropout, train, rng)
        h0 = tanh(affine(h_fin, self.params["bridge.h.w"], self.params["bridge.h.b"]))
        c0 = tanh(affine(c_fin, self.params["bridge.c.w"], self.params["bridge.c.b"]))
        return x, h0, c0, h_fin

    def encode(self, src_ids) -> LSTMState:
        memory, h0, c0, enc_final = self._encode(src_ids, train=False, rng=None)
        if self.attention:
            keys = affine(memory, self.params["attn.key.w"])
            ctx0 = Tensor(np.zeros(self.ctx_dim))
            return LSTMState(h0, c0, ctx0, memory, keys)
        return LSTMState(h0, c0, enc_final, None, None)

    # -- decoder -----------------------------------------------------------

    def _attend(self, h: Tensor, memory: Tensor, keys: Tensor) -> Tensor:
        q = affine(h, self.params["attn.query.w"])
        e = tanh(keys + q)
        scores = reshape(affine(e, reshape(self.params["attn.v"], (1, -1))), (-1,))
        weights = softmax(scores)
        return reshape(matmul(reshape(weights, (1, -1)), memory), (-1,))

    def _step(self, prev_id: int, h: Tensor, c: Tensor, ctx: Tensor,
              memory: Tensor | None, keys: Tensor | None):
        H = self.config.hidden_dim
        x = concat([row(self.params["emb.tgt"], prev_id), ctx])
        hc = lstm_cell(x, h, c, self.params["dec.w"], self.params["dec.b"])
        h = narrow(hc, 0, 0, H)
        c = narrow(hc, 0, H, H)
        if self.attention:
            ctx = self._attend(h, memory, keys)
        return h, c, ctx

    def decode_step(self, state: LSTMState, prev_id: int):
        h, c, ctx = self._step(prev_id, state.h, state.c, state.ctx,
                               state.memory, state.keys)
        logits = affine(concat([h, ctx]), self.params["out.w"], self.params["out.b"])
        z = logits.data - logits.data.max()
        e = np.exp(z)
        probs = e / e.sum()
        return probs, LSTMState(h, c, ctx, state.memory, state.keys)

    # -- teacher forcing ---------------------------------------------------

    def teacher_forced_logprobs(self, src_ids, tgt_ids, rng=None, train: bool = False) -> Tensor:
        """log P(tgt_t | tgt_<t, src) for every position of tgt_ids, which
        must end in the end id."""
        cfg = self.config
        memory, h, c, enc_final = self._encode(src_ids, train, rng)
        if self.attention:
            keys = affine(memory, self.params["attn.key.w"])
            ctx = Tensor(np.zeros(self.ctx_dim))
        else:
            memory = keys = None
            ctx = enc_final
        feats = []
        prev = BOS
        for tgt in tgt_ids:
            h, c, ctx = self._step(prev, h, c, ctx, memory, keys)
            feats.append(concat([h, ctx]))
            prev = tgt
        f = stack_rows(feats)
        f = dropout(f, cfg.dropout, train, rng)
        logits = affine(f, self.params["out.w"], self.params["out.b"])
        return target_logprobs(logits, tgt_ids)

    def loss(self, src_ids, tgt_ids, rng=None, train: bool = True) -> Tensor:
        """Negative log-likelihood of tgt_ids, summed over timesteps."""
        return nll(self.teacher_forced_logprobs(src_ids, tgt_ids, rng, train))
