"""Transformer encoder-decoder with pre-layer-norm blocks.

Sinusoidal positions, scaled embeddings, multi-head attention, and a
final layer norm on both stacks.

Teacher-forced work (training and forced scoring), ``_forced``, runs a
whole batch of (source, target) pairs as one graph.  Sequences are
right-padded and stay [B, T, D] from end to end; attention over the
source reads only its live positions, and the causal mask alone keeps
padded target positions away from real ones.

Both paths start from ``_encode``, which runs many sources as one padded
pass and projects the memory to every decoder layer's cross-attention
keys and values once per source.  Decoding is incremental, as in fairseq
(Ott et al. 2019): the decoder state caches each row's self-attention
keys and values, so a step runs the decoder over the newest position
only.  ``_step`` advances every row of every source, a greedy, sampled or
beam hypothesis, as one row of a single [N, 1, D] pass.  Each decoder
block appends its new keys and values to the state's append-only store
and reads each row's whole history back in one gather, and its
cross-attention reads each source's keys and values through the rows'
source index, so no row holds a copy of them.  ``Seq2Seq`` pads, masks,
builds and stores the states and reads the probabilities around these
hooks.
"""

from __future__ import annotations

import math

import numpy as np

from ..ndiff import (
    Tensor,
    affine,
    add,
    dropout,
    embedding_lookup,
    layer_norm,
    mul,
    relu,
    scaled_dot_product,
)
from .config import ModelConfig
from .model import Seq2Seq


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position table [length, dim]."""
    pos = np.arange(length)[:, None]
    i = np.arange((dim + 1) // 2)[None, :]  # an odd dim has one more sine than cosines
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, :dim // 2])
    return table


class TransformerSeq2Seq(Seq2Seq):
    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        if config.arch != "transformer":
            raise ValueError(f"config.arch is {config.arch!r}, not 'transformer'")
        self.config = config
        self.params: dict[str, Tensor] = {}
        V, D = config.vocab_size, config.d_model

        def p(name: str, data: np.ndarray) -> None:  # data: a fresh array of our own
            self.params[name] = Tensor(data, requires_grad=True)

        def normal(*shape: int) -> np.ndarray:  # scaled by the input width
            if rng is None:
                return np.empty(shape)
            return rng.normal(0.0, shape[-1] ** -0.5, size=shape)

        def linear(name: str, out_dim: int, in_dim: int) -> None:
            p(f"{name}.w", normal(out_dim, in_dim))
            p(f"{name}.b", np.zeros(out_dim))

        def mha(name: str) -> None:
            for part in ("q", "k", "v", "o"):
                linear(f"{name}.{part}", D, D)

        def ln(name: str) -> None:
            p(f"{name}.g", np.ones(D))
            p(f"{name}.b", np.zeros(D))

        def ffn(name: str) -> None:
            linear(f"{name}.1", config.ffn_dim, D)
            linear(f"{name}.2", D, config.ffn_dim)

        p("emb.src", normal(V, D))
        p("emb.tgt", normal(V, D))
        for l in range(config.enc_blocks):
            ln(f"enc.{l}.ln1")
            mha(f"enc.{l}.self")
            ln(f"enc.{l}.ln2")
            ffn(f"enc.{l}.ffn")
        ln("enc.final_ln")
        for l in range(config.dec_blocks):
            ln(f"dec.{l}.ln1")
            mha(f"dec.{l}.self")
            ln(f"dec.{l}.ln2")
            mha(f"dec.{l}.cross")
            ln(f"dec.{l}.ln3")
            ffn(f"dec.{l}.ffn")
        ln("dec.final_ln")
        linear("out", V, D)

    # -- building blocks ----------------------------------------------------

    def _ln(self, name: str, x: Tensor) -> Tensor:
        return layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _linear(self, name: str, x: Tensor) -> Tensor:
        return affine(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _attend(self, name: str, q: Tensor, k: Tensor, v: Tensor,
                live: np.ndarray | None, src: np.ndarray | None = None) -> Tensor:
        """Multi-head attention of q over the live (k, v), projected out; with
        ``src``, each row of q over its source's (k, v)."""
        return self._linear(f"{name}.o", scaled_dot_product(q, k, v, live, self.config.heads, src))

    def _ffn(self, name: str, x: Tensor) -> Tensor:
        return self._linear(f"{name}.2", relu(self._linear(f"{name}.1", x)))

    def _embed(self, table: str, ids: np.ndarray, train: bool, rng, start: int = 0) -> Tensor:
        """[B, T, D] for ids [B, T] at positions start..start+T-1."""
        cfg = self.config
        x = mul(embedding_lookup(self.params[table], ids), Tensor(math.sqrt(cfg.d_model)))
        pe = positional_encoding(start + ids.shape[1], cfg.d_model)[start:]
        return dropout(add(x, Tensor(pe)), cfg.dropout, train, rng)

    def _encode(self, src: np.ndarray, live: np.ndarray, train: bool, rng):
        """For padded source ids [B, S] with live mask [B, S]: no rows (the
        decoder's self-attention keys and values are histories, which start
        empty), and shared, every decoder layer's cross-attention keys and
        values over the encoder memory [B, S, D]."""
        cfg = self.config
        mask = live[:, None, None, :]  # broadcast over heads and queries
        x = self._embed("emb.src", src, train, rng)
        for l in range(cfg.enc_blocks):
            normed = self._ln(f"enc.{l}.ln1", x)
            q, k, v = (self._linear(f"enc.{l}.self.{part}", normed) for part in "qkv")
            a = self._attend(f"enc.{l}.self", q, k, v, mask)
            x = add(x, dropout(a, cfg.dropout, train, rng))
            f = self._ffn(f"enc.{l}.ffn", self._ln(f"enc.{l}.ln2", x))
            x = add(x, dropout(f, cfg.dropout, train, rng))
        memory = self._ln("enc.final_ln", x)
        shared = tuple(self._linear(f"dec.{l}.cross.{part}", memory)
                       for l in range(cfg.dec_blocks) for part in "kv")
        return (), shared

    def _dec_block(self, l: int, x: Tensor, cross, self_live, cross_live, train, rng,
                   step=None):
        """Decoder block l over x [B, T, D] with cross-attention (keys, values).

        Decoding passes the ``DecodeStep``: the block appends its
        self-attention keys and values there and attends over each row's
        whole history, and row n's cross-attention reads source
        ``step.src[n]`` of the per-source ``cross``.
        """
        cfg = self.config
        normed = self._ln(f"dec.{l}.ln1", x)
        q, k, v = (self._linear(f"dec.{l}.self.{part}", normed) for part in "qkv")
        src = None
        if step is not None:
            k, v = step.append(f"dec.{l}.k", k), step.append(f"dec.{l}.v", v)
            src = step.src
        a = self._attend(f"dec.{l}.self", q, k, v, self_live)
        x = add(x, dropout(a, cfg.dropout, train, rng))
        q = self._linear(f"dec.{l}.cross.q", self._ln(f"dec.{l}.ln2", x))
        a = self._attend(f"dec.{l}.cross", q, *cross, cross_live, src)
        x = add(x, dropout(a, cfg.dropout, train, rng))
        f = self._ffn(f"dec.{l}.ffn", self._ln(f"dec.{l}.ln3", x))
        return add(x, dropout(f, cfg.dropout, train, rng))

    def _logits(self, x: Tensor) -> Tensor:
        return self._linear("out", self._ln("dec.final_ln", x))

    def _forced(self, rows, shared, live, tgt_in: np.ndarray, train: bool, rng) -> Tensor:
        x = self._embed("emb.tgt", tgt_in, train, rng)
        causal = np.tri(tgt_in.shape[1], dtype=bool)  # no query sees a later position
        for l in range(self.config.dec_blocks):
            x = self._dec_block(l, x, shared[2 * l:2 * l + 2], causal, live[:, None, None, :],
                                train, rng)
        return self._logits(x)

    def _step(self, rows, shared, live, prev_ids: np.ndarray, step):
        # the histories' length is the position of the fed ids
        x = self._embed("emb.tgt", prev_ids[:, None], False, None, start=step.length)
        for l in range(self.config.dec_blocks):
            x = self._dec_block(l, x, shared[2 * l:2 * l + 2], None, live[:, None, None, :],
                                False, None, step)
        return self._logits(x), ()
