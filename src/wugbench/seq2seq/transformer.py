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
beam hypothesis, as one row of a single [N, 1, D] pass.  ``Seq2Seq`` pads,
masks, builds and stores the states, gathers each row's source Tensors
and reads the probabilities around these hooks.
"""

from __future__ import annotations

import math

import numpy as np

from ..ndiff import (
    Tensor,
    affine,
    add,
    concat,
    dropout,
    embedding_lookup,
    layer_norm,
    mul,
    parameter,
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
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        if config.arch != "transformer":
            raise ValueError(f"config.arch is {config.arch!r}, not 'transformer'")
        self.config = config
        self.params: dict[str, Tensor] = {}
        V, D = config.vocab_size, config.d_model

        def p(name: str, data) -> None:
            self.params[name] = parameter(data)

        def linear(name: str, out_dim: int, in_dim: int) -> None:
            p(f"{name}.w", rng.normal(0.0, in_dim ** -0.5, size=(out_dim, in_dim)))
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

        p("emb.src", rng.normal(0.0, D ** -0.5, size=(V, D)))
        p("emb.tgt", rng.normal(0.0, D ** -0.5, size=(V, D)))
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
                live: np.ndarray | None) -> Tensor:
        """Multi-head attention of q over the live (k, v), projected out."""
        return self._linear(f"{name}.o", scaled_dot_product(q, k, v, live, self.config.heads))

    def _ffn(self, name: str, x: Tensor) -> Tensor:
        return self._linear(f"{name}.2", relu(self._linear(f"{name}.1", x)))

    def _embed(self, table: str, ids: np.ndarray, train: bool, rng, start: int = 0) -> Tensor:
        """[B, T, D] for ids [B, T] at positions start..start+T-1."""
        cfg = self.config
        x = mul(embedding_lookup(self.params[table], ids), Tensor(math.sqrt(cfg.d_model)))
        pe = positional_encoding(start + ids.shape[1], cfg.d_model)[start:]
        return dropout(add(x, Tensor(pe)), cfg.dropout, train, rng)

    def _encode(self, src: np.ndarray, live: np.ndarray, train: bool, rng):
        """For padded source ids [B, S] with live mask [B, S]: rows, every decoder
        layer's empty self-attention keys and values [B, 0, D], and shared, its
        cross-attention keys and values over the encoder memory [B, S, D]."""
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
        return (Tensor(np.zeros((len(src), 0, cfg.d_model))),) * len(shared), shared

    def _dec_block(self, l: int, x: Tensor, past, cross, self_live, cross_live, train, rng):
        """Decoder block l over x [B, T, D] with cross-attention (keys, values).

        ``past`` is None or the cached self-attention (keys, values) that
        precede this call's positions.  Returns the new x and the full
        self-attention (keys, values) including the cached ones.
        """
        cfg = self.config
        normed = self._ln(f"dec.{l}.ln1", x)
        q, k, v = (self._linear(f"dec.{l}.self.{part}", normed) for part in "qkv")
        if past is not None:
            k, v = concat([past[0], k], axis=1), concat([past[1], v], axis=1)
        a = self._attend(f"dec.{l}.self", q, k, v, self_live)
        x = add(x, dropout(a, cfg.dropout, train, rng))
        q = self._linear(f"dec.{l}.cross.q", self._ln(f"dec.{l}.ln2", x))
        a = self._attend(f"dec.{l}.cross", q, *cross, cross_live)
        x = add(x, dropout(a, cfg.dropout, train, rng))
        f = self._ffn(f"dec.{l}.ffn", self._ln(f"dec.{l}.ln3", x))
        x = add(x, dropout(f, cfg.dropout, train, rng))
        return x, (k, v)

    def _logits(self, x: Tensor) -> Tensor:
        return self._linear("out", self._ln("dec.final_ln", x))

    def _forced(self, rows, shared, live, tgt_in: np.ndarray, train: bool, rng) -> Tensor:
        x = self._embed("emb.tgt", tgt_in, train, rng)
        causal = np.tri(tgt_in.shape[1], dtype=bool)  # no query sees a later position
        for l in range(self.config.dec_blocks):
            x, _ = self._dec_block(l, x, None, shared[2 * l:2 * l + 2], causal,
                                   live[:, None, None, :], train, rng)
        return self._logits(x)

    def _step(self, rows, shared, live, prev_ids: np.ndarray):
        # the cached keys' length is the position of the fed ids
        x = self._embed("emb.tgt", prev_ids[:, None], False, None, start=rows[0].shape[1])
        cache = []
        for l in range(self.config.dec_blocks):
            layer = slice(2 * l, 2 * l + 2)
            x, kv = self._dec_block(l, x, rows[layer], shared[layer], None,
                                    live[:, None, None, :], False, None)
            cache += kv
        return self._logits(x), tuple(cache)
