"""Shared model surface: the model protocol, losses, parameter accounting.

Every model subclasses ``Seq2Seq`` and has the same methods, none optional:

- ``params``: name -> Tensor, in a fixed creation order
- ``encode(src_ids) -> state``
- ``decode_step_batch(states, prev_ids) -> (probs ndarray [k, V], states)``
  advances k hypotheses of one source as the rows of one step; greedy and
  beam search run it, and ``decode_step(state, prev_id) -> (probs [V],
  state)`` is its one-row case
- ``batch_loss(pairs, rng=None, train=True) -> scalar Tensor``: summed
  negative log-likelihood of (src_ids, tgt_ids) pairs, right-padded into
  one graph; training calls it once per batch
- ``teacher_forced_logprobs(src_ids, tgt_ids, rng=None, train=False) ->
  Tensor [len(tgt_ids)]``: log P(tgt_t | tgt_<t, src) at every position,
  the one-pair case of that graph; forced scoring runs it, and ``loss``
  (same arguments, ``train=True``) is its negated sum

States are immutable, so search code can fork them freely.  Targets always
end with the end-of-sequence id; the decoder is fed the start id plus the
target shifted right.
"""

from __future__ import annotations

import numpy as np

from ..corpus import PAD
from ..ndiff import Tensor, gather, log_softmax, mul, sum_
from .config import ModelConfig

NEG_INF = -1e9  # additive mask value; underflows to exactly 0 after softmax


def target_logprobs(logits: Tensor, tgt_ids) -> Tensor:
    """log-softmax of logits [N, V] read at tgt_ids [N] -> [N]."""
    return gather(log_softmax(logits, axis=-1), tgt_ids)


def nll(logprobs: Tensor, weights=None) -> Tensor:
    """Negated sum of log-probabilities; 0/1 ``weights`` drop padded rows."""
    if weights is not None:
        logprobs = mul(logprobs, Tensor(weights))
    return mul(sum_(logprobs), Tensor(-1.0))


def _padded(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences with the pad id: (ids [B, T], lengths [B])."""
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    ids = np.full((len(seqs), int(lengths.max())), PAD, dtype=np.intp)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    return ids, lengths


def _key_mask(lengths: np.ndarray, width: int) -> np.ndarray | None:
    """Additive [B, width] mask hiding padded positions (None if no padding)."""
    if np.all(lengths == width):
        return None
    valid = np.arange(width)[None, :] < lengths[:, None]
    return np.where(valid, 0.0, NEG_INF)


class Seq2Seq:
    """The protocol, given a subclass's ``encode``, ``decode_step_batch`` and
    ``_teacher_forced(pairs, train, rng)``; the latter returns log-probs
    [B*T] of the right-padded targets and 0/1 weights [B*T] of real ones."""

    def teacher_forced_logprobs(self, src_ids, tgt_ids, rng=None, train: bool = False) -> Tensor:
        """log P(tgt_t | tgt_<t, src) for every position of tgt_ids, which
        must end in the end id."""
        logprobs, _ = self._teacher_forced([(src_ids, tgt_ids)], train, rng)
        return logprobs

    def batch_loss(self, pairs, rng=None, train: bool = True) -> Tensor:
        """Summed negative log-likelihood of (src_ids, tgt_ids) pairs, every
        target ending in the end id, as one padded graph."""
        return nll(*self._teacher_forced(pairs, train, rng))

    def loss(self, src_ids, tgt_ids, rng=None, train: bool = True) -> Tensor:
        """Negative log-likelihood of tgt_ids, summed over timesteps."""
        return nll(self.teacher_forced_logprobs(src_ids, tgt_ids, rng, train))

    def decode_step(self, state, prev_id: int):
        probs, states = self.decode_step_batch([state], [prev_id])
        return probs[0], states[0]


def build_model(config: ModelConfig, rng: np.random.Generator) -> Seq2Seq:
    """Instantiate the architecture named by config.arch.

    Parameters are drawn from ``rng`` in a fixed order, so equal (config,
    rng state) pairs produce bit-identical models.
    """
    # local imports: both submodules use the helpers above
    if config.arch == "transformer":
        from .transformer import TransformerSeq2Seq
        return TransformerSeq2Seq(config, rng)
    from .lstm import LSTMSeq2Seq
    return LSTMSeq2Seq(config, rng)


def count_parameters(model) -> int:
    return sum(p.size for p in model.params.values())
