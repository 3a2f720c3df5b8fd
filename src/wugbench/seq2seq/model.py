"""Shared model surface: construction, losses, parameter accounting.

Every model exposes the same duck-typed interface:

- ``params``: name -> Tensor, in a fixed creation order
- ``encode(src_ids) -> state``
- ``decode_step(state, prev_id) -> (probs ndarray [V], state)``
- ``teacher_forced_logprobs(src_ids, tgt_ids, rng=None, train=False) ->
  Tensor [len(tgt_ids)]``: log P(tgt_t | tgt_<t, src) at every position,
  as a graph node; training and forced scoring both run it
- ``loss(src_ids, tgt_ids, rng=None, train=True) -> scalar Tensor``, the
  negated sum of ``teacher_forced_logprobs``

A model may also offer ``decode_step_batch(states, prev_ids) -> (probs
[k, V], states)`` to advance several hypotheses of one source at once, and
``batch_loss(pairs, rng=None, train=True)`` to score a training batch of
(src_ids, tgt_ids) pairs as one graph; search and training use them when
present.

States are immutable, so search code can fork them freely.  Targets always
end with the end-of-sequence id; the decoder is fed the start id plus the
target shifted right.
"""

from __future__ import annotations

import numpy as np

from ..ndiff import Tensor, gather, log_softmax, mul, sum_
from .config import ModelConfig


def target_logprobs(logits: Tensor, tgt_ids) -> Tensor:
    """log-softmax of logits [N, V] read at tgt_ids [N] -> [N]."""
    return gather(log_softmax(logits, axis=-1), tgt_ids)


def nll(logprobs: Tensor, weights=None) -> Tensor:
    """Negated sum of log-probabilities; 0/1 ``weights`` drop padded rows."""
    if weights is not None:
        logprobs = mul(logprobs, Tensor(weights))
    return mul(sum_(logprobs), Tensor(-1.0))


def build_model(config: ModelConfig, rng: np.random.Generator):
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
