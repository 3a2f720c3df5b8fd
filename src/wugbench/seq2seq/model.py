"""Shared model surface: the model protocol, losses, parameter accounting.

Every model subclasses ``Seq2Seq`` and has the same methods, none optional:

- ``params``: name -> Tensor, in a fixed creation order
- ``encode(sources) -> DecodeState``: one row per source id sequence,
  ready to be fed the start id; the sources are right-padded into one
  encoder pass, and a boolean live mask hides the padding
- ``decode_step_batch(state, prev_ids) -> (probs ndarray [N, V], state)``
  advances all N rows of a state by one position, whatever source each
  row decodes; greedy, sampling and beam search run it on every live
  hypothesis of many sources at once
- ``teacher_forced_logprobs(pairs, rng=None, train=False) -> Tensor
  [B, T]``: log P(tgt_t | tgt_<t, src) for (src_ids, tgt_ids) pairs
  right-padded to T target positions, 0 at the padded ones; forced
  scoring runs it, and ``batch_loss(pairs, rng=None, train=True)`` is its
  negated sum, the loss training takes once per batch, and ``loss`` its
  one-pair case

``Seq2Seq`` implements them all once, around three hooks in which an
architecture writes only its network.

States are immutable, so search code can fork them freely: ``state.take``
picks rows by parent index, repeats allowed, the way fairseq reorders its
incremental state (Ott et al. 2019).  Targets always end with the
end-of-sequence id; the decoder is fed the start id plus the target
shifted right.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..corpus import BOS, PAD
from ..ndiff import Tensor, mul, no_grad, sum_, target_logprobs
from ..ndiff.tensor import ContractError
from .config import ModelConfig


def nll(logprobs: Tensor) -> Tensor:
    """Negated sum of log-probabilities."""
    return mul(sum_(logprobs), Tensor(-1.0))


def _padded(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences with the pad id: (ids [B, T], live mask [B, T] True where real)."""
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    ids = np.full((len(seqs), int(lengths.max())), PAD, dtype=np.intp)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    return ids, np.arange(ids.shape[1]) < lengths[:, None]


def _padded_sources(sources) -> tuple[np.ndarray, np.ndarray]:
    """``_padded`` source ids; an empty source is refused."""
    if not all(len(s) for s in sources):
        raise ContractError("encode: empty source sequence")
    return _padded(sources)


@dataclass(frozen=True)
class DecodeState:
    """Decoder state of N rows, each a hypothesis of one encoded source.

    ``shared`` holds a model's per-source arrays, then the live mask (first
    axis: source); a step gathers its rows' slices through ``src`` [N], each
    row's source, and ``take`` leaves them alone.  ``rows`` holds the per-row arrays.
    """

    src: np.ndarray
    rows: tuple[np.ndarray, ...]
    shared: tuple

    def __len__(self) -> int:
        return len(self.src)

    def take(self, index) -> "DecodeState":
        """The rows at ``index`` [M], in that order."""
        index = np.asarray(index, dtype=np.intp)
        return replace(self, src=self.src[index], rows=tuple(r[index] for r in self.rows))


class Seq2Seq:
    """The protocol around a subclass's network, which it writes as hooks,
    pure functions of Tensors and boolean live masks that keep the position
    axis; ``Seq2Seq`` alone builds and stores ``DecodeState``s and gathers rows:

    - ``_encode(src, live, train, rng) -> (rows, shared)``: padded source ids
      [B, S] with live mask [B, S] -> per-row decoder start, per-source Tensors
    - ``_step(rows, shared, live, prev_ids) -> (logits [N, 1, V], rows)``: feed
      prev_ids [N] to every row; ``shared`` and ``live`` are the row's source's
    - ``_forced(rows, shared, live, tgt_in, train, rng) -> logits [B, T, V]``:
      the teacher-forced pass from ``_encode`` over decoder inputs tgt_in [B, T]
    """

    def encode(self, sources) -> DecodeState:
        src, live = _padded_sources(sources)
        with no_grad():
            rows, shared = self._encode(src, live, False, None)
        return DecodeState(np.arange(len(src)), tuple(r.data for r in rows),
                           (*(t.data for t in shared), live))

    def decode_step_batch(self, state: DecodeState, prev_ids):
        *shared, live = (a[state.src] for a in state.shared)
        with no_grad():
            logits, rows = self._step(tuple(Tensor(r) for r in state.rows),
                                      tuple(Tensor(a) for a in shared), live,
                                      np.asarray(prev_ids, dtype=np.intp))
        logits = logits.data[:, 0]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))  # the softmax
        return e / e.sum(axis=-1, keepdims=True), replace(state, rows=tuple(r.data for r in rows))

    def teacher_forced_logprobs(self, pairs, rng=None, train: bool = False) -> Tensor:
        src, src_live = _padded_sources([s for s, _ in pairs])
        tgt, live = _padded([t for _, t in pairs])
        tgt_in = np.concatenate([np.full((len(tgt), 1), BOS, dtype=np.intp), tgt[:, :-1]], axis=1)
        rows, shared = self._encode(src, src_live, train, rng)
        return target_logprobs(self._forced(rows, shared, src_live, tgt_in, train, rng), tgt, live)

    def batch_loss(self, pairs, rng=None, train: bool = True) -> Tensor:
        """Summed negative log-likelihood of (src_ids, tgt_ids) pairs, every
        target ending in the end id, as one padded graph."""
        return nll(self.teacher_forced_logprobs(pairs, rng, train))

    def loss(self, src_ids, tgt_ids, rng=None, train: bool = True) -> Tensor:
        """Negative log-likelihood of tgt_ids, summed over timesteps."""
        return self.batch_loss([(src_ids, tgt_ids)], rng, train)


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
