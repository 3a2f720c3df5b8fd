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
  right-padded to T target positions, 0 at the padded ones, encoding each
  distinct source once; forced scoring runs it, and ``batch_loss(pairs,
  rng=None, train=True)`` is its negated sum, the loss training takes once
  per batch, and ``loss`` its one-pair case

``Seq2Seq`` implements them all once, around three hooks in which an
architecture writes only its network.

States are immutable, so search code can fork them freely: ``state.take``
picks rows by parent index, repeats allowed, the way fairseq reorders its
incremental state (Ott et al. 2019).  Histories that grow by a position
a step, such as the transformer's keys and values, are never copied by
it: they live in a store that every state forked from one ``encode``
shares and that is written once per row and position, and a state holds
each row's ancestry, its slots in that store, as PagedAttention forks a
beam by its block table (Kwon et al. 2023).  Targets always end with the
end-of-sequence id; the decoder is fed the start id plus the target
shifted right.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..corpus import BOS, PAD
from ..ndiff import Tensor, embedding_lookup, mul, no_grad, sum_, target_logprobs
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


class _Store:
    """The histories of one ``encode``'s rows, shared by every state forked
    from it, and append-only: ``arrays[name]`` [capacity, *width] holds one
    history, created by its first write, whose rows [0, used) are each
    written once, so a fork never sees another fork's writes."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}
        self.used = self.capacity = 0

    def claim(self, n: int) -> np.ndarray:
        """``n`` fresh row slots.  Growing doubles the capacity and copies
        the written rows, so a row's slot never moves."""
        start, self.used = self.used, self.used + n
        if self.used > self.capacity:
            self.capacity = max(2 * self.capacity, self.used)
            for name, old in self.arrays.items():
                self.arrays[name] = np.empty((self.capacity, *old.shape[1:]))
                self.arrays[name][:start] = old[:start]
        return np.arange(start, self.used)

    def write(self, name: str, slots: np.ndarray, rows: np.ndarray) -> None:
        if name not in self.arrays:
            self.arrays[name] = np.empty((self.capacity, *rows.shape[1:]))
        self.arrays[name][slots] = rows


@dataclass(frozen=True)
class DecodeState:
    """Decoder state of N rows, each a hypothesis of one encoded source.

    ``rows`` holds the per-row arrays a step replaces (an LSTM's state and
    context), which ``take`` gathers.  Histories a step extends by one
    position (the transformer's self-attention keys and values) sit in
    ``store``, which every state forked from one ``encode`` shares and
    only appends to; a state keeps just each row's ancestry, ``ancestry``
    [N, t], its store slots oldest position first, so ``take`` gathers
    integers for them.  ``shared`` holds a model's per-source arrays, then
    the live mask (first axis: source), and ``src`` [N] each row's source.
    """

    src: np.ndarray
    rows: tuple[np.ndarray, ...]
    ancestry: np.ndarray
    store: _Store
    shared: tuple

    def __len__(self) -> int:
        return len(self.src)

    def take(self, index) -> "DecodeState":
        """The rows at ``index`` [M], in that order."""
        index = np.asarray(index, dtype=np.intp)
        return replace(self, src=self.src[index], rows=tuple(r[index] for r in self.rows),
                       ancestry=self.ancestry[index])


class DecodeStep:
    """One decode step's view of its rows, for a model's ``_step``: each
    row's source ``src``, the rows' position ``length``, and ``append``
    for the histories, which gives each row a fresh store slot for that
    position, so a step writes only rows no state has seen."""

    def __init__(self, state: DecodeState):
        self.src = state.src
        self.length = state.ancestry.shape[1]  # the rows' positions before this step
        self._store = state.store
        self.ancestry = np.concatenate(
            [state.ancestry, self._store.claim(len(state))[:, None]], axis=1)
        self.appended: set[str] = set()

    def append(self, name: str, new: Tensor) -> Tensor:
        """Write new [N, 1, *width] as position ``length`` of the history
        ``name``, once a step -> each row's whole history, gathered in one
        pass [N, length + 1, *width]."""
        if name in self.appended:
            raise ContractError(f"_step appended history {name!r} twice in one step")
        self._store.write(name, self.ancestry[:, -1], new.data[:, 0])
        self.appended.add(name)
        return Tensor(self._store.arrays[name][self.ancestry])


class Seq2Seq:
    """The protocol around a subclass's network, which it writes as hooks,
    pure functions of Tensors and boolean live masks that keep the position
    axis; ``Seq2Seq`` alone builds, stores and steps ``DecodeState``s:

    - ``_encode(src, live, train, rng) -> (rows, shared)``: padded source ids
      [B, S] with live mask [B, S] -> per-row decoder start, per-source Tensors
    - ``_step(rows, shared, live, prev_ids, step) -> (logits [N, 1, V],
      rows)``: feed prev_ids [N] to every row; row n decodes source
      ``step.src[n]`` of the per-source ``shared`` and ``live``, and a
      model with histories appends to each of them once a step through
      ``step.append``, which returns the whole history
    - ``_forced(rows, shared, live, tgt_in, train, rng) -> logits [B, T, V]``:
      the teacher-forced pass from ``_encode`` over decoder inputs tgt_in [B, T];
      ``rows``, ``shared`` and ``live`` are each pair's own source's
    """

    def encode(self, sources) -> DecodeState:
        src, live = _padded_sources(sources)
        with no_grad():
            rows, shared = self._encode(src, live, False, None)
        return DecodeState(np.arange(len(src)), tuple(r.data for r in rows),
                           np.empty((len(src), 0), dtype=np.intp), _Store(),
                           (*(t.data for t in shared), live))

    def decode_step_batch(self, state: DecodeState, prev_ids):
        step = DecodeStep(state)
        *shared, live = state.shared
        with no_grad():
            logits, rows = self._step(tuple(Tensor(r) for r in state.rows),
                                      tuple(Tensor(a) for a in shared), live,
                                      np.asarray(prev_ids, dtype=np.intp), step)
        if step.appended != state.store.arrays.keys():
            raise ContractError("_step must append to every history once a step")
        logits = logits.data[:, 0]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))  # the softmax
        return e / e.sum(axis=-1, keepdims=True), replace(
            state, rows=tuple(r.data for r in rows), ancestry=step.ancestry)

    def teacher_forced_logprobs(self, pairs, rng=None, train: bool = False) -> Tensor:
        """Each distinct source is encoded once, in first-seen order; when a
        source repeats, its encoder outputs and live mask are gathered to its
        pairs' rows, whose gradients the gather sums back.  A batch of
        distinct sources runs the encoder outputs as they are."""
        first: dict[tuple, int] = {}  # source -> its row in the encoder pass
        index = np.array([first.setdefault(tuple(s), len(first)) for s, _ in pairs],
                         dtype=np.intp)
        src, src_live = _padded_sources(list(first))
        tgt, live = _padded([t for _, t in pairs])
        tgt_in = np.concatenate([np.full((len(tgt), 1), BOS, dtype=np.intp), tgt[:, :-1]], axis=1)
        rows, shared = self._encode(src, src_live, train, rng)
        if len(first) < len(pairs):
            rows, shared = (tuple(embedding_lookup(t, index) for t in ts) for ts in (rows, shared))
            src_live = src_live[index]
        return target_logprobs(self._forced(rows, shared, src_live, tgt_in, train, rng), tgt, live)

    def batch_loss(self, pairs, rng=None, train: bool = True) -> Tensor:
        """Summed negative log-likelihood of (src_ids, tgt_ids) pairs, every
        target ending in the end id, as one padded graph."""
        return nll(self.teacher_forced_logprobs(pairs, rng, train))

    def loss(self, src_ids, tgt_ids, rng=None, train: bool = True) -> Tensor:
        """Negative log-likelihood of tgt_ids, summed over timesteps."""
        return self.batch_loss([(src_ids, tgt_ids)], rng, train)


def build_model(config: ModelConfig, rng: np.random.Generator | None = None) -> Seq2Seq:
    """Instantiate the architecture named by config.arch.

    Parameters are drawn from ``rng`` in a fixed order, so equal (config,
    rng state) pairs produce bit-identical models.  Without ``rng`` the
    drawn parameters are allocated but neither drawn nor written, for a
    checkpoint's arrays to replace (``move_into``) or fill (``restore_into``).
    """
    # local imports: both submodules use the helpers above
    if config.arch == "transformer":
        from .transformer import TransformerSeq2Seq
        return TransformerSeq2Seq(config, rng)
    from .lstm import LSTMSeq2Seq
    return LSTMSeq2Seq(config, rng)


def count_parameters(model) -> int:
    return sum(p.size for p in model.params.values())
