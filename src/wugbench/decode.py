"""Decoding: greedy, beam search, ancestral sampling, forced scoring.

Everything here drives a model through the one protocol of
``seq2seq.model``.  Greedy, sampling and beam search run one search loop,
as fairseq's ``SequenceGenerator`` runs its search strategies (Ott et al.
2019).  It takes a list of sources and works through it in chunks of
``CHUNK``: each chunk is encoded as one padded pass, and every live
hypothesis of every search in it advances as one row of a single
``decode_step_batch`` call.  A search keeps its ``width`` best finished
hypotheses, and a strategy only chooses each search's next symbols:
beam search takes the ``width`` best continuations, greedy is the width-1
beam, and a sampled draw is a width-1 search that draws its next symbol
through the CDF, ``draws`` searches per source.  Ranking, tie-breaks and
the length cap stay per search, and a search leaves the batch once it is
done.  A search retires as soon as its result is decided (Huang et al.
2017): when the last of its ``width`` finished hypotheses scores strictly
above its best live one.  Raw log-probability never rises as a prefix
extends: a step's probabilities are at most 1, so it adds log p <= 0,
also in floating point.  The stop is therefore exact.  Forced scoring
runs each chunk of (source, target) pairs through one padded
``teacher_forced_logprobs`` pass, the pass training runs.  Symbol
sequences in hypotheses never include the start id; the end id is
consumed (its probability counts toward the score) but not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import BOS, EOS
from .ndiff import no_grad
from .ndiff.tensor import ContractError

# Sources (or forced pairs) per batched pass.  Fixed in code, so results do
# not depend on the machine or the worker count; a chunk of beam-12 rows
# keeps the transformer's self-attention cache to tens of megabytes.
CHUNK = 16


@dataclass(frozen=True)
class Hypothesis:
    """A (possibly unfinished) decoded sequence with its raw log-probability."""

    symbols: tuple[int, ...]
    logprob: float
    finished: bool


@dataclass(frozen=True)
class Beam:
    """Beam search result for one source: ``hyps`` best-first.  ``finished``
    is False when nothing finished within the length cap and ``hyps`` are
    the best unfinished hypotheses."""

    hyps: tuple[Hypothesis, ...]
    finished: bool


@dataclass(frozen=True)
class ForcedScore:
    """Score of one forced target sequence.

    ``normalized_prob`` is the geometric mean per-factor probability,
    exp(raw / (k+1)) for k characters plus the end-of-sequence factor,
    so word length does not dominate comparisons between candidates.
    """

    raw_logprob: float
    normalized_prob: float
    step_logprobs: tuple[float, ...]


def default_max_len(src_ids: Sequence[int]) -> int:
    """Decode length cap: inflected forms are near source length."""
    return len(src_ids) + 10


def _chunks(items: list) -> list[list]:
    return [items[start:start + CHUNK] for start in range(0, len(items), CHUNK)]


def _decode(model, sources, max_len: int | None, caller: str, width: int, draws: int,
            choose) -> list[Beam]:
    """``_search_chunk`` on each chunk of sources, every source capped at
    ``max_len`` or its default length."""
    if max_len is not None and max_len < 1:
        raise ContractError(f"{caller}: max_len must be >= 1, got {max_len}")
    sources = [list(s) for s in sources]
    max_lens = [default_max_len(s) if max_len is None else max_len for s in sources]
    return [beam for chunk, lens in zip(_chunks(sources), _chunks(max_lens))
            for beam in _search_chunk(model, chunk, lens, width, draws, choose)]


def _best(probs, scores, width: int):
    """Beam search's choice: the ``width`` best continuations.  A search's
    prefixes share one length and sit in symbol order, so flat index order
    is symbol order and a stable sort breaks score ties by symbols."""
    return np.argsort(-scores.ravel(), kind="stable")[:width]


def greedy_decode(model, sources, max_len: int | None = None) -> list[Hypothesis]:
    """Follow the argmax at every step (ties break to the lowest id); one
    hypothesis per source.  This is the width-1 beam."""
    return [beam.hyps[0] for beam in
            _decode(model, sources, max_len, "greedy_decode", 1, 1, _best)]


def sample_decode(model, sources, draws: int, rng: np.random.Generator,
                  max_len: int | None = None) -> list[list[Hypothesis]]:
    """Draw ``draws`` sequences per source from the model distribution.

    Each draw is a width-1 search that draws its next symbol: every live
    draw takes one uniform from ``rng`` per step, in source-then-draw
    order, and maps it through its distribution's CDF, so a
    zero-probability symbol is never drawn and results depend only on the
    ``rng`` state.
    """
    if draws < 1:
        raise ContractError(f"sample_decode: draws must be >= 1, got {draws}")

    def draw(probs, scores, width: int):
        cdf = probs.cumsum()
        cdf /= cdf[-1]  # the last entry is exactly 1, above every uniform
        return [np.count_nonzero(cdf <= rng.random())]

    hyps = [beam.hyps[0] for beam in
            _decode(model, sources, max_len, "sample_decode", 1, draws, draw)]
    return [hyps[first:first + draws] for first in range(0, len(hyps), draws)]


def beam_search(model, sources, width: int, max_len: int | None = None) -> list[Beam]:
    """Beam search over raw log-probability, one ``Beam`` per source.

    Each step scores every live hypothesis of a source over the whole
    vocabulary and keeps that source's ``width`` best continuations;
    continuations ending in the end id retire to the source's finished pool
    and give up their slot.  Ranking and all tie-breaks are by (-logprob,
    symbols), so results are deterministic.  A beam holds the finished
    hypotheses best-first, or the best unfinished ones (flagged) if nothing
    finished within the source's ``max_len`` steps.

    The finished pool keeps only the ``width`` best, the most a beam can
    return.  A source stops stepping once nothing of it is live, at its
    cap, or once the pool is full and its last hypothesis scores strictly
    above the best live one.  No extension of a live hypothesis can score
    above it, as each step adds log p <= 0, so none could still enter the
    pool, and the beam equals that of a search run to the cap.  A tie
    keeps the source stepping: a later finisher with the same score and
    lower symbols would rank above the last one.
    """
    if width < 1:
        raise ContractError(f"beam_search: width must be >= 1, got {width}")
    return _decode(model, sources, max_len, "beam_search", width, 1, _best)


def _rank(hyp: Hypothesis):
    return -hyp.logprob, hyp.symbols


def _search_chunk(model, sources, max_lens, width: int, draws: int, choose) -> list[Beam]:
    """``draws`` searches per source, source-major, one ``Beam`` each.  Each
    step ``choose(probs, scores, width)`` gives every stepping search its
    next symbols best-first, as flat indices into its rows' [live, V]
    probabilities and scores (logprob + log P(sym))."""
    state = model.encode(sources).take(np.repeat(np.arange(len(sources)), draws))
    caps = np.repeat(max_lens, draws)
    # per search, (symbols, logprob) of its live hypotheses in symbol order
    live: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in caps]
    finished: list[list[Hypothesis]] = [[] for _ in caps]
    stepping = list(range(len(caps)))  # searches with rows in the state, in row order
    for step in range(max(max_lens)):
        hyps = [h for s in stepping for h in live[s]]
        probs, state = model.decode_step_batch(state, [sym[-1] if sym else BOS for sym, _ in hyps])
        with np.errstate(divide="ignore"):
            scores = np.array([lp for _, lp in hyps])[:, None] + np.log(probs)
        parents, still, first = [], [], 0
        for s in stepping:
            rows = slice(first, first + len(live[s]))
            kids, ended = [], []
            for flat in choose(probs[rows], scores[rows], width):
                i, sym = divmod(int(flat), probs.shape[1])
                symbols = live[s][i][0] + (sym,)
                logprob = float(scores[first + i, sym])
                if sym == EOS:
                    ended.append(Hypothesis(symbols[:-1], logprob, True))
                else:
                    kids.append((symbols, logprob, first + i))
            if ended:
                finished[s] = sorted(finished[s] + ended, key=_rank)[:width]
            # kids are still best-first.  Once the width-th finished
            # hypothesis beats the best kid outright, no extension can enter
            # the top width (see beam_search) and the search is decided
            decided = (len(finished[s]) == width and bool(kids)
                       and finished[s][-1].logprob > kids[0][1])
            kids.sort(key=lambda kid: kid[0])
            first += len(live[s])
            live[s] = [(symbols, logprob) for symbols, logprob, _ in kids]
            if kids and step + 1 < caps[s] and not decided:
                still.append(s)
                parents += [parent for *_, parent in kids]
        if not still:
            break
        stepping = still
        state = state.take(parents)

    beams = []
    for s, done in enumerate(finished):
        pool = done or sorted((Hypothesis(symbols, logprob, False)
                               for symbols, logprob in live[s]), key=_rank)
        beams.append(Beam(tuple(pool), bool(done)))
    return beams


def force_score(model, pairs) -> list[ForcedScore]:
    """Score given (source, target) pairs by the model's teacher-forced
    pass, one padded pass per chunk; every target must end with the end id."""
    pairs = [(list(src), list(tgt)) for src, tgt in pairs]
    if any(not tgt or tgt[-1] != EOS for _, tgt in pairs):
        raise ContractError("force_score: target must be non-empty and end with the end id")
    out: list[ForcedScore] = []
    for chunk in _chunks(pairs):
        with no_grad():
            logprobs = model.teacher_forced_logprobs(chunk)
        for (_, tgt), row in zip(chunk, logprobs.data):
            steps = row[:len(tgt)]
            raw = float(steps.sum())
            normalized = math.exp(raw / len(tgt)) if math.isfinite(raw) else 0.0
            out.append(ForcedScore(raw, normalized, tuple(float(s) for s in steps)))
    return out
