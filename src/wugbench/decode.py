"""Decoding: greedy, beam search, ancestral sampling, forced scoring.

Everything here drives a model through the one protocol of
``seq2seq.model``.  Greedy, sampling and beam search take a list of
sources and work through it in chunks of ``CHUNK``: each chunk is encoded
as one padded pass, and every live hypothesis of every source in it
advances as one row of a single ``decode_step_batch`` call, as in
fairseq's batched generator (Ott et al. 2019).  Greedy and sampling share
one loop of independent rows, one per (source, draw), that differ only in
how a row picks its next symbol.  Ranking, tie-breaks and the length cap
stay per source, and a row leaves the batch once it is done.  Beam search
keeps only each source's ``width`` best finished hypotheses and retires a
source as soon as its result is decided (Huang et al. 2017): when the last
of them scores strictly above its best live hypothesis.  Raw
log-probability never rises as a prefix extends: a step's probabilities
are at most 1, so it adds log p <= 0, also in floating point.  The stop is
therefore exact.  Forced scoring runs each chunk of (source, target) pairs
through one padded ``teacher_forced_logprobs`` pass, the pass training
runs.  Symbol sequences in hypotheses never include the start id; the end
id is consumed (its probability counts toward the score) but not stored.
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


def _extend(model, logprobs, state, prev_ids):
    """One decoding step for rows fed ``prev_ids``: returns the model's
    probabilities [N, V], the scores of every continuation, logprob +
    log P(sym) as [N, V], and the stepped state.  Every decode loop steps
    through here, so greedy scores exactly what beam search scores."""
    probs, state = model.decode_step_batch(state, prev_ids)
    with np.errstate(divide="ignore"):
        return probs, np.asarray(logprobs)[:, None] + np.log(probs), state


def _decode(run, model, sources, max_len: int | None, caller: str, *args) -> list:
    """``run(model, sources, max_lens, *args)`` on each chunk of sources,
    every source capped at ``max_len`` or its default length."""
    if max_len is not None and max_len < 1:
        raise ContractError(f"{caller}: max_len must be >= 1, got {max_len}")
    sources = [list(s) for s in sources]
    max_lens = [default_max_len(s) if max_len is None else max_len for s in sources]
    return [result for chunk, lens in zip(_chunks(sources), _chunks(max_lens))
            for result in run(model, chunk, lens, *args)]


def greedy_decode(model, sources, max_len: int | None = None) -> list[Hypothesis]:
    """Follow the argmax at every step (ties break to the lowest id); one
    hypothesis per source."""
    return _decode(_rows_chunk, model, sources, max_len, "greedy_decode",
                   lambda probs, scores: scores.argmax(axis=1))


def sample_decode(model, sources, draws: int, rng: np.random.Generator,
                  max_len: int | None = None) -> list[list[Hypothesis]]:
    """Draw ``draws`` sequences per source from the model distribution.

    Each live row takes one uniform from ``rng`` per step, in row order,
    and maps it through its distribution's CDF, so a zero-probability
    symbol is never drawn and results depend only on the ``rng`` state.
    """
    if draws < 1:
        raise ContractError(f"sample_decode: draws must be >= 1, got {draws}")

    def pick(probs, scores):
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]  # the last entry is exactly 1, above every uniform
        return (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1)

    hyps = _decode(_rows_chunk, model, sources, max_len, "sample_decode", pick, draws)
    return [hyps[first:first + draws] for first in range(0, len(hyps), draws)]


def _rows_chunk(model, sources, max_lens, pick, draws: int = 1) -> list[Hypothesis]:
    """``draws`` independent rows per source, source-major.  Each step
    ``pick(probs, scores)`` gives every live row its next symbol; a row is
    done when it picks the end id or reaches its source's cap."""
    state = model.encode(sources).take(np.repeat(np.arange(len(sources)), draws))
    caps = np.repeat(max_lens, draws)
    rows = list(range(len(caps)))  # the hypothesis of each row
    symbols: list[list[int]] = [[] for _ in rows]
    logprobs, prev = np.zeros(len(rows)), [BOS] * len(rows)
    done: list[Hypothesis | None] = [None] * len(rows)
    for step in range(max(max_lens)):
        probs, scores, state = _extend(model, logprobs, state, prev)
        prev = pick(probs, scores)
        logprobs = scores[np.arange(len(rows)), prev]
        keep = []
        for row, h in enumerate(rows):
            ended = bool(prev[row] == EOS)
            if not ended:
                symbols[h].append(int(prev[row]))
            if ended or step + 1 == caps[h]:
                done[h] = Hypothesis(tuple(symbols[h]), float(logprobs[row]), ended)
            else:
                keep.append(row)
        if not keep:
            break
        rows, logprobs, prev = [rows[row] for row in keep], logprobs[keep], prev[keep]
        state = state.take(keep)
    return done


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
    return _decode(_beam_chunk, model, sources, max_len, "beam_search", width)


def _rank(hyp: Hypothesis):
    return -hyp.logprob, hyp.symbols


def _beam_chunk(model, sources, max_lens, width: int) -> list[Beam]:
    state = model.encode(sources)
    # per source, (symbols, logprob) of its live hypotheses in symbol order
    live: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in sources]
    finished: list[list[Hypothesis]] = [[] for _ in sources]
    stepping = list(range(len(sources)))  # sources with rows in the state, in row order
    for step in range(max(max_lens)):
        hyps = [h for s in stepping for h in live[s]]
        _, scores, state = _extend(model, [lp for _, lp in hyps], state,
                                   [sym[-1] if sym else BOS for sym, _ in hyps])
        parents, still, first = [], [], 0
        for s in stepping:
            block = scores[first:first + len(live[s])]
            # a source's prefixes share one length and sit in symbol order,
            # so flat index order is symbol order and a stable sort breaks
            # score ties by symbols
            kids, ended = [], []
            for flat in np.argsort(-block.ravel(), kind="stable")[:width]:
                i, sym = divmod(int(flat), block.shape[1])
                symbols = live[s][i][0] + (sym,)
                logprob = float(block[i, sym])
                if sym == EOS:
                    ended.append(Hypothesis(symbols[:-1], logprob, True))
                else:
                    kids.append((symbols, logprob, first + i))
            if ended:
                finished[s] = sorted(finished[s] + ended, key=_rank)[:width]
            # kids are still best-first.  Once the width-th finished
            # hypothesis beats the best kid outright, no extension can enter
            # the top width (see beam_search) and the source is decided
            decided = (len(finished[s]) == width and bool(kids)
                       and finished[s][-1].logprob > kids[0][1])
            kids.sort(key=lambda kid: kid[0])
            first += len(live[s])
            live[s] = [(symbols, logprob) for symbols, logprob, _ in kids]
            if kids and step + 1 < max_lens[s] and not decided:
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
