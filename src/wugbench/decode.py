"""Decoding: greedy, beam search, ancestral sampling, forced scoring.

Everything here drives a model through the one protocol of
``seq2seq.model``.  Greedy and beam search step all their live
hypotheses together through ``decode_step_batch``, which every model
has; sampling uses its one-row case ``decode_step``.  Forced scoring runs
``teacher_forced_logprobs``, the pass training runs.  Symbol sequences in
hypotheses never include the start id; the end id is consumed (its
probability counts toward the score) but not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import BOS, EOS
from .ndiff import no_grad
from .ndiff.tensor import ContractError


@dataclass(frozen=True)
class Hypothesis:
    """A (possibly unfinished) decoded sequence with its raw log-probability."""

    symbols: tuple[int, ...]
    logprob: float
    state: object
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


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _extend(model, logprobs, states, prev_ids):
    """One decoding step for hypotheses fed ``prev_ids``: returns the scores
    of every continuation, logprob + log P(sym) as [k, V], and the stepped
    states.  Greedy decoding is the k=1 case of what beam search runs."""
    probs, states = model.decode_step_batch(states, prev_ids)
    with np.errstate(divide="ignore"):
        return np.asarray(logprobs)[:, None] + np.log(probs), states


def greedy_decode(model, src_ids, max_len: int | None = None) -> Hypothesis:
    """Follow the argmax at every step (ties break to the lowest id)."""
    if max_len is None:
        max_len = default_max_len(src_ids)
    if max_len < 1:
        raise ContractError(f"greedy_decode: max_len must be >= 1, got {max_len}")
    with no_grad():
        state = model.encode(src_ids)
        symbols: list[int] = []
        logprob = 0.0
        prev = BOS
        for _ in range(max_len):
            scores, (state,) = _extend(model, [logprob], [state], [prev])
            sym = int(np.argmax(scores[0]))
            logprob = float(scores[0, sym])
            if sym == EOS:
                return Hypothesis(tuple(symbols), logprob, state, True)
            symbols.append(sym)
            prev = sym
    return Hypothesis(tuple(symbols), logprob, state, False)


def sample_decode(model, src_ids, rng: np.random.Generator,
                  max_len: int | None = None) -> Hypothesis:
    """Draw one sequence from the model distribution."""
    if max_len is None:
        max_len = default_max_len(src_ids)
    with no_grad():
        state = model.encode(src_ids)
        symbols: list[int] = []
        logprob = 0.0
        prev = BOS
        for _ in range(max_len):
            probs, state = model.decode_step(state, prev)
            probs = probs / probs.sum()
            sym = int(rng.choice(len(probs), p=probs))
            logprob += _log(float(probs[sym]))
            if sym == EOS:
                return Hypothesis(tuple(symbols), logprob, state, True)
            symbols.append(sym)
            prev = sym
    return Hypothesis(tuple(symbols), logprob, state, False)


def beam_search(model, src_ids, width: int, max_len: int | None = None) -> list[Hypothesis]:
    """Beam search over raw log-probability.

    Each step scores every live hypothesis over the whole vocabulary as
    one [k, V] matrix and keeps the ``width`` best continuations;
    continuations ending in the end id retire to a finished pool and give
    up their slot.  Ranking and all tie-breaks are by (-logprob, symbols),
    so results are deterministic.
    Returns finished hypotheses best-first, or the best unfinished ones
    (flagged) if nothing finished within ``max_len`` steps.
    """
    if width < 1:
        raise ContractError(f"beam_search: width must be >= 1, got {width}")
    if max_len is None:
        max_len = default_max_len(src_ids)
    if max_len < 1:
        raise ContractError(f"beam_search: max_len must be >= 1, got {max_len}")

    with no_grad():
        live = [Hypothesis((), 0.0, model.encode(src_ids), False)]
        finished: list[Hypothesis] = []
        for _ in range(max_len):
            if not live:
                break
            scores, states = _extend(
                model, [h.logprob for h in live], [h.state for h in live],
                [h.symbols[-1] if h.symbols else BOS for h in live])
            # live is kept in symbol order and its prefixes share one length,
            # so flat index order is symbol order and a stable sort breaks
            # score ties by symbols
            best = np.argsort(-scores.ravel(), kind="stable")
            parents, live = live, []
            for flat in best[:width]:
                i, sym = divmod(int(flat), scores.shape[1])
                symbols = parents[i].symbols + (sym,)
                logprob = float(scores[i, sym])
                if sym == EOS:
                    finished.append(Hypothesis(symbols[:-1], logprob, states[i], True))
                else:
                    live.append(Hypothesis(symbols, logprob, states[i], False))
            live.sort(key=lambda h: h.symbols)

    pool = finished if finished else live
    pool = sorted(pool, key=lambda h: (-h.logprob, h.symbols))
    return pool[:width]


def force_score(model, src_ids, tgt_ids) -> ForcedScore:
    """Score a given target sequence (which must end with the end id) by
    the model's teacher-forced pass."""
    tgt_ids = list(tgt_ids)
    if not tgt_ids or tgt_ids[-1] != EOS:
        raise ContractError("force_score: target must be non-empty and end with the end id")
    with no_grad():
        steps = model.teacher_forced_logprobs(src_ids, tgt_ids).data
    raw = float(steps.sum())
    normalized = math.exp(raw / len(tgt_ids)) if math.isfinite(raw) else 0.0
    return ForcedScore(raw, normalized, tuple(float(s) for s in steps))
