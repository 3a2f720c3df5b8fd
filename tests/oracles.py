"""Independent oracles the implementation is tested against.

Everything here is written the dumbest correct way: exhaustive
enumeration, from-scratch rescoring, explicit loops.  None of it shares
code with the package internals it checks.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

import numpy as np
from scipy.special import stdtr

from wugbench.corpus import BOS, EOS
from wugbench.ndiff import ContractError, Tensor, backward, no_grad


# ---------------------------------------------------------------------------
# a model whose distribution is a hand-set lookup table


class TableRows(tuple):
    """A TableModel state: the tuple of ids fed to each row's decoder."""

    def take(self, index):
        return TableRows(self[int(i)] for i in index)


class TableModel:
    """Sequence model defined by an explicit prefix -> distribution table.

    ``table`` maps the tuple of symbols generated so far to a probability
    vector over the vocabulary; missing prefixes fall back to uniform.
    A state row is just the tuple of ids fed to the decoder.  Its
    teacher-forced pass chains one-row steps pair by pair, and
    ``decode_step_batch`` loops over rows.
    """

    def __init__(self, table: dict[tuple[int, ...], np.ndarray], vocab_size: int):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.vocab_size = vocab_size

    def encode(self, sources):
        return TableRows(() for _ in sources)

    def _row_step(self, fed, prev_id):
        fed = tuple(fed) + (int(prev_id),)
        generated = fed[1:]  # drop the start id
        probs = self.table.get(generated)
        if probs is None:
            probs = np.full(self.vocab_size, 1.0 / self.vocab_size)
        return probs.copy(), fed

    def decode_step_batch(self, state, prev_ids):
        rows = [self._row_step(fed, p) for fed, p in zip(state, prev_ids)]
        return np.stack([p for p, _ in rows]), TableRows(fed for _, fed in rows)

    def teacher_forced_logprobs(self, pairs, rng=None, train=False):
        width = max(len(tgt) for _, tgt in pairs)
        out = np.zeros((len(pairs), width))
        for i, (src, tgt) in enumerate(pairs):
            out[i, :len(tgt)] = chained_logprobs(self, src, tgt)
        return Tensor(out)


def random_table_model(rng: np.random.Generator, vocab_size: int,
                       depth: int, eos_boost: float = 1.0) -> TableModel:
    """Dirichlet-random distributions for every prefix up to ``depth``.

    ``eos_boost`` scales the end-symbol mass so tests can control how
    often sequences finish early.
    """
    table: dict[tuple[int, ...], np.ndarray] = {}

    def fill(prefix: tuple[int, ...]):
        probs = rng.dirichlet(np.ones(vocab_size))
        probs[EOS] *= eos_boost
        probs /= probs.sum()
        table[prefix] = probs
        if len(prefix) < depth:
            for sym in range(vocab_size):
                if sym != EOS:
                    fill(prefix + (sym,))

    fill(())
    return TableModel(table, vocab_size)


# ---------------------------------------------------------------------------
# search and scoring oracles


def chained_logprobs(model, src_ids, tgt_ids) -> np.ndarray:
    """Per-step log-probabilities of a forced target, one row stepped at a time."""
    with no_grad():
        state = model.encode([src_ids])
        out = np.zeros(len(tgt_ids))
        prev = BOS
        for t, sym in enumerate(tgt_ids):
            (probs,), state = model.decode_step_batch(state, [prev])
            p = float(probs[sym])
            out[t] = math.log(p) if p > 0.0 else -math.inf
            prev = sym
    return out


def rescore_prefix(model, src_ids, prefix) -> float:
    """Log-probability of a symbol sequence by full from-scratch chaining."""
    state = model.encode([src_ids])
    prev = BOS
    total = 0.0
    for sym in prefix:
        (probs,), state = model.decode_step_batch(state, [prev])
        p = float(probs[sym])
        total += math.log(p) if p > 0.0 else -math.inf
        prev = sym
    return total


def enumeration_beam(model, src_ids, width: int, max_len: int):
    """Depth-synchronous beam reference with no incremental state.

    At each depth every extension of every surviving prefix is rescored
    from scratch; selection and tie-breaking follow the same
    (-logprob, symbols) rule as the implementation.  Returns a list of
    (symbols, logprob, finished) triples, best first.
    """
    (probs0,), _ = model.decode_step_batch(model.encode([src_ids]), [BOS])
    vocab = len(probs0)
    live: list[tuple[int, ...]] = [()]
    finished: list[tuple[tuple[int, ...], float]] = []
    for _ in range(max_len):
        if not live:
            break
        candidates = [prefix + (sym,) for prefix in live for sym in range(vocab)]
        scored = sorted(
            ((rescore_prefix(model, src_ids, c), c) for c in candidates),
            key=lambda sc: (-sc[0], sc[1]),
        )
        live = []
        for logprob, cand in scored[:width]:
            if cand[-1] == EOS:
                finished.append((cand[:-1], logprob))
            else:
                live.append(cand)
    if finished:
        ranked = sorted(finished, key=lambda fc: (-fc[1], fc[0]))
        return [(sym, lp, True) for sym, lp in ranked[:width]]
    ranked = sorted(
        ((rescore_prefix(model, src_ids, c), c) for c in live),
        key=lambda sc: (-sc[0], sc[1]),
    )
    return [(c, lp, False) for lp, c in ranked[:width]]


def exhaustive_best(model, src_ids, max_len: int):
    """The true argmax finished sequence by enumerating everything."""
    (probs0,), _ = model.decode_step_batch(model.encode([src_ids]), [BOS])
    vocab = len(probs0)
    best: tuple[float, tuple[int, ...]] | None = None

    def walk(prefix: tuple[int, ...]):
        nonlocal best
        eos_lp = rescore_prefix(model, src_ids, prefix + (EOS,))
        key = (eos_lp, prefix)
        if best is None or (-key[0], key[1]) < (-best[0], best[1]):
            best = key
        if len(prefix) < max_len - 1:
            for sym in range(vocab):
                if sym != EOS:
                    walk(prefix + (sym,))

    walk(())
    return best[1], best[0]


# ---------------------------------------------------------------------------
# statistics oracles


def pearson_oracle(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sxx = syy = 0.0
    for xi, yi in zip(x, y):
        sxy += (xi - mx) * (yi - my)
        sxx += (xi - mx) ** 2
        syy += (yi - my) ** 2
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


def ranks_oracle(x) -> list[float]:
    """Rank of x_i = 1 + (# strictly smaller) + (# equal others) / 2."""
    out = []
    for i, xi in enumerate(x):
        smaller = sum(1 for xj in x if xj < xi)
        ties = sum(1 for j, xj in enumerate(x) if xj == xi and j != i)
        out.append(1.0 + smaller + ties / 2.0)
    return out


def spearman_oracle(x, y) -> float:
    return pearson_oracle(ranks_oracle(x), ranks_oracle(y))


def t_pvalue_oracle(stat: float, n: int) -> float:
    if n < 3 or not math.isfinite(stat):
        return float("nan")
    if abs(stat) >= 1.0:
        return 0.0
    t = stat * math.sqrt((n - 2) / (1.0 - stat * stat))
    return 2.0 * float(stdtr(n - 2, -abs(t)))


# ---------------------------------------------------------------------------
# gradient checks


def grad_check(f: Callable[[Tensor], Tensor], x, h: float = 1e-5) -> float:
    """Max elementwise relative error between analytic and central-difference
    gradients of the scalar function ``f`` at ``x``.

    Error per element is |a - n| / max(|a|, |n|, 1e-8), which stays finite
    when both gradients vanish.
    """
    x0 = np.array(x, dtype=np.float64)
    leaf = Tensor(x0.copy(), requires_grad=True)
    out = f(leaf)
    if out.shape != ():
        raise ContractError(f"grad_check: f must return a scalar, got shape {out.shape}")
    backward(out)
    analytic = np.zeros_like(x0) if leaf.grad is None else leaf.grad

    numeric = np.zeros_like(x0)
    flat = numeric.reshape(-1)
    with no_grad():
        for i in range(x0.size):
            xp = x0.copy()
            xp.flat[i] += h
            xm = x0.copy()
            xm.flat[i] -= h
            flat[i] = (f(Tensor(xp)).item() - f(Tensor(xm)).item()) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def composed_target_logprobs(logits, targets, live, g):
    """The loss head as two ops composed: a log-softmax over the last axis,
    then a gather of each position's target, weighted 0/1 by ``live``.
    Returns the forward [...] and, for the upstream gradient ``g`` [...],
    the gradient with respect to ``logits`` [..., V], each op's backward
    run in turn: the weighting, the gather's scatter, then the log-softmax
    backward ``G - exp(y) * sum(G)``."""
    x = np.asarray(logits).reshape(-1, np.shape(logits)[-1])
    rows = np.arange(len(x))
    idx = np.asarray(targets).reshape(-1)
    weights = np.asarray(live, dtype=np.float64).reshape(-1)
    shifted = x - x.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    forward = y[rows, idx] * weights
    scattered = np.zeros_like(x)
    scattered[rows, idx] = np.asarray(g).reshape(-1) * weights
    grad = scattered - np.exp(y) * scattered.sum(axis=-1, keepdims=True)
    return forward.reshape(np.shape(targets)), grad.reshape(np.shape(logits))


def op_counts(root: Tensor) -> Counter:
    """Recorded op nodes (nodes with a VJP) reachable from root through
    parents that require grad, counted by the op that made them (the
    function whose closure their VJP is); leaves are not counted."""
    seen: set[int] = set()
    counts: Counter = Counter()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad or node._vjp is None:
            continue
        seen.add(id(node))
        counts[node._vjp.__qualname__.split(".")[0]] += 1
        stack.extend(node._parents)
    return counts


def interior_nodes(root: Tensor) -> int:
    """Number of recorded op nodes reachable from root (see ``op_counts``)."""
    return sum(op_counts(root).values())


def directional_grad_error(model, src_ids, tgt_ids, rng: np.random.Generator,
                           h: float = 1e-6) -> float:
    """Relative error between the analytic directional derivative of the
    training loss and its central-difference estimate, along one random
    direction through all parameters."""
    for p in model.params.values():
        p.grad = None
    loss = model.loss(src_ids, tgt_ids, train=False)
    backward(loss)
    direction = {k: rng.normal(size=p.data.shape) for k, p in model.params.items()}
    analytic = sum(
        float(np.sum(p.grad * direction[k]))
        for k, p in model.params.items() if p.grad is not None
    )
    with no_grad():
        for k, p in model.params.items():
            p.data += h * direction[k]
        fp = model.loss(src_ids, tgt_ids, train=False).item()
        for k, p in model.params.items():
            p.data -= 2.0 * h * direction[k]
        fm = model.loss(src_ids, tgt_ids, train=False).item()
        for k, p in model.params.items():
            p.data += h * direction[k]
    numeric = (fp - fm) / (2.0 * h)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
