"""Dense float64 arrays with reverse-mode automatic differentiation.

Every op records its inputs and a vector-Jacobian closure on the output
node; ``backward`` walks the graph in reverse topological order and
accumulates gradients into the ``grad`` field of every leaf it reaches
(a node without a VJP, such as a parameter); interior nodes keep
``grad`` at ``None``.  Inference code should wrap calls in ``no_grad()``
to skip recording; the switch is per thread.

Arrays are float64 but not always C-contiguous: ``narrow`` returns
strided views, and every op reads its inputs through any strides.
There is no GPU path and no higher-order differentiation.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the attempted op."""


class ContractError(ValueError):
    """An op was called outside its documented contract."""


LAYER_NORM_EPS = 1e-5
_MASKED = -1e9  # a masked attention score: exp underflows to exactly 0 there

class _GradMode(threading.local):
    """Whether ops record the graph, per thread: one thread's ``no_grad``
    never turns recording off in another."""

    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode), in the
    calling thread only."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled() -> bool:
    return _grad_mode.enabled


class Tensor:
    """One node of the computation graph.

    ``data`` holds the value; a leaf's ``grad`` accumulates d(root)/d(self)
    across ``backward`` calls until reset to ``None`` or zeroed in place, as
    ``Adam.zero_grad`` does, so the next ``backward`` adds into the same
    array.  Leaf tensors created with
    ``requires_grad=True`` are trainable parameters; everything reachable
    from one inherits ``requires_grad`` so backward can prune dead branches.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A trainable leaf tensor (a C-contiguous copy of its input)."""
    return Tensor(np.array(data, dtype=np.float64, order="C"), requires_grad=True)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` for every leaf (node without
    a VJP, such as a parameter) feeding root.

    ``root`` must be scalar.  Within one call gradients propagate through a
    scratch table, which drops an interior node's entry once it has reached
    the node's parents.  Repeated calls without resetting grads add exactly
    one more copy of the gradient (accumulation semantics).  A leaf whose
    ``grad`` is ``None`` gets a copy of its gradient; one with an array, such
    as one ``Adam.zero_grad`` zeroed in place, has it added in place, so a
    training step allocates no leaf gradients after the first.

    A VJP may hand one array to several parents (``add`` passes ``g``
    through), so a table entry is written in place only once it is a buffer
    of our own: a node's second contribution allocates the sum, later ones
    add into it.
    """
    if root.shape != ():
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    local: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    owned: set[int] = set()
    for node in reversed(topo):
        if node._vjp is None:
            continue
        g = local.pop(id(node), None)
        if g is None:
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            acc = local.get(key)
            if acc is None:
                local[key] = pg
            elif key in owned:
                acc += pg
            else:
                local[key] = np.asarray(acc + pg)  # 0-d sums come back as scalars
                owned.add(key)

    for node in topo:
        g = local.get(id(node))
        if g is None:
            continue
        if node.grad is None:
            node.grad = np.array(g, dtype=np.float64)
        else:
            node.grad += g


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def _binary(name: str, a: Tensor, b: Tensor, fwd, vjp_factory) -> Tensor:
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from exc
    return _node(data, (a, b), vjp_factory(a, b))


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(
        "add", a, b, np.add,
        lambda a, b: lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(
        "multiply", a, b, np.multiply,
        lambda a, b: lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _node(y, (x,), lambda g, y=y: (g * (1.0 - y * y),))


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)
    mask = x.data > 0.0
    return _node(y, (x,), lambda g, mask=mask: (g * mask,))


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g, shape=x.shape, axis=axis, keepdims=keepdims):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _node(data, (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T + b`` over the last axis of x [..., in] -> [..., out].

    ``w`` is stored [out, in]; this is the fused linear layer used by every
    architecture, kept primitive to cut graph size.  The leading axes run
    as the rows of one GEMM, forward and backward.
    """
    if w.ndim != 2:
        raise ShapeError(f"affine: weight must be 2-D, got {w.shape}")
    if x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    rows = x.data.reshape(-1, w.shape[1])
    data = rows @ w.data.T
    if b is not None:
        data += b.data  # the product is a fresh array of our own

    parents = (x, w) if b is None else (x, w, b)

    def vjp(g, rows=rows, w=w, shape=x.shape, n=len(parents)):
        g = g.reshape(len(rows), w.shape[0])
        return ((g @ w.data).reshape(shape), g.T @ rows, g.sum(axis=0))[:n]

    return _node(data.reshape(*x.shape[:-1], w.shape[0]), parents, vjp)


# ---------------------------------------------------------------------------
# shape manipulation


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(
            f"concat: incompatible shapes {[t.shape for t in tensors]} along axis {axis}"
        ) from exc
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g, offsets=offsets, axis=axis, n=len(tensors)):
        slicer = [slice(None)] * g.ndim
        out = []
        for i in range(n):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            out.append(g[tuple(slicer)])
        return tuple(out)

    return _node(data, tensors, vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)
    data = x.data[slicer]

    def vjp(g, shape=x.shape, slicer=slicer):
        out = np.zeros(shape)
        out[slicer] = g
        return (out,)

    return _node(data, (x,), vjp)


# ---------------------------------------------------------------------------
# lookups


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` selected by integer ids of any shape ->
    [*ids.shape, *table.shape[1:]].  The table is any array with a leading
    row axis: an embedding matrix, or per-source encoder outputs gathered
    to the rows that read them.  A row picked more than once sums its
    gradients."""
    idx = np.asarray(ids, dtype=np.intp)
    if table.ndim < 1:
        raise ShapeError(f"embedding_lookup: table needs a row axis, got {table.shape}")
    data = table.data[idx]

    def vjp(g, shape=table.shape, idx=idx):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return _node(data, (table,), vjp)


# ---------------------------------------------------------------------------
# normalization and attention building blocks


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then
    scale-shift: ``x̂ * gain + bias`` with ``x̂ = (x - mean) / sqrt(var + eps)``.

    One node with the closed-form backward of Ba et al. (2016).  ``eps``
    keeps a zero-variance row finite: its ``x̂`` is the rounding error of
    its mean over ``sqrt(eps)``, about 1e-13 times the row's magnitude, so
    its output lies near ``bias`` but not exactly on it, and every
    gradient stays finite.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat = centered / std
    data = xhat * gain.data + bias.data

    def vjp(g, xhat=xhat, std=std, gain=gain, bias=bias):
        gh = g * gain.data
        gx = (gh - gh.mean(axis=-1, keepdims=True)
              - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) / std
        return (gx, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))

    return _node(data, (x, gain, bias), vjp)


def _source_slots(src, rows: int, sources: int) -> tuple[np.ndarray, int]:
    """For row sources ``src`` [rows]: each row's slot in a layout of
    ``sources`` blocks of ``per`` slots, source s's rows in block s in row
    order, with ``per`` the most rows of any one source -> (slots, per)."""
    src = np.asarray(src)
    if (src.shape != (rows,) or src.dtype.kind not in "iu"
            or rows and not 0 <= src.min() <= src.max() < sources):
        raise ValueError(f"src must hold {rows} integers in [0, {sources}), "
                         f"got {src.dtype} {src.shape}")
    count = np.bincount(src, minlength=sources)
    rank = np.empty(rows, dtype=np.intp)  # each row's place among its source's rows
    rank[np.argsort(src, kind="stable")] = np.arange(rows) - np.repeat(np.cumsum(count) - count,
                                                                        count)
    per = int(count.max(initial=0))
    return src * per + rank, per


def scaled_dot_product(q: Tensor, k: Tensor, v: Tensor, live: np.ndarray | None = None,
                       heads: int = 1, src=None) -> Tensor:
    """softmax(q k^T / sqrt(d_head)) v per head, for q [B, Tq, D] and
    k, v [B, Tk, D] -> [B, Tq, D]; the columns split into ``heads`` heads of
    d_head = D / heads, which merge back in order (Vaswani et al. 2017).

    One node; the backward is that of Dao et al. (2022) without the tiling.
    The boolean mask ``live`` broadcasts against the scores [B, heads, Tq, Tk]
    and is not differentiated; a key it marks False gets no weight.

    With the integer ``src`` [N], q is [N, Tq, D] and its row n attends over
    source ``src[n]`` of k and v [B, Tk, D] -> [N, Tq, D], the rows in any
    order, any number per source.  No row copies its source's keys and
    values: each source's rows run as that source's queries, its block of
    the most rows any source has, and ``live`` masks each source's keys,
    broadcasting against [B, 1, 1, Tk].
    """
    def split(x):  # [B, T, D] -> a view [B, heads, T, d_head]
        return x.reshape(*x.shape[:2], heads, -1).transpose(0, 2, 1, 3)

    def merge(x):  # [B, heads, T, d_head] -> [B, T, D]
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], -1)

    pad = unpad = lambda x: x  # without src, row b of q attends over row b of k and v
    try:
        if q.ndim != 3 or k.shape != v.shape or k.shape[2:] != q.shape[2:]:
            raise ValueError("q, k and v differ in rank or width")
        if src is None:
            if k.shape[0] != q.shape[0]:
                raise ValueError("q, k and v differ in batch size")
        else:
            slots, per = _source_slots(src, q.shape[0], k.shape[0])
            if np.broadcast_shapes(np.shape(live), (k.shape[0], 1, 1, k.shape[1])) != (
                    k.shape[0], 1, 1, k.shape[1]):
                raise ValueError("live is not a per-source key mask")

            def pad(x):  # rows [N, Tq, D] -> each source's rows as its queries [B, per * Tq, D]
                out = np.zeros((k.shape[0] * per, *x.shape[1:]))
                out[slots] = x
                return out.reshape(k.shape[0], per * q.shape[1], q.shape[2])

            def unpad(x):
                return x.reshape(k.shape[0] * per, *q.shape[1:])[slots]

        qh, kh, vh = split(pad(q.data)), split(k.data), split(v.data)
        scale = 1.0 / math.sqrt(qh.shape[-1])
        scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
        if live is not None:
            scores = np.where(live, scores, _MASKED)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        data = unpad(merge(np.matmul(probs, vh)))
    except ValueError as exc:
        raise ShapeError(f"scaled_dot_product: incompatible shapes {q.shape}, {k.shape} "
                         f"and {v.shape} for {heads} heads, live {np.shape(live)}: {exc}") from exc

    def vjp(g, qh=qh, kh=kh, vh=vh, probs=probs, scale=scale):
        g = split(pad(g))
        gp = np.matmul(g, vh.swapaxes(-1, -2))
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * scale
        return (unpad(merge(np.matmul(gs, kh))), merge(np.matmul(gs.swapaxes(-1, -2), qh)),
                merge(np.matmul(probs.swapaxes(-1, -2), g)))

    return _node(data, (q, k, v), vjp)


def additive_attention(q: Tensor, keys: Tensor, v: Tensor, memory: Tensor,
                       live: np.ndarray) -> Tensor:
    """softmax(tanh(keys + q) v) memory, the additive attention (Bahdanau et
    al. 2015) of queries q [B, Tq, A] over keys [B, S, A] and memory [B, S, C]
    where the boolean, undifferentiated ``live`` [B, S] is True, scored by
    v [A] -> [B, Tq, C].  One node with a closed-form backward."""
    if (q.ndim != 3 or keys.ndim != 3 or q.shape[::2] != keys.shape[::2]
            or v.shape != keys.shape[2:] or memory.ndim != 3
            or not np.shape(live) == keys.shape[:2] == memory.shape[:2]):
        raise ShapeError(f"additive_attention: incompatible shapes {q.shape}, {keys.shape}, "
                         f"{v.shape}, {memory.shape} and live {np.shape(live)}")
    e = np.tanh(keys.data[:, None] + q.data[:, :, None])  # [B, Tq, S, A]
    vcol = v.data.reshape(-1, 1)
    scores = np.where(live[:, None], np.matmul(e, vcol)[..., 0], _MASKED)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = w / w.sum(axis=-1, keepdims=True)
    data = np.matmul(w, memory.data)

    def vjp(g, e=e, vcol=vcol, w=w, mdata=memory.data):
        gw = np.matmul(g, mdata.swapaxes(-1, -2))
        gs = (w * (gw - (gw * w).sum(axis=-1, keepdims=True)))[..., None]
        gpre = np.matmul(gs, vcol.T) * (1.0 - e * e)
        return (gpre.sum(axis=2), gpre.sum(axis=1),
                np.matmul(e.swapaxes(-1, -2), gs).sum(axis=(0, 1))[:, 0],
                np.matmul(w.swapaxes(-1, -2), g))

    return _node(data, (q, keys, v, memory), vjp)


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not train or p <= 0.0:
        return x
    if rng is None:
        raise ContractError("dropout: rng is required in training mode")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return _node(x.data * mask, (x,), lambda g, mask=mask: (g * mask,))


# ---------------------------------------------------------------------------
# recurrent layer


def lstm(xs: Tensor, state: Tensor, w: Tensor, b: Tensor,
         live: np.ndarray | None = None, reverse: bool = False) -> Tensor:
    """An LSTM over xs [B, T, Dx] from the state concat([h, c]) [B, 1, 2H],
    last step first if ``reverse``: each step's state so laid out -> [B, T, 2H],
    so one step's output is the next call's start state.

    ``w`` is [4H, Dx+H], gates ordered (input, forget, cell, output).  Where
    the boolean ``live`` [B, T] is False, a row keeps its state and passes the
    gradient straight back.  One node: one ``[x, h]`` GEMM per step over
    time-major scratch; the backward forms the input and weight gradients
    as one GEMM each over all steps (Appleyard et al. 2016).
    """
    hsize = state.shape[-1] // 2
    if (xs.ndim != 3 or not xs.shape[1] or state.shape != (xs.shape[0], 1, 2 * hsize)
            or w.shape != (4 * hsize, xs.shape[2] + hsize)
            or live is not None and np.shape(live) != xs.shape[:2]):
        raise ShapeError(f"lstm: incompatible shapes xs {xs.shape}, state {state.shape}, "
                         f"w {w.shape} and live {np.shape(live)}")
    batch, steps, dx = xs.shape
    flip = slice(None, None, -1 if reverse else 1)  # positions in step order
    dead = None if live is None or np.all(live) else ~np.asarray(live, dtype=bool).T[flip, :, None]
    # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5 on the input, forget and output gates
    half, shift = np.repeat([[0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 0.0, 0.5]], hsize, axis=1)
    xh = np.empty((steps, batch, dx + hsize))
    xh[..., :dx] = xs.data.transpose(1, 0, 2)[flip]
    gates, hc, tanh_c = (np.empty((steps, batch, n * hsize)) for n in (4, 2, 1))
    hp, cp = state.data[:, 0, :hsize], state.data[:, 0, hsize:]  # the state step s starts from
    for s in range(steps):
        xh[s, :, dx:] = hp
        z = np.add(np.matmul(xh[s], w.data.T, out=gates[s]), b.data, out=gates[s])
        np.tanh(np.multiply(z, half, out=z), out=z)
        np.add(np.multiply(z, half, out=z), shift, out=z)
        gi, gf, gg, go = z.reshape(batch, 4, hsize).swapaxes(0, 1)
        c2 = np.multiply(gf, cp, out=hc[s, :, hsize:])
        c2 += gi * gg
        h2 = np.multiply(go, np.tanh(c2, out=tanh_c[s]), out=hc[s, :, :hsize])
        if dead is not None:
            np.copyto(h2, hp, where=dead[s])
            np.copyto(c2, cp, where=dead[s])
        hp, cp = h2, c2
    data = np.ascontiguousarray(hc[flip].transpose(1, 0, 2))

    def vjp(g, xh=xh, gates=gates, hc=hc, tanh_c=tanh_c, dead=dead, s0=state.data, wdata=w.data):
        g = g.transpose(1, 0, 2)[flip]
        dz = np.empty_like(gates)
        ghc = 0.0  # the gradient of the state step s hands on
        for s in reversed(range(steps)):
            ghc = g[s] + ghc
            gh2, gc2, tt = ghc[:, :hsize], ghc[:, hsize:], tanh_c[s]
            gi, gf, gg, go = gates[s].reshape(batch, 4, hsize).swapaxes(0, 1)
            gcell = gc2 + gh2 * go * (1.0 - tt * tt)
            cp = hc[s - 1, :, hsize:] if s else s0[:, 0, hsize:]
            dz[s] = np.concatenate([gcell * gg * gi * (1.0 - gi),
                                    gcell * cp * gf * (1.0 - gf),
                                    gcell * gi * (1.0 - gg * gg),
                                    gh2 * tt * go * (1.0 - go)], axis=1)
            if dead is not None:
                np.copyto(dz[s], 0.0, where=dead[s])
            carry = np.concatenate([dz[s] @ wdata[:, dx:], gcell * gf], axis=1)
            ghc = carry if dead is None else np.where(dead[s], ghc, carry)
        # the input and weight gradients need no recurrence: one GEMM each
        flat = dz.reshape(steps * batch, -1)
        gx = (flat @ wdata[:, :dx]).reshape(steps, batch, dx)[flip].transpose(1, 0, 2)
        return gx, ghc[:, None], flat.T @ xh.reshape(steps * batch, -1), flat.sum(axis=0)

    return _node(data, (xs, state, w, b), vjp)


# ---------------------------------------------------------------------------
# loss head


def target_logprobs(logits: Tensor, targets, live) -> Tensor:
    """log softmax(logits) read at each position's target: logits [..., V],
    integer targets and the boolean mask ``live`` [...] -> [...].

    The loss head, one node: ``shifted - log(sum(exp(shifted)))`` with
    ``shifted = logits - max(logits)``, and the closed-form backward
    ``g * (onehot - softmax)``.  Where ``live`` is 0 the output is 0 and no
    gradient flows, as padded positions need.
    """
    idx = np.asarray(targets, dtype=np.intp)[..., None]
    keep = np.asarray(live, dtype=bool)
    if logits.ndim < 1 or not logits.shape[:-1] == idx.shape[:-1] == keep.shape:
        raise ShapeError(f"target_logprobs: need logits [..., V] and targets and live [...], "
                         f"got {logits.shape}, {idx.shape[:-1]} and {keep.shape}")
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    data = np.where(keep, np.take_along_axis(logp, idx, axis=-1)[..., 0], 0.0)

    def vjp(g, logp=logp, idx=idx, keep=keep):
        g = np.where(keep, g, 0.0)[..., None]
        out = np.exp(logp)
        out *= -g
        np.put_along_axis(out, idx, np.take_along_axis(out, idx, axis=-1) + g, axis=-1)
        return (out,)

    return _node(data, (logits,), vjp)
