"""Adam optimizer and gradient clipping over named parameter collections."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .tensor import ContractError, Tensor


class Adam:
    """Adam with bias-corrected moment estimates.

    Parameters are a name -> Tensor mapping; moments are keyed by name so
    the update order never depends on dict iteration quirks.

    ``step(factor)`` walks each parameter's flat view in blocks of
    ``BLOCK`` elements through three preallocated scratch rows, so one
    block's working set stays in cache and a step allocates nothing per
    parameter. Each block first scales its gradient by ``factor`` into a
    scratch row (the batch mean and the clip of ``clip_global_norm``, so
    no pass over the gradients precedes the step), then runs the
    whole-array update's elementwise operations in the same order. Every
    one of them is correctly rounded per element, so the result is
    bit-identical to updating each array at once from ``grad * factor``.
    Parameter arrays must be C-contiguous, which ``parameter`` and
    ``restore_into`` guarantee.

    ``zero_grad`` zeroes each existing gradient in place, so from the
    second step on ``backward`` adds into the same arrays. A gradient a
    caller assigns belongs to the optimizer from then on. A parameter the
    loss does not reach keeps a zero gradient, and ``step`` still decays
    its moments (PyTorch's ``set_to_none=False``).
    """

    BLOCK = 1 << 14  # 128 KB float64 rows: a block's x, g, m, v and scratch fit in L2

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._scratch = np.empty((3, self.BLOCK))

    def step(self, factor: float = 1.0) -> None:
        """Apply one update from the gradients currently stored on params,
        each multiplied by ``factor``; the gradients themselves stay as
        they are."""
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            if not p.data.flags.c_contiguous:
                raise ContractError(f"Adam: parameter '{name}' is not C-contiguous")
            x = p.data.reshape(-1)
            g = p.grad.reshape(-1)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            for lo in range(0, x.size, self.BLOCK):
                blk = slice(lo, lo + self.BLOCK)
                xb, mb, vb = x[blk], m[blk], v[blk]
                t, u, gb = self._scratch[:, :xb.size]
                np.multiply(g[blk], factor, out=gb)
                mb *= b1                        # m = b1*m + (1-b1)*g
                np.multiply(gb, 1.0 - b1, out=t)
                mb += t
                vb *= b2                        # v = b2*v + (1-b2)*g*g
                np.multiply(gb, 1.0 - b2, out=t)
                t *= gb
                vb += t
                np.divide(mb, bc1, out=t)       # x -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
                t *= lr
                np.divide(vb, bc2, out=u)
                np.sqrt(u, out=u)
                u += eps
                t /= u
                xb -= t

    def zero_grad(self) -> None:
        """Zero every existing gradient in place."""
        for p in self.params.values():
            if p.grad is not None:
                p.grad.fill(0.0)


def clip_global_norm(params: Mapping[str, Tensor], max_norm: float,
                     batch_size: int) -> tuple[float, float]:
    """(norm, factor): the L2 norm of the mean gradient, which is the
    stored gradient sum over ``batch_size``, and the factor ``Adam.step``
    takes, 1 / batch_size times max_norm / norm when the norm is over the
    cap.

    Reads the gradients and writes none; callers log or NaN-check the norm.
    Each gradient's squares are summed as a dot product of its flat view,
    so no temporary the size of a gradient is made.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            flat = p.grad.reshape(-1)
            total += float(flat @ flat)
    norm = math.sqrt(total) / batch_size
    factor = 1.0 / batch_size
    if norm > max_norm:
        factor *= max_norm / norm
    return norm, factor
