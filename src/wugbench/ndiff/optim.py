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

    ``step`` walks each parameter's flat view in blocks of ``BLOCK``
    elements through two preallocated scratch rows, so one block's working
    set stays in cache and a step allocates nothing per parameter. Each
    block runs the whole-array update's elementwise operations in the same
    order, and every one of them is correctly rounded per element, so the
    result is bit-identical to updating each array at once. Parameter
    arrays must be C-contiguous, which ``parameter`` and ``restore_into``
    guarantee.

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
        self._scratch = np.empty((2, self.BLOCK))

    def step(self) -> None:
        """Apply one update from the gradients currently stored on params."""
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
                xb, gb, mb, vb = x[blk], g[blk], m[blk], v[blk]
                t, u = self._scratch[:, :xb.size]
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


def global_grad_norm(params: Mapping[str, Tensor]) -> float:
    """L2 norm of all gradients concatenated."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)


def clip_global_norm(params: Mapping[str, Tensor], max_norm: float) -> float:
    """Rescale gradients in place so their joint L2 norm is <= max_norm.

    Returns the pre-clip norm so callers can log or NaN-check it.
    """
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
