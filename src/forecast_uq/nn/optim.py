"""Adam optimizer with bias correction over one flat buffer.

At construction the optimizer copies every parameter into one flat
float64 buffer and rebinds each ``Tensor.data`` to a view of it, so
in-place writes to a parameter (checkpoint loads, best-state restores)
land in the buffer. A parameter therefore belongs to the last optimizer
built over it. The first/second moment estimates are flat buffers of the
same size, and each step is one elementwise update over all of them.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TrainingError
from .tensor import Tensor


class Adam:
    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.flat = np.concatenate([p.data.ravel() for p in self.params])
        offset = 0
        for p in self.params:
            p.data = self.flat[offset : offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """One Adam update from a {parameter: gradient} mapping.

        Raises TrainingError naming the first parameter with a non-finite
        gradient, before any parameter or moment changes.
        """
        g = np.concatenate([grads[p].ravel() for p in self.params])
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(grads[p]).all())
            raise TrainingError(f"non-finite gradient for parameter {bad.name or id(bad)}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m = self.m = b1 * self.m + (1.0 - b1) * g
        v = self.v = b2 * self.v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**self.t)
        v_hat = v / (1.0 - b2**self.t)
        self.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
