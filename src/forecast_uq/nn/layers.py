"""Dense layers and an LSTM cell built on the autodiff tensors.

A dense layer computes ``activation(x @ weights.T + bias)``. The LSTM cell
follows the classic gate formulation: forget/input/output gates are
sigmoids of an affine map of the concatenated ``[h_prev, x_t]``, the cell
state mixes the previous state with a tanh candidate, and the hidden
state is the output gate times tanh of the cell state. No peepholes, no
layer normalization.

Both layers take ``(batch, dim)`` rows only (one sample is a one-row
batch) and raise ``ShapeError`` on any other shape; all math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ShapeError
from .tensor import Tensor, affine, as_tensor, concat

ACTIVATIONS = ("relu", "tanh", "identity")


def _apply_activation(t: Tensor, activation: str) -> Tensor:
    if activation == "identity":
        return t
    if activation == "relu":
        return t.relu()
    if activation == "tanh":
        return t.tanh()
    raise ValueError(f"unknown activation {activation!r}")


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


@dataclass
class DenseLayer:
    """Weights (out_dim x in_dim), bias (out_dim) and an activation name."""

    weights: Tensor
    bias: Tensor
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @classmethod
    def create(
        cls,
        in_dim: int,
        out_dim: int,
        activation: str,
        rng: np.random.Generator,
    ) -> "DenseLayer":
        """Glorot-uniform weights, zero bias."""
        return cls(
            weights=Tensor(glorot_uniform(rng, out_dim, in_dim), requires_grad=True),
            bias=Tensor(np.zeros(out_dim), requires_grad=True),
            activation=activation,
        )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    def forward(self, x) -> Tensor:
        """activation(x @ weights.T + bias) for (batch, in_dim) rows."""
        x = as_tensor(x)
        if x.shape[1:] != (self.in_dim,):
            raise ShapeError(f"dense layer expects (batch, {self.in_dim}) rows, got {x.shape}")
        return _apply_activation(affine(x, self.weights, self.bias), self.activation)

    def parameters(self) -> dict[str, Tensor]:
        return {"weights": self.weights, "bias": self.bias}


@dataclass
class LstmCell:
    """Gate weights (hidden x (hidden+input)) and biases for one LSTM cell."""

    w_f: Tensor
    w_i: Tensor
    w_c: Tensor
    w_o: Tensor
    b_f: Tensor
    b_i: Tensor
    b_c: Tensor
    b_o: Tensor

    @classmethod
    def create(
        cls, input_dim: int, hidden_dim: int, rng: np.random.Generator
    ) -> "LstmCell":
        """Glorot gates, zero biases except forget bias at 1.0."""

        def w() -> Tensor:
            return Tensor(
                glorot_uniform(rng, hidden_dim, hidden_dim + input_dim),
                requires_grad=True,
            )

        def b(fill: float = 0.0) -> Tensor:
            return Tensor(np.full(hidden_dim, fill), requires_grad=True)

        return cls(
            w_f=w(), w_i=w(), w_c=w(), w_o=w(),
            b_f=b(1.0), b_i=b(), b_c=b(), b_o=b(),
        )

    @property
    def hidden_dim(self) -> int:
        return self.w_f.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_f.shape[1] - self.w_f.shape[0]

    def step(self, h_prev, c_prev, x_t) -> tuple[Tensor, Tensor]:
        """One recurrence step over (batch, dim) rows; returns (h_t, c_t).

        h_prev/c_prev must be (batch, hidden_dim) and x_t (batch, input_dim).
        """
        h_prev, c_prev, x_t = as_tensor(h_prev), as_tensor(c_prev), as_tensor(x_t)
        hidden = (self.hidden_dim,)
        if h_prev.shape[1:] != hidden or c_prev.shape[1:] != hidden:
            raise ShapeError(
                f"state must be (batch, {self.hidden_dim}) rows, got h {h_prev.shape}, "
                f"c {c_prev.shape}"
            )
        if x_t.shape[1:] != (self.input_dim,):
            raise ShapeError(f"input must be (batch, {self.input_dim}) rows, got {x_t.shape}")

        hx = concat([h_prev, x_t], axis=1)
        f_t = affine(hx, self.w_f, self.b_f).sigmoid()
        i_t = affine(hx, self.w_i, self.b_i).sigmoid()
        cand = affine(hx, self.w_c, self.b_c).tanh()
        c_t = f_t * c_prev + i_t * cand
        o_t = affine(hx, self.w_o, self.b_o).sigmoid()
        h_t = o_t * c_t.tanh()
        return h_t, c_t

    def run(self, steps, return_sequence: bool = False):
        """Run over a sequence of per-step inputs, starting from zero state.

        ``steps`` is a list of (batch, input_dim) arrays or tensors, one per
        time step. Returns the final hidden state, or every hidden state
        when ``return_sequence`` is set.
        """
        first = as_tensor(steps[0])
        n = first.shape[0]
        h = Tensor(np.zeros((n, self.hidden_dim)))
        c = Tensor(np.zeros((n, self.hidden_dim)))
        outputs = []
        for x_t in steps:
            h, c = self.step(h, c, x_t)
            if return_sequence:
                outputs.append(h)
        return outputs if return_sequence else h

    def parameters(self) -> dict[str, Tensor]:
        return {
            "w_f": self.w_f, "w_i": self.w_i, "w_c": self.w_c, "w_o": self.w_o,
            "b_f": self.b_f, "b_i": self.b_i, "b_c": self.b_c, "b_o": self.b_o,
        }
