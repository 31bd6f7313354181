"""Dense layers and an LSTM cell built on the autodiff tensors.

A dense layer computes ``activation(x @ weights.T + bias)``. The LSTM cell
follows the classic gate formulation: forget/input/output gates are
sigmoids of an affine map of the concatenated ``[h_prev, x_t]``, the cell
state mixes the previous state with a tanh candidate, and the hidden
state is the output gate times tanh of the cell state. No peepholes, no
layer normalization.

``DenseLayer.forward``, ``dense_chain`` and ``LstmCell.step`` take
``(batch, dim)`` rows only (one sample is a one-row batch);
``LstmCell.run`` takes a ``(steps, batch, input_dim)`` sequence. Each
raises ``ShapeError`` on any other shape; all math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..exceptions import ShapeError
from .tensor import Tensor, _record_op, affine, as_tensor, concat, will_record

ACTIVATIONS = ("relu", "identity")


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
        return dense_chain(x, (self,), (None,))

    def parameters(self) -> dict[str, Tensor]:
        return {"weights": self.weights, "bias": self.bias}


def dense_chain(x, layers, masks) -> Tensor:
    """A chain of dense layers as one tape op: ``h = act((h * mask) @ w.T + b)`` per layer.

    ``masks`` holds one array or ``None`` per layer; a mask multiplies the
    layer's input (inverted dropout). The forward does the float operations
    of a chain of ``affine``, activation and dropout-multiply tape ops, so
    values and gradients equal that chain's bit for bit. Only a call that goes on a tape keeps
    each layer's input and output; its vector-Jacobian product replays the
    chain's VJPs in reverse and skips the input gradient when ``x`` is
    untracked.
    """
    x, layers, masks = as_tensor(x), tuple(layers), tuple(masks)
    if x.data.ndim != 2 or x.shape[1] != layers[0].in_dim:
        raise ShapeError(f"dense layer expects (batch, {layers[0].in_dim}) rows, got {x.shape}")
    inputs = (x, *(p for layer in layers for p in (layer.weights, layer.bias)))
    weights = [layer.weights.data for layer in layers]
    record = will_record(inputs)
    need_dx = record and will_record((x,))
    h = x.data
    kept = []  # (layer input, layer output) per layer, on a tape only
    for layer, w, m in zip(layers, weights, masks):
        if m is not None:
            h = h * m
        a = h @ w.T
        a += layer.bias.data
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        if record:
            kept.append((h, a))
        h = a

    def vjp(g):
        grads = []
        for i in reversed(range(len(layers))):
            layer, m, (h_in, out) = layers[i], masks[i], kept[i]
            if layer.activation == "relu":
                g = g * (out > 0.0)  # out > 0 exactly where the pre-activation is
            grads += [g.sum(axis=0), (h_in.T @ g).T]
            if i == 0 and not need_dx:
                g = None
                break
            g = g @ weights[i]
            if m is not None:
                g = g * m
        return (g, *reversed(grads))

    return _record_op(inputs, h, vjp)


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

    def run(self, x, return_sequence: bool = False) -> Tensor:
        """Run over a (steps, batch, input_dim) sequence from zero state, as one tape op.

        Returns the final (batch, hidden_dim) hidden state, or the
        (steps, batch, hidden_dim) sequence of hidden states when
        ``return_sequence`` is set. The forward does ``step``'s float
        operations gate by gate; the gradients equal a ``step`` chain's up
        to float summation order.

        The gates are stacked as one (4 * hidden, hidden + input) weight in
        the order f, i, o | c. Each step is one matmul of ``[h, x_t]``
        against it into gate-major (4, batch, hidden) blocks, one sigmoid
        over the three sigmoid gates and one tanh over the candidate, all
        in preallocated buffers. Only a call that goes on a tape keeps the
        per-step gates and cell states; its vector-Jacobian product rebuilds
        ``[h, x_t]`` and ``tanh(c_t)`` from them, runs backpropagation through
        time with one GEMM per step and one weight-gradient GEMM over all steps.
        """
        x = as_tensor(x)
        hid, n_in = self.hidden_dim, self.input_dim
        if x.data.ndim != 3 or 0 in x.shape[:2] or x.shape[2] != n_in:
            raise ShapeError(
                f"sequence must be (steps, batch, {n_in}) with steps, batch >= 1, got {x.shape}"
            )
        n_steps, n_rows, _ = x.shape
        params = (self.w_f, self.w_i, self.w_o, self.w_c, self.b_f, self.b_i, self.b_o, self.b_c)
        inputs = (x, *params)
        record = will_record(inputs)
        w = np.concatenate([p.data for p in params[:4]])
        w_gates = w.reshape(4, hid, hid + n_in).transpose(0, 2, 1)
        b_gates = np.concatenate([p.data for p in params[4:]]).reshape(4, 1, hid)

        # gates and cells get one slot per step when recording, else one slot
        # reused by every step; cells[0] is the zero initial state
        kept = n_steps if record else 1
        gates = np.empty((kept, 4, n_rows, hid))
        cells = np.zeros((n_steps + 1 if record else 1, n_rows, hid))
        hx = np.empty((n_rows, hid + n_in))
        tanh_c = np.empty((n_rows, hid))
        seq = np.empty((n_steps, n_rows, hid)) if return_sequence else None
        h = np.zeros((n_rows, hid))
        scratch = np.empty((n_rows, hid))
        for t in range(n_steps):
            a = gates[t if record else 0]
            c_prev, c = (cells[t], cells[t + 1]) if record else (cells[0], cells[0])
            hx[:, :hid] = h
            hx[:, hid:] = x.data[t]
            np.matmul(hx, w_gates, out=a)
            a += b_gates
            # 1 / (1 + exp(-s)) in place: Tensor.sigmoid's bits without three
            # gate-sized temporaries, which cost page faults at inference batch sizes
            s = a[:3]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            np.tanh(a[3], out=a[3])
            f, i, o, g = a
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, g, out=scratch)
            np.tanh(c, out=tanh_c)
            h = np.multiply(o, tanh_c, out=seq[t] if return_sequence else h)

        def vjp(grad):
            d_gates = np.empty((n_steps, n_rows, 4 * hid))
            d_x = np.empty(x.shape)
            # [h_{t-1}, x_t] per step; the loop fills h_{t-1} = o * tanh(c) as the forward did
            hx_all = np.empty((n_steps, n_rows, hid + n_in))
            hx_all[0, :, :hid] = 0.0
            hx_all[:, :, hid:] = x.data
            dh = np.zeros((n_rows, hid)) if return_sequence else grad
            dc = np.zeros((n_rows, hid))
            for t in reversed(range(n_steps)):
                if return_sequence:
                    dh = dh + grad[t]
                f, i, o, g = gates[t]
                tanh_c = np.tanh(cells[t + 1])
                if t + 1 < n_steps:
                    np.multiply(o, tanh_c, out=hx_all[t + 1, :, :hid])
                da = d_gates[t].reshape(n_rows, 4, hid)
                dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
                da[:, 0] = dc * cells[t] * f * (1.0 - f)
                da[:, 1] = dc * g * i * (1.0 - i)
                da[:, 2] = dh * tanh_c * o * (1.0 - o)
                da[:, 3] = dc * i * (1.0 - g * g)
                dc = dc * f
                dhx = d_gates[t] @ w
                dh = dhx[:, :hid]
                d_x[t] = dhx[:, hid:]
            flat = d_gates.reshape(n_steps * n_rows, 4 * hid)
            dw = flat.T @ hx_all.reshape(n_steps * n_rows, hid + n_in)
            db = flat.sum(axis=0)
            return (d_x, *np.split(dw, 4), *np.split(db, 4))

        return _record_op(inputs, seq if return_sequence else h, vjp)

    def parameters(self) -> dict[str, Tensor]:
        return {field.name: getattr(self, field.name) for field in fields(self)}
