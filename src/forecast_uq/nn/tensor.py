"""Minimal reverse-mode autodiff over float64 numpy arrays.

A ``Tensor`` wraps an ndarray. While a ``GradientTape`` is active, every
operation whose result depends on a parameter (a tensor created with
``requires_grad=True``) is recorded on the tape together with its inputs
and a vector-Jacobian product. ``GradientTape.gradients`` replays the
records in reverse to accumulate d(loss)/d(parameter).

Outside a tape, operations run as plain numpy (fast inference path).
A thread records onto at most one tape at a time, and opening a second
tape on it raises ``RuntimeError``. The active tape is thread-local:
concurrent inference and parallel training runs in separate threads do
not interfere.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "GradientTape", "affine", "as_tensor", "concat", "will_record"]

_state = threading.local()  # .tape: this thread's recording tape, if any


class Tensor:
    """A float64 array plus enough identity for gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # arithmetic: what LstmCell.step composes, and the division of a summed loss

    def __add__(self, other):
        other = as_tensor(other)
        sa, sb = self.shape, other.shape
        return _record_op(
            (self, other),
            self.data + other.data,
            lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
        )

    def __mul__(self, other):
        other = as_tensor(other)
        da, db = self.data, other.data
        return _record_op(
            (self, other),
            da * db,
            lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)),
        )

    def __truediv__(self, other):
        other = as_tensor(other)
        da, db = self.data, other.data
        out = da / db
        return _record_op(
            (self, other),
            out,
            lambda g: (_unbroadcast(g / db, da.shape), _unbroadcast(-g * out / db, db.shape)),
        )

    # elementwise functions ------------------------------------------------

    def sigmoid(self) -> "Tensor":
        out = _sigmoid(self.data)
        return _record_op((self,), out, lambda g: (g * out * (1.0 - out),))

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return _record_op((self,), out, lambda g: (g * (1.0 - out * out),))

    def clip_min(self, floor: float) -> "Tensor":
        x = self.data
        return _record_op((self,), np.maximum(x, floor), lambda g: (g * (x > floor),))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), written into ``out`` when it is given: the package's one sigmoid."""
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):  # inf below x ~ -709, where 1 / (1 + inf) = 0.0 is the exact limit
        np.exp(out, out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


def as_tensor(value) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def will_record(inputs: Iterable[Tensor]) -> bool:
    """Whether an op on ``inputs`` goes on this thread's tape: one is open and tracks an input."""
    tape = getattr(_state, "tape", None)
    return tape is not None and any(tape._tracks(t) for t in inputs)


def _record_op(
    inputs: tuple[Tensor, ...],
    out_data: np.ndarray,
    vjp: Callable[[np.ndarray], tuple],
) -> Tensor:
    out = Tensor(out_data)
    if will_record(inputs):
        _state.tape._record(inputs, out, vjp)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` for rows ``x`` (n, in), weights (out, in), bias (out,), as one op."""
    dx, dw = x.data, w.data
    if dx.ndim != 2 or dw.ndim != 2:
        raise ValueError(f"affine expects 2-D operands, got {dx.shape} and {dw.shape}")
    return _record_op(
        (x, w, b),
        dx @ dw.T + b.data,
        lambda g: (g @ dw, (dx.T @ g).T, g.sum(axis=0)),
    )


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``; gradient splits back apart."""
    tensors = tuple(as_tensor(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record_op(tensors, np.concatenate([t.data for t in tensors], axis=axis), vjp)


class GradientTape:
    """Records forward operations so a scalar loss can be backpropagated.

    Replaying the records in reverse order visits nodes in a valid
    topological order, including through unrolled recurrent steps, so
    backpropagation through time needs no special handling.
    """

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []
        self._tracked: set[int] = set()

    def __enter__(self) -> "GradientTape":
        if getattr(_state, "tape", None) is not None:
            raise RuntimeError("a gradient tape is already recording on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _state.tape = None

    def _tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def _record(self, inputs: tuple[Tensor, ...], out: Tensor, vjp: Callable) -> None:
        self._tracked.add(id(out))
        self._records.append((inputs, out, vjp))

    def gradients(
        self, loss: Tensor, params: Iterable[Tensor]
    ) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(p) for every tensor in ``params``.

        Parameters the loss does not depend on get zero gradients.
        """
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        params = list(params)
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for inputs, out, vjp in reversed(self._records):
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
            for inp, g in zip(inputs, vjp(g_out)):
                if g is None or not self._tracks(inp):
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
        return {p: grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in params}
