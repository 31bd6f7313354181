"""Elementwise tape ops that serve the tests as references for the fused ops.

The package's tape records only the ops the models differentiate:
``dense_chain``, ``LstmCell.run``, ``concat``, ``clip_min``, the loss ops
and ``/``, plus the ``affine``/``sigmoid``/``tanh``/``+``/``*`` that
``LstmCell.step`` composes. The tests check those fused ops against
chains of the plain ops below, and reduce outputs to a scalar loss with
``sum``/``mean``. Each is one op on ``_record_op``, the same primitive
the package's ops use. ``abs`` and ``sum`` shadow the builtins, so import
the module (``import reference_ops as ops``), not the names.
"""

import numpy as np

from forecast_uq.nn.tensor import Tensor, _record_op, _unbroadcast, as_tensor


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    return _record_op(
        (a, b),
        a.data - b.data,
        lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)),
    )


def relu(x: Tensor) -> Tensor:
    d = x.data
    return _record_op((x,), np.maximum(d, 0.0), lambda g: (g * (d > 0.0),))


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    d = x.data
    neg = d < 0.0
    out = np.where(neg, alpha * np.expm1(d), d)
    # d/dx alpha*(e^x - 1) = alpha*e^x = out + alpha on the negative branch
    return _record_op((x,), out, lambda g: (g * np.where(neg, out + alpha, 1.0),))


def log(x: Tensor) -> Tensor:
    d = x.data
    return _record_op((x,), np.log(d), lambda g: (g / d,))


def abs(x: Tensor) -> Tensor:
    d = x.data
    return _record_op((x,), np.abs(d), lambda g: (g * np.sign(d),))


def sum(x: Tensor) -> Tensor:
    shape = x.data.shape
    return _record_op((x,), x.data.sum(), lambda g: (np.full(shape, g),))


def mean(x: Tensor) -> Tensor:
    shape, n = x.data.shape, x.data.size
    return _record_op((x,), x.data.mean(), lambda g: (np.full(shape, g / n),))


def item(x: Tensor) -> float:
    """The value of a one-element tensor as a Python float."""
    return x.data.item()
