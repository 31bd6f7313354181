"""Laplace-based uncertainty losses and the positivity transform.

The training objective for scale-aware models is the negative log
likelihood of a Laplace distribution, per sample ``log(b) + |y - mu| / b``
(the constant log 2 of the density is dropped; it does not affect the
optimum). The scale ``b`` must stay positive, which is enforced by
``elu_plus_one`` followed by a small floor.

Every function here accepts either plain numpy arrays (returning floats/
arrays) or autodiff tensors (returning tensors), and computes the same
bits on both by one formula. On tensors each function is one tape op
whose forward and vector-Jacobian product do the float operations of the
equivalent chain of elementwise tape ops, so its values and gradients
equal that chain's bit for bit. All are pure functions and safe for
concurrent use.
"""

from __future__ import annotations

import numpy as np

from .nn.tensor import Tensor, _record_op, _unbroadcast, as_tensor

DEFAULT_SCALE_FLOOR = 1e-3


def _is_tensor(*values) -> bool:
    return any(isinstance(v, Tensor) for v in values)


def _check_shapes(name: str, targets, preds, scales=None) -> None:
    """Targets and predictions of one shape; a scale is one shared value or that shape too."""
    if targets.shape != preds.shape:
        raise ValueError(
            f"{name}: targets {targets.shape} and predictions {preds.shape} differ in shape"
        )
    if scales is not None and scales.size != 1 and scales.shape != targets.shape:
        raise ValueError(
            f"{name}: scales {scales.shape} are neither one value nor the targets' shape "
            f"{targets.shape}"
        )


def elu_plus_one(x):
    """Map an unconstrained value to a positive scale: e^x for x < 0, x + 1 for x >= 0.

    ELU plus one, continuous and monotone increasing. e^x is taken directly
    rather than as (e^x - 1) + 1, which cancels to exactly 0.0 once e^x drops
    below float64 epsilon; e^x stays positive down to x = -745.
    """
    d = as_tensor(x).data
    neg = d < 0.0
    out = np.where(neg, np.exp(np.minimum(d, 0.0)), d + 1.0)
    if not _is_tensor(x):
        return float(out) if out.ndim == 0 else out
    return _record_op((x,), out, lambda g: (g * np.where(neg, out, 1.0),))


def laplace_nll(targets, mus, scales):
    """Summed Laplace negative log likelihood, sum_i [log b_i + |y_i - mu_i| / b_i].

    ``targets`` and ``mus`` must have one shape; ``scales`` is one shared
    value or per-sample in that shape. Raises ``ValueError`` on any other
    shape, on no samples and on scales that are not strictly positive
    (NaN included).
    """
    inputs = tuple(map(as_tensor, (targets, mus, scales)))
    y, mu, b = (t.data for t in inputs)
    _check_shapes("laplace_nll", y, mu, b)
    if y.size == 0:
        raise ValueError("laplace_nll needs at least one sample")
    if not (b > 0.0).all():
        raise ValueError("scales must be strictly positive")
    diff = y - mu
    ratio = np.abs(diff) / b
    total = (np.log(b) + ratio).sum()
    if not _is_tensor(targets, mus, scales):
        return float(total)

    def vjp(g):
        # the VJPs of (log(b) + |y - mu| / b).sum() in tape order
        grid = np.full(ratio.shape, g)
        g_diff = _unbroadcast(grid / b, diff.shape) * np.sign(diff)
        # b's gradient adds the division term first, then the log term
        g_b = _unbroadcast(-grid * ratio / b, b.shape) + _unbroadcast(grid, b.shape) / b
        return g_diff, -g_diff, g_b

    return _record_op(inputs, total, vjp)


def laplace_likelihood(y, mu, b):
    """Laplace density (1 / 2b) * exp(-|y - mu| / b); integrates to 1 over y."""
    b = np.asarray(b, dtype=np.float64)
    if not (b > 0.0).all():
        raise ValueError("scale must be strictly positive")
    out = np.exp(-np.abs(np.asarray(y, dtype=np.float64) - mu) / b) / (2.0 * b)
    return float(out) if out.ndim == 0 else out


def mae_loss(targets, preds):
    """Mean absolute error (1/N) * sum |y_i - yhat_i| over targets and predictions of one shape."""
    inputs = (as_tensor(targets), as_tensor(preds))
    y, y_hat = (t.data for t in inputs)
    _check_shapes("mae_loss", y, y_hat)
    if y.size == 0:
        raise ValueError("mae_loss needs at least one sample")
    diff = y - y_hat
    mean = np.abs(diff).mean()
    if not _is_tensor(targets, preds):
        return float(mean)

    def vjp(g):
        # the VJPs of |y - y_hat|.mean() in tape order
        g_diff = g / diff.size * np.sign(diff)
        return g_diff, -g_diff

    return _record_op(inputs, mean, vjp)
