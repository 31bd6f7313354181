"""Laplace-based uncertainty losses and the positivity transform.

The training objective for scale-aware models is the negative log
likelihood of a Laplace distribution, per sample ``log(b) + |y - mu| / b``
(the constant log 2 of the density is dropped; it does not affect the
optimum). The scale ``b`` must stay positive, which is enforced by
``elu_plus_one`` followed by a small floor.

Every function here accepts either plain numpy arrays (returning floats/
arrays) or autodiff tensors (returning tensors), so the exact same
formula drives both evaluation and gradient-based training. All are pure
functions and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

from .nn.tensor import Tensor

DEFAULT_ALPHA = 1.0
DEFAULT_SCALE_FLOOR = 1e-3


def _is_tensor(*values) -> bool:
    return any(isinstance(v, Tensor) for v in values)


def elu_plus_one(x, alpha: float = DEFAULT_ALPHA):
    """Map an unconstrained value to a positive scale.

    alpha*(e^x - 1) + 1 for x < 0, x + 1 for x >= 0. Continuous and
    monotone increasing; with alpha <= 1 the output stays positive.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if isinstance(x, Tensor):
        return x.elu(alpha) + 1.0
    x = np.asarray(x, dtype=np.float64)
    # alpha*(e^x - 1) + 1 rewritten as alpha*e^x + (1 - alpha): the naive
    # form cancels to exactly 0.0 once e^x drops below float64 epsilon,
    # while this form keeps the result strictly positive for alpha <= 1.
    out = np.where(x < 0.0, alpha * np.exp(np.minimum(x, 0.0)) + (1.0 - alpha), x + 1.0)
    return float(out) if out.ndim == 0 else out


def laplace_nll(targets, mus, scales):
    """Summed Laplace negative log likelihood, sum_i [log b_i + |y_i - mu_i| / b_i].

    ``scales`` may be a scalar (shared scale) or per-sample. Raises on
    non-positive scales.
    """
    scale_values = scales.data if isinstance(scales, Tensor) else np.asarray(scales)
    if np.any(scale_values <= 0.0):
        raise ValueError("scales must be strictly positive")
    if _is_tensor(targets, mus, scales):
        targets = _as_tensor(targets)
        mus = _as_tensor(mus)
        scales = _as_tensor(scales)
        return (scales.log() + (targets - mus).abs() / scales).sum()
    targets = np.asarray(targets, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    return float(np.sum(np.log(scale_values) + np.abs(targets - mus) / scale_values))


def laplace_likelihood(y, mu, b):
    """Laplace density (1 / 2b) * exp(-|y - mu| / b); integrates to 1 over y."""
    b = np.asarray(b, dtype=np.float64)
    if np.any(b <= 0.0):
        raise ValueError("scale must be strictly positive")
    out = np.exp(-np.abs(np.asarray(y, dtype=np.float64) - mu) / b) / (2.0 * b)
    return float(out) if out.ndim == 0 else out


def mae_loss(targets, preds):
    """Mean absolute error (1/N) * sum |y_i - yhat_i|."""
    if _is_tensor(targets, preds):
        return (_as_tensor(targets) - _as_tensor(preds)).abs().mean()
    targets = np.asarray(targets, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if targets.size == 0:
        raise ValueError("mae_loss needs at least one sample")
    return float(np.mean(np.abs(targets - preds)))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
