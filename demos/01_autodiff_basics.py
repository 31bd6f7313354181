"""Tour of the tensor core: one-op towers on a tape, their gradients, and Adam on the Laplace NLL.

Run from the repository root:

    python3 demos/01_autodiff_basics.py
"""

import numpy as np

from forecast_uq.losses import elu_plus_one, laplace_nll, mae_loss
from forecast_uq.nn import Adam, DenseLayer, GradientTape, LstmCell, Tensor, dense_chain


def finite_difference(loss_fn, param: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar loss, one parameter entry at a time."""
    numeric = np.zeros_like(param.data)
    for idx in np.ndindex(param.shape):
        original = param.data[idx]
        param.data[idx] = original + eps
        up = float(loss_fn().data)
        param.data[idx] = original - eps
        down = float(loss_fn().data)
        param.data[idx] = original
        numeric[idx] = (up - down) / (2.0 * eps)
    return numeric


def tape_gradient(loss_fn, param: Tensor) -> np.ndarray:
    with GradientTape() as tape:
        loss = loss_fn()
    return tape.gradients(loss, [param])[param]


rng = np.random.default_rng(0)

# ----------------------------------------------------------------------------
# 1. A chain of dense layers is one tape op. While a tape is open it keeps what
#    its backward pass needs; outside a tape it is plain numpy.

layers = [DenseLayer.create(3, 4, "relu", rng), DenseLayer.create(4, 1, "identity", rng)]
x = rng.normal(size=(6, 3))
y = Tensor(rng.normal(size=(6, 1)))


def chain_loss():
    return mae_loss(y, dense_chain(x, layers, (None, None)))


weights = layers[0].weights
error = np.abs(tape_gradient(chain_loss, weights) - finite_difference(chain_loss, weights)).max()
print("max |tape - finite differences| on the first layer's weights:", f"{error:.1e}")
print("untaped loss:", round(float(chain_loss().data), 6))

# ----------------------------------------------------------------------------
# 2. The LSTM cell runs over a (steps, batch, input) sequence as one tape op;
#    its backward pass is backpropagation through time.

cell = LstmCell.create(1, 4, rng)
steps = rng.normal(size=(5, 2, 1))
hidden_target = Tensor(np.full((2, 4), 0.5))


def lstm_loss():
    return mae_loss(hidden_target, cell.run(steps))


g = tape_gradient(lstm_loss, cell.w_f)
error = np.abs(g - finite_difference(lstm_loss, cell.w_f)).max()
print("BPTT gradient on the forget gate, norm:", round(float(np.linalg.norm(g)), 6))
print("max |tape - finite differences| on the forget gate:", f"{error:.1e}")

# ----------------------------------------------------------------------------
# 3. Adam on the Laplace NLL: a location and one shared scale, the
#    homoscedastic model in miniature. The maximum-likelihood answers are the
#    sample median and the mean absolute deviation from it.

samples = rng.laplace(3.0, 1.5, size=(255, 1))  # odd, so one sample is the median
location = Tensor(np.zeros((1, 1)), requires_grad=True)
scale_pre = Tensor(np.zeros((1, 1)), requires_grad=True)  # elu_plus_one(0) = 1
optimizer = Adam([location, scale_pre], lr=0.02)
for _ in range(1500):
    with GradientTape() as tape:
        mus = location * np.ones_like(samples)
        loss = laplace_nll(Tensor(samples), mus, elu_plus_one(scale_pre)) / float(len(samples))
    optimizer.step(tape.gradients(loss, [location, scale_pre]))
median = float(np.median(samples))
print("fitted location:", round(float(location.data[0, 0]), 4), "| sample median:", round(median, 4))
print(
    "fitted scale:", round(float(elu_plus_one(scale_pre.data)[0, 0]), 4),
    "| mean |y - median|:", round(float(np.abs(samples - median).mean()), 4),
)
