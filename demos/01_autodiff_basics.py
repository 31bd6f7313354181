"""Tour of the tensor core: tapes, gradients, layers, and a tiny Adam fit.

Run from the repository root:

    python3 demos/01_autodiff_basics.py
"""

import numpy as np

from forecast_uq.nn import Adam, DenseLayer, GradientTape, LstmCell, Tensor

# ----------------------------------------------------------------------------
# 1. Tensors record onto a tape only while one is open.

p = Tensor(np.array([2.0, -1.0]), requires_grad=True)
with GradientTape() as tape:
    loss = (p * p + 3.0 * p).sum()
grads = tape.gradients(loss, [p])
print("d/dp of sum(p^2 + 3p) at p=[2, -1]:", grads[p])  # 2p + 3 -> [7, 1]

# Outside a tape the same expression is plain numpy, no bookkeeping.
silent = (p * p + 3.0 * p).sum()
print("untaped value:", float(silent.data))

# ----------------------------------------------------------------------------
# 2. A dense layer against finite differences.

rng = np.random.default_rng(0)
layer = DenseLayer.create(3, 2, "tanh", rng)
x = Tensor(rng.normal(size=(4, 3)))


def layer_loss():
    return (layer.forward(x) * layer.forward(x)).sum()


with GradientTape() as tape:
    loss = layer_loss()
analytic = tape.gradients(loss, [layer.weights])[layer.weights]

eps = 1e-6
numeric = np.zeros_like(layer.weights.data)
for i in range(numeric.shape[0]):
    for j in range(numeric.shape[1]):
        original = layer.weights.data[i, j]
        layer.weights.data[i, j] = original + eps
        up = float(layer_loss().data)
        layer.weights.data[i, j] = original - eps
        down = float(layer_loss().data)
        layer.weights.data[i, j] = original
        numeric[i, j] = (up - down) / (2.0 * eps)

print("max |analytic - numeric| on dense weights:", np.abs(analytic - numeric).max())

# ----------------------------------------------------------------------------
# 3. The LSTM cell runs over a (steps, batch, input) sequence as one tape op;
#    its backward pass is backpropagation through time.

cell = LstmCell.create(1, 4, rng)
steps = rng.normal(size=(5, 2, 1))
with GradientTape() as tape:
    h_final = cell.run(steps)
    loss = (h_final * h_final).sum()
g = tape.gradients(loss, [cell.w_f])[cell.w_f]
print("BPTT gradient reaches the forget gate, norm:", float(np.abs(g).sum()))

# ----------------------------------------------------------------------------
# 4. Adam on a one-parameter problem: fit the median of noisy data.

target = Tensor(np.zeros((1, 1)), requires_grad=True)
samples = rng.laplace(3.0, 1.5, size=(256, 1))
optimizer = Adam([target], lr=0.02)
for step in range(1500):
    with GradientTape() as tape:
        loss = (Tensor(samples) - target).abs().mean()
    optimizer.step(tape.gradients(loss, [target]))
print("fitted location:", round(target.item(), 4), "| sample median:", round(float(np.median(samples)), 4))
