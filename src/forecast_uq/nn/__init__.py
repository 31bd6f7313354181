"""Neural-network kernel: autodiff tensors, layers, Adam."""

from .layers import ACTIVATIONS, DenseLayer, LstmCell
from .optim import Adam
from .tensor import GradientTape, Tensor, as_tensor, concat, transpose

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "DenseLayer",
    "GradientTape",
    "LstmCell",
    "Tensor",
    "as_tensor",
    "concat",
    "transpose",
]
