"""Neural-network kernel: autodiff tensors, layers, Adam."""

from .layers import ACTIVATIONS, DenseLayer, LstmCell
from .optim import Adam
from .tensor import GradientTape, Tensor, affine, as_tensor, concat

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "DenseLayer",
    "GradientTape",
    "LstmCell",
    "Tensor",
    "affine",
    "as_tensor",
    "concat",
]
