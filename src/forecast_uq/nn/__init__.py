"""Neural-network kernel: autodiff tensors, layers, Adam."""

from .layers import DenseLayer, LstmCell, dense_chain
from .optim import Adam
from .tensor import GradientTape, Tensor, affine, as_tensor, concat

__all__ = [
    "Adam",
    "DenseLayer",
    "GradientTape",
    "LstmCell",
    "Tensor",
    "affine",
    "as_tensor",
    "concat",
    "dense_chain",
]
