"""Neural-network kernel: autodiff tensors, layers, Adam."""
