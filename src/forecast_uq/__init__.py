"""Uncertainty-aware forecasting for short, noisy monthly series.

Train small dense or LSTM networks that output a Laplace predictive
distribution (point forecast plus noise scale), then use the scale as a
confidence score to decline the hardest forecasts. Includes a synthetic
generator with ground-truth noise scales, selective-prediction
evaluation, and a command line pipeline.
"""

__version__ = "0.1.0"
