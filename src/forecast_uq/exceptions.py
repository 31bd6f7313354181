"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An array argument has dimensions inconsistent with the declared ones."""


class ConfigError(ValueError):
    """A configuration document is malformed or carries unknown keys."""


class TrainingError(RuntimeError):
    """Training hit a non-finite loss or gradient and was aborted."""

