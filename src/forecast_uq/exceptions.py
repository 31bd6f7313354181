"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An array argument has dimensions inconsistent with the declared ones."""


class ConfigError(ValueError):
    """A configuration document is malformed or carries unknown keys."""


class TrainingError(RuntimeError):
    """Training hit a non-finite loss or gradient and was aborted."""


class RowError(ValueError):
    """One series of a matrix cannot be used; ``row`` is its index and ``reason`` says why."""

    def __init__(self, row: int, reason: str):
        super().__init__(row, reason)  # args that pickle back into a RowError
        self.row, self.reason = row, reason

    def __str__(self) -> str:
        return f"series {self.row}: {self.reason}"
