"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class ShapeError(ValueError):
    """Array dimensions are incompatible with the operation."""


class FormatError(ValueError):
    """A file or byte stream does not match its declared format."""


class ConfigError(ValueError):
    """An experiment configuration fails schema validation."""


class DegenerateVarianceError(InvalidArgumentError):
    """A statistic that requires nonzero variance was given constant data."""


class DivergenceError(RuntimeError):
    """Training produced a loss or a parameter that is not finite as float32."""
