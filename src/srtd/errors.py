"""Exception types shared across the toolkit."""


class SrtdError(Exception):
    """Base class for all srtd errors."""


class DimensionError(SrtdError, ValueError):
    """Operands have incompatible or unsupported shapes."""


class ParameterError(SrtdError, ValueError):
    """A numeric or configuration parameter is outside its valid range."""


class FormatError(SrtdError, ValueError):
    """A file does not conform to the expected on-disk format."""


class DivergenceError(SrtdError, RuntimeError):
    """The solver produced a non-finite iterate."""

    def __init__(self, message: str, inner_iter: int = 0):
        super().__init__(message)
        self.inner_iter = inner_iter
