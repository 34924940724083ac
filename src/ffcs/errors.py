"""Exception types shared across the package."""


class UnsupportedOrder(ValueError):
    """Field order is neither a prime nor a supported power of two."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class InvalidGamma(ValueError):
    """Sparse factor outside the valid range (0, 1]."""


class DimensionMismatch(ValueError):
    """Operand dimensions do not agree."""


class EnumerationCapExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the fixed candidate cap (model.ENUMERATION_CAP)."""
