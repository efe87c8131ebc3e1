"""Exception types shared across the package."""


class NReflectError(Exception):
    """Base class for all package-specific errors."""


class OrderMismatchError(NReflectError, ValueError):
    """Arithmetic between cyclotomic elements of different orders."""


class ShapeError(NReflectError, ValueError):
    """Matrix dimensions do not match."""


class SingularMatrixError(NReflectError, ZeroDivisionError):
    """Exact inversion of a singular matrix."""


class PoleError(NReflectError, ZeroDivisionError):
    """Evaluation requested at a pole of a rational object."""


class ConstraintError(NReflectError, ValueError):
    """A given value or parameter is malformed or unknown, or violates an
    exact algebraic constraint."""


class UnsupportedCaseError(NReflectError, ValueError):
    """Operation not defined for this catalog case (e.g. c = 0 reparametrization)."""


class SamplingError(NReflectError, RuntimeError):
    """Rejection sampling found no point where the check evaluates."""


class DegreeError(NReflectError, OverflowError):
    """A spin-polynomial exponent exceeds what a packed monomial key holds."""


class ModelError(NReflectError, ValueError):
    """Invalid Gaudin model configuration."""
