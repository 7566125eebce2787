"""Exception taxonomy shared by all modules; `cli.main` maps `InvalidInput` to
exit 2 and `InvalidConfig` to exit 3."""


class CabinSepError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(CabinSepError, ValueError):
    """Malformed or out-of-contract input data (shapes, ranges, files, manifests)."""


class InvalidConfig(CabinSepError, ValueError):
    """A configuration violates its invariants, or a weight container does not fit it."""


class NumericalError(CabinSepError, ArithmeticError):
    """A numerical operation failed (e.g. covariance not invertible)."""
