"""Exception taxonomy shared by all modules (and mapped to CLI exit codes)."""


class CabinSepError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(CabinSepError, ValueError):
    """Malformed or out-of-contract input data (bad shapes, ranges, files)."""


class InvalidConfig(CabinSepError, ValueError):
    """Configuration object violates its invariants."""


class InvalidManifest(CabinSepError, ValueError):
    """Scene manifest is inconsistent (zone collisions, bad SNR ranges, ...)."""


class WeightShapeError(CabinSepError, ValueError):
    """Weight container does not match the model configuration, or its weights
    leave the range the network computes safely in."""


class NumericalError(CabinSepError, ArithmeticError):
    """A numerical operation failed (e.g. covariance not invertible)."""
