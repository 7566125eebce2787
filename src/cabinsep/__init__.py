"""Streaming multi-zone speech separation toolkit.

Neural speech/noise mask estimation feeding a streaming MVDR beamformer,
plus an impulse-response laboratory, a cabin scene synthesizer, evaluation
metrics, and complexity accounting.
"""

from .errors import CabinSepError, InvalidConfig, InvalidInput, NumericalError

__version__ = "0.1.0"

# Submodules load on `from cabinsep import <name>`, not here: the IR lab and
# scene synthesis import scipy.signal, which the separation path never runs.
__all__ = [
    "CabinSepError",
    "InvalidConfig",
    "InvalidInput",
    "NumericalError",
    "__version__",
]
