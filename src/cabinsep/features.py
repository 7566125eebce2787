"""Spectral and spatial input features for the mask estimator.

All functions accept spectrogram slices of shape (channels, ..., bins) so
they work both on whole (Z, T, F) tensors and on single-frame (Z, F)
snapshots (the streaming path).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig, InvalidInput


def stack_real_imag(spec: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts along the channel axis.

    (Z, ..., F) complex -> (2Z, ..., F) real; channels [0, Z) are the real
    parts, [Z, 2Z) the imaginary parts.
    """
    spec = np.asarray(spec)
    return np.concatenate([spec.real, spec.imag], axis=0)


def compute_lps(spec: np.ndarray, floor: float) -> np.ndarray:
    """Log power spectrum log(max(|Y|^2, floor)), one channel per microphone."""
    if floor <= 0:
        raise InvalidConfig(f"LPS floor must be positive, got {floor}")
    spec = np.asarray(spec)
    power = spec.real**2 + spec.imag**2
    return np.log(np.maximum(power, floor))


def compute_ipd(spec: np.ndarray, mic_a: int, mic_b: int) -> np.ndarray:
    """Inter-microphone phase difference encoded as (cos, sin).

    Channel 0 is cos(angle(Y_a) - angle(Y_b)), channel 1 the sine. Bins
    where a channel is exactly zero use angle(0) = 0, so identical zero
    inputs give (1, 0).

    Args:
        spec: (Z, ..., F) complex spectrogram, Z >= 2.
        mic_a, mic_b: distinct channel indices.

    Returns:
        (2, ..., F) real array with values in [-1, 1].
    """
    spec = np.asarray(spec)
    n_chan = spec.shape[0]
    if mic_a == mic_b:
        raise InvalidInput("IPD microphone indices must differ")
    if not (0 <= mic_a < n_chan and 0 <= mic_b < n_chan):
        raise InvalidInput(
            f"IPD microphone indices ({mic_a}, {mic_b}) out of range for {n_chan} channels"
        )
    theta = np.angle(spec[mic_a]) - np.angle(spec[mic_b])
    return np.stack([np.cos(theta), np.sin(theta)], axis=0)
