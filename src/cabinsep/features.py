"""Spectral and spatial input features for the mask estimator.

All functions accept spectrogram slices of shape (channels, ..., bins) so
they work both on whole (Z, T, F) tensors and on single-frame (Z, F)
snapshots (the streaming path).
"""

from __future__ import annotations

import numpy as np

# Owned here rather than by `ModelConfig`, which refers to them, so that this
# module imports nothing from `cabinsep.model`, and `cabinsep.model` nothing
# from `cabinsep.dsp` (which imports scipy.io).
LPS_FLOOR = 1e-10
IPD_PAIR = (0, 1)  # front-row microphones
DEFAULT_SAMPLE_RATE = 16000
FFT_SIZE = 512  # the one STFT framing: 32 ms window, 16 ms hop, 257 bins


def stack_real_imag(spec: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts along the channel axis.

    (Z, ..., F) complex -> (2Z, ..., F) real; channels [0, Z) are the real
    parts, [Z, 2Z) the imaginary parts.
    """
    spec = np.asarray(spec)
    return np.concatenate([spec.real, spec.imag], axis=0)


def compute_lps(spec: np.ndarray) -> np.ndarray:
    """Log power spectrum log(max(|Y|^2, LPS_FLOOR)), one channel per microphone."""
    spec = np.asarray(spec)
    power = spec.real**2 + spec.imag**2
    return np.log(np.maximum(power, LPS_FLOOR))


def compute_ipd(spec: np.ndarray) -> np.ndarray:
    """Phase difference of the IPD_PAIR microphones (a, b) encoded as (cos, sin).

    Channel 0 is cos(angle(Y_a) - angle(Y_b)), channel 1 the sine. Bins
    where a channel is exactly zero use angle(0) = 0, so identical zero
    inputs give (1, 0).

    Args:
        spec: (Z, ..., F) complex spectrogram, Z >= 2.

    Returns:
        (2, ..., F) real array with values in [-1, 1].
    """
    spec = np.asarray(spec)
    mic_a, mic_b = IPD_PAIR
    theta = np.angle(spec[mic_a]) - np.angle(spec[mic_b])
    return np.stack([np.cos(theta), np.sin(theta)], axis=0)
