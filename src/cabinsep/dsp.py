"""Time-frequency analysis/synthesis, convolution, and WAV I/O.

Shape conventions used across the package:
    waveforms     -- float arrays, (num_samples,) or (channels, num_samples)
    spectrograms  -- complex arrays, (channels, frames, bins)

Channel i of a multichannel file corresponds to cabin zone i+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile
from scipy.signal import fftconvolve, get_window

from .errors import InvalidConfig, InvalidInput

DEFAULT_SAMPLE_RATE = 16000

# Floor for the squared-window overlap-add normalization in `synthesize`.
_OLA_FLOOR = 1e-8


@dataclass(frozen=True)
class StftConfig:
    """STFT framing parameters. Defaults: 32 ms hamming window, 16 ms hop @ 16 kHz."""

    fft_size: int = 512
    window_length: int = 512
    hop: int = 256
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        if self.fft_size <= 0 or self.fft_size % 2 != 0:
            raise InvalidConfig(f"fft_size must be a positive even integer, got {self.fft_size}")
        if not (1 <= self.hop <= self.window_length <= self.fft_size):
            raise InvalidConfig(
                f"need 1 <= hop <= window_length <= fft_size, got "
                f"hop={self.hop}, window_length={self.window_length}, fft_size={self.fft_size}"
            )
        if self.sample_rate <= 0:
            raise InvalidConfig("sample_rate must be positive")

    @property
    def bins(self) -> int:
        """One-sided bin count F = fft_size/2 + 1."""
        return self.fft_size // 2 + 1

    @property
    def frames_per_second(self) -> float:
        return self.sample_rate / self.hop

    def window(self) -> np.ndarray:
        # periodic window, the usual STFT choice
        return get_window("hamming", self.window_length, fftbins=True)


def as_multichannel(wave: np.ndarray) -> np.ndarray:
    """Promote a 1-D waveform to shape (1, num_samples); 2-D passes through."""
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim == 1:
        wave = wave[None, :]
    if wave.ndim != 2:
        raise InvalidInput(f"waveform must be 1-D or 2-D, got ndim={wave.ndim}")
    return wave


def num_frames(num_samples: int, cfg: StftConfig) -> int:
    """Frame count of `analyze` for a signal of the given length."""
    return int(np.ceil(num_samples / cfg.hop))


def analyze(wave: np.ndarray, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Short-time Fourier transform of a (multichannel) waveform.

    Frame t covers samples [t*hop, t*hop + window_length); the signal is
    zero-padded at the end so the last frames are complete.

    Args:
        wave: (channels, samples) or (samples,) real waveform.
        cfg: framing parameters.

    Returns:
        (channels, frames, bins) complex spectrogram, bins = fft_size/2 + 1.
    """
    wave = as_multichannel(wave)
    n_chan, n_samples = wave.shape
    if n_samples == 0 or n_chan == 0:
        raise InvalidInput("empty waveform")

    frames = num_frames(n_samples, cfg)
    padded_len = (frames - 1) * cfg.hop + cfg.window_length
    padded = np.zeros((n_chan, padded_len))
    padded[:, :n_samples] = wave

    window = cfg.window()
    # (channels, frames, window_length) strided view over hops
    idx = np.arange(cfg.window_length)[None, :] + cfg.hop * np.arange(frames)[:, None]
    segments = padded[:, idx] * window
    return np.fft.rfft(segments, n=cfg.fft_size, axis=-1)


def synthesize(
    spec: np.ndarray, cfg: StftConfig = StftConfig(), length: int | None = None
) -> np.ndarray:
    """Inverse STFT by overlap-add with squared-window normalization.

    The output divides by the summed squared analysis window (floored at
    1e-8), which makes synthesize(analyze(w)) exact wherever the window
    coverage is complete. DC and Nyquist bins are forced real before the
    inverse transform.

    Args:
        spec: (channels, frames, bins) complex spectrogram.
        cfg: framing parameters (bins must equal fft_size/2 + 1).
        length: optional output length to trim/pad to.

    Returns:
        (channels, samples) real waveform.
    """
    spec = np.asarray(spec)
    if spec.ndim != 3:
        raise InvalidInput(f"spectrogram must be 3-D, got ndim={spec.ndim}")
    n_chan, frames, bins = spec.shape
    if bins != cfg.bins:
        raise InvalidConfig(f"spectrogram has {bins} bins but config implies {cfg.bins}")

    spec = spec.copy()
    spec[..., 0] = spec[..., 0].real
    spec[..., -1] = spec[..., -1].real

    window = cfg.window()
    segments = np.fft.irfft(spec, n=cfg.fft_size, axis=-1)[..., : cfg.window_length]
    segments = segments * window

    out_len = (frames - 1) * cfg.hop + cfg.window_length
    out = np.zeros((n_chan, out_len))
    norm = np.zeros(out_len)
    sq_window = window * window
    for t in range(frames):
        start = t * cfg.hop
        out[:, start : start + cfg.window_length] += segments[:, t, :]
        norm[start : start + cfg.window_length] += sq_window
    out /= np.maximum(norm, _OLA_FLOOR)

    if length is not None:
        if length <= out_len:
            out = out[:, :length]
        else:
            out = np.pad(out, ((0, 0), (0, length - out_len)))
    return out


def convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Full linear convolution of a waveform with an FIR response.

    Uses the FFT method; agrees with the direct O(N*M) sum to better than
    1e-6 relative.

    Args:
        x: (samples,) or (channels, samples) waveform.
        taps: (taps,) FIR coefficients.

    Returns:
        Array of shape (..., len(x) + len(taps) - 1).
    """
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    if x.size == 0 or taps.size == 0:
        raise InvalidInput("convolve requires non-empty operands")
    if taps.ndim != 1:
        raise InvalidInput("impulse response must be 1-D")
    if x.ndim == 1:
        return fftconvolve(x, taps, mode="full")
    return fftconvolve(x, taps[None, :], mode="full", axes=-1)


# ---------------------------------------------------------------------------
# WAV files: read PCM 16/32-bit and float, write IEEE float 32-bit
# ---------------------------------------------------------------------------

def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file into a float64 (channels, samples) array in [-1, 1]."""
    try:
        rate, data = wavfile.read(path)
    except (FileNotFoundError, ValueError) as exc:
        raise InvalidInput(f"cannot read WAV file {path}: {exc}") from exc
    if data.ndim == 1:
        data = data[:, None]
    data = data.T  # interleaved (samples, channels) -> (channels, samples)
    if data.dtype == np.int16:
        wave = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        wave = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        wave = data.astype(np.float64)
    else:
        raise InvalidInput(f"unsupported WAV sample format {data.dtype} in {path}")
    return wave, int(rate)


def write_wav(path, wave: np.ndarray, sample_rate: int = DEFAULT_SAMPLE_RATE) -> None:
    """Write a (channels, samples) or (samples,) waveform as IEEE float32 WAV."""
    data = as_multichannel(wave).T  # interleave
    wavfile.write(path, sample_rate, data.astype(np.float32))
