"""Time-frequency analysis/synthesis and WAV I/O.

Shape conventions used across the package:
    waveforms     -- float arrays, (num_samples,) or (channels, num_samples)
    spectrograms  -- complex arrays, (channels, frames, bins)

Channel i of a multichannel file corresponds to cabin zone i+1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

from .errors import InvalidConfig, InvalidInput
from .features import DEFAULT_SAMPLE_RATE, FFT_SIZE

# Floor for the squared-window overlap-add normalization in `synthesize`.
_OLA_FLOOR = 1e-8


@dataclass(frozen=True)
class StftConfig:
    """The one STFT framing: a periodic Hamming window at 50 % overlap.

    512 points at 16 kHz, the 32 ms window and 16 ms hop the mask network
    reads (257 bins). Every value is a class constant, so `StftConfig()`
    takes no argument.
    """

    fft_size: ClassVar[int] = FFT_SIZE
    window_length: ClassVar[int] = FFT_SIZE
    hop: ClassVar[int] = FFT_SIZE // 2
    bins: ClassVar[int] = FFT_SIZE // 2 + 1  # one-sided bin count
    sample_rate: ClassVar[int] = DEFAULT_SAMPLE_RATE

    def window(self) -> np.ndarray:
        """Periodic Hamming window, the usual STFT choice.

        Bit-identical to scipy's `get_window("hamming", n, fftbins=True)`,
        without importing `scipy.signal` on the separation path.
        """
        n = self.window_length
        return 0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def as_multichannel(wave: np.ndarray) -> np.ndarray:
    """Promote a 1-D waveform to shape (1, num_samples); 2-D passes through."""
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim == 1:
        wave = wave[None, :]
    if wave.ndim != 2:
        raise InvalidInput(f"waveform must be 1-D or 2-D, got ndim={wave.ndim}")
    return wave


def analyze(wave: np.ndarray, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Short-time Fourier transform of a (multichannel) waveform.

    Frame t covers samples [t*hop, t*hop + window_length); the signal is
    zero-padded at the end so the last frames are complete.

    Args:
        wave: (channels, samples) or (samples,) real waveform.
        cfg: framing parameters.

    Returns:
        (channels, frames, bins) complex spectrogram.
    """
    wave = as_multichannel(wave)
    n_chan, n_samples = wave.shape
    if n_samples == 0 or n_chan == 0:
        raise InvalidInput("empty waveform")

    frames = int(np.ceil(n_samples / cfg.hop))
    padded_len = (frames - 1) * cfg.hop + cfg.window_length
    padded = np.zeros((n_chan, padded_len))
    padded[:, :n_samples] = wave

    window = cfg.window()
    # (channels, frames, window_length) strided view over hops
    segments = sliding_window_view(padded, cfg.window_length, axis=-1)[:, ::cfg.hop] * window
    return np.fft.rfft(segments, axis=-1)


def synthesize(
    spec: np.ndarray, cfg: StftConfig = StftConfig(), length: int | None = None
) -> np.ndarray:
    """Inverse STFT by overlap-add with squared-window normalization.

    The output divides by the summed squared analysis window (floored at
    1e-8), which makes synthesize(analyze(w)) exact wherever the window
    coverage is complete. The imaginary parts of the DC and Nyquist bins
    are ignored, as `np.fft.irfft` ignores them.

    Args:
        spec: (channels, frames, bins) complex spectrogram.
        cfg: framing parameters (the spectrogram must have `cfg.bins` bins).
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

    window = cfg.window()
    segments = np.fft.irfft(spec, n=cfg.fft_size, axis=-1) * window

    # hop = window_length / 2: output block k is the first half of frame k
    # plus the second half of frame k - 1
    hop = cfg.hop
    blocks = np.zeros((n_chan, frames + 1, hop))
    blocks[:, :frames] += segments[..., :hop]
    blocks[:, 1:] += segments[..., hop:]
    sq_window = window * window
    norm = np.zeros((frames + 1, hop))
    norm[:frames] += sq_window[:hop]
    norm[1:] += sq_window[hop:]
    blocks /= np.maximum(norm, _OLA_FLOOR)
    out = blocks.reshape(n_chan, -1)
    out_len = out.shape[1]

    if length is not None:
        if length <= out_len:
            out = out[:, :length]
        else:
            out = np.pad(out, ((0, 0), (0, length - out_len)))
    return out


# ---------------------------------------------------------------------------
# WAV files, all at 16 kHz: read PCM 16/32-bit and float, write IEEE float 32-bit
# ---------------------------------------------------------------------------

def read_wav(path) -> np.ndarray:
    """Read a 16 kHz WAV file into a float64 (channels, samples) array.

    Integer PCM is scaled to [-1, 1); float samples are kept as stored, so
    they may lie beyond full scale. Raises InvalidInput naming the file if
    it is unreadable, not at 16 kHz or holds a non-finite sample.
    """
    try:
        rate, data = wavfile.read(path)
    except (FileNotFoundError, ValueError, struct.error) as exc:
        # struct.error: a file cut inside its RIFF or fmt header
        raise InvalidInput(f"cannot read WAV file {path}: {exc}") from exc
    if rate != DEFAULT_SAMPLE_RATE:
        raise InvalidInput(f"{path}: sample rate {rate} Hz, expected {DEFAULT_SAMPLE_RATE} Hz")
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
    if not np.isfinite(wave).all():
        raise InvalidInput(f"{path}: WAV samples must be finite")
    return wave


def _read_mono(path, what: str) -> np.ndarray:
    """`read_wav` of a file that must hold one channel, as (samples,).

    Any other channel count is InvalidInput naming the file, as `what`.
    """
    wave = read_wav(path)
    if wave.shape[0] != 1:
        raise InvalidInput(f"{path}: {what} needs exactly one channel, got {wave.shape[0]}")
    return wave[0]


def write_wav(path, wave: np.ndarray) -> None:
    """Write a (channels, samples) or (samples,) waveform as a 16 kHz IEEE float32 WAV."""
    data = as_multichannel(wave).T  # interleave
    wavfile.write(path, DEFAULT_SAMPLE_RATE, data.astype(np.float32))
