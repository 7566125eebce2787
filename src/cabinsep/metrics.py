"""Evaluation and loss machinery: SI-SNR, log-mel MAE, combined loss,
zone-positioning protocol, and real-time-factor benchmarking."""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import StftConfig, analyze
from .errors import InvalidInput

SI_SNR_CLAMP_DB = 60.0
DEFAULT_MEL_BANDS = 80
_LOG_FLOOR = 1e-10
_SILENCE_RMS = 1e-12


def si_snr(estimate: np.ndarray, target: np.ndarray) -> float:
    """Scale-invariant SNR in dB, clamped to +/-60 for reporting.

    Projects the estimate onto the target and compares projection energy to
    residual energy; invariant to rescaling either argument.
    """
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if estimate.shape != target.shape:
        raise InvalidInput(f"length mismatch: {estimate.shape} vs {target.shape}")
    target_energy = float(np.dot(target, target))
    if target_energy <= 0.0:
        raise InvalidInput("silent target; SI-SNR undefined")
    projection = np.dot(estimate, target) / target_energy * target
    residual = estimate - projection
    p_proj = float(np.dot(projection, projection))
    p_res = float(np.dot(residual, residual))
    if p_proj == 0.0:
        return -SI_SNR_CLAMP_DB
    if p_res == 0.0:
        return SI_SNR_CLAMP_DB
    value = 10.0 * np.log10(p_proj / p_res)
    return float(np.clip(value, -SI_SNR_CLAMP_DB, SI_SNR_CLAMP_DB))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int = DEFAULT_MEL_BANDS,
                   cfg: StftConfig = StftConfig()) -> np.ndarray:
    """(n_mels, bins) triangular mel filters spanning [0, fs/2]."""
    nyquist = cfg.sample_rate / 2.0
    mel_edges = np.linspace(_hz_to_mel(0.0), _hz_to_mel(nyquist), n_mels + 2)
    hz_edges = _mel_to_hz(mel_edges)
    bin_freqs = np.arange(cfg.bins) * cfg.sample_rate / cfg.fft_size
    filters = np.zeros((n_mels, cfg.bins))
    for m in range(n_mels):
        lo, mid, hi = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        filters[m] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return filters


def fbank_features(wave: np.ndarray, n_mels: int = DEFAULT_MEL_BANDS,
                   cfg: StftConfig = StftConfig()) -> np.ndarray:
    """(frames, n_mels) log-mel features, log floored at 1e-10."""
    spec = analyze(np.asarray(wave, dtype=np.float64), cfg)[0]
    power = spec.real**2 + spec.imag**2
    mel = power @ mel_filterbank(n_mels, cfg).T
    return np.log(np.maximum(mel, _LOG_FLOOR))


def fbank_mae(a: np.ndarray, b: np.ndarray, n_mels: int = DEFAULT_MEL_BANDS,
              cfg: StftConfig = StftConfig()) -> float:
    """Mean absolute error between the log-mel features of two waveforms."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise InvalidInput(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(fbank_features(a, n_mels, cfg) -
                                fbank_features(b, n_mels, cfg))))


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.01   # speech log-mel MAE
    beta: float = 1.0     # negated speech SI-SNR
    gamma: float = 0.01   # noise log-mel MAE

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise InvalidInput("loss weights must be non-negative")


def combined_loss(speech: np.ndarray, speech_label: np.ndarray,
                  noise: np.ndarray, noise_label: np.ndarray,
                  weights: LossWeights = LossWeights(),
                  cfg: StftConfig = StftConfig()) -> float:
    """alpha * MAE(speech) - beta * SI-SNR(speech) + gamma * MAE(noise).

    SI-SNR enters negated so the loss decreases as separation improves.
    """
    loss = weights.beta * (-si_snr(speech, speech_label))
    if weights.alpha > 0:
        loss += weights.alpha * fbank_mae(speech, speech_label, cfg=cfg)
    if weights.gamma > 0:
        loss += weights.gamma * fbank_mae(noise, noise_label, cfg=cfg)
    return float(loss)


# ---------------------------------------------------------------------------
# Zone positioning protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositioningEntry:
    true_zone: int
    predicted_zone: int | None   # None = undecided (all outputs silent)
    non_standard: bool = False

    @property
    def decided(self) -> bool:
        return self.predicted_zone is not None

    @property
    def correct(self) -> bool:
        return self.predicted_zone == self.true_zone


@dataclass
class PositioningResult:
    """Aggregate of per-utterance decisions, with the non-standard-posture subset."""

    entries: list[PositioningEntry] = field(default_factory=list)

    def add(self, entry: PositioningEntry) -> None:
        self.entries.append(entry)

    def _accuracy(self, subset: list[PositioningEntry]) -> float | None:
        decided = [e for e in subset if e.decided]
        if not decided:
            return None
        return sum(e.correct for e in decided) / len(decided)

    @property
    def accuracy(self) -> float | None:
        return self._accuracy(self.entries)

    @property
    def nspa(self) -> float | None:
        return self._accuracy([e for e in self.entries if e.non_standard])

    @property
    def undecided_count(self) -> int:
        return sum(not e.decided for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "utterances": len(self.entries),
            "accuracy": self.accuracy,
            "nspa": self.nspa,
            "undecided": self.undecided_count,
            "rows": [
                {"true_zone": e.true_zone, "predicted_zone": e.predicted_zone,
                 "non_standard": e.non_standard}
                for e in self.entries
            ],
        }


def zone_positioning(separated: np.ndarray, true_zone: int,
                     non_standard: bool = False) -> PositioningEntry:
    """Predict the active zone of a single-speaker utterance by RMS energy.

    The zone whose separated output has the highest RMS wins; exact ties go
    to the lowest zone index. If every output is silent the utterance is
    undecided (excluded from the accuracy denominator).
    """
    separated = np.asarray(separated, dtype=np.float64)
    if separated.ndim != 2:
        raise InvalidInput("separated must be (zones, samples)")
    if not (0 <= true_zone < separated.shape[0]):
        raise InvalidInput(f"true zone {true_zone} out of range")
    rms = np.sqrt(np.mean(separated**2, axis=1))
    if np.all(rms < _SILENCE_RMS):
        return PositioningEntry(true_zone, None, non_standard)
    return PositioningEntry(true_zone, int(np.argmax(rms)), non_standard)


# ---------------------------------------------------------------------------
# Real-time-factor benchmarking
# ---------------------------------------------------------------------------

@dataclass
class RtfReport:
    audio_seconds: float
    rtfs: list[float]
    blas_threads: int            # BLAS threads in effect during the timed calls

    @property
    def median(self) -> float:
        return float(np.median(self.rtfs))

    @property
    def spread(self) -> float:
        return float(np.max(self.rtfs) - np.min(self.rtfs))

    def to_dict(self) -> dict:
        return {
            "audio_seconds": self.audio_seconds,
            "rtf_median": self.median,
            "rtf_runs": list(self.rtfs),
            "rtf_spread": self.spread,
            "blas_threads": self.blas_threads,
        }


def _openblas() -> ctypes.CDLL:
    """The OpenBLAS bundled with (and already loaded by) numpy's wheel."""
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                   .glob("libscipy_openblas64_*.so"))
    if not found:
        raise RuntimeError("numpy's bundled libscipy_openblas64_ not found: "
                           "cannot time on one BLAS thread")
    lib = ctypes.CDLL(str(found[0]))
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


def rtf_benchmark(process, audio_seconds: float, runs: int = 5,
                  warmup: int = 1) -> RtfReport:
    """Wall-clock real-time factor of `process()` over `audio_seconds` of audio.

    Calls the zero-argument callable `warmup` times unmeasured, then `runs`
    times measured; RTF = elapsed / audio duration. Single-threaded: numpy's
    bundled OpenBLAS is set to one thread for all calls and restored after,
    and a RuntimeError is raised if that library cannot be found. The
    callable must not spawn workers of its own.
    """
    if audio_seconds <= 0:
        raise InvalidInput("audio_seconds must be positive")
    if runs < 1:
        raise InvalidInput("need at least one measured run")
    blas = _openblas()
    previous = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(1)
    try:
        for _ in range(warmup):
            process()
        rtfs = []
        for _ in range(runs):
            start = time.perf_counter()
            process()
            rtfs.append((time.perf_counter() - start) / audio_seconds)
        threads = blas.scipy_openblas_get_num_threads64_()
    finally:
        blas.scipy_openblas_set_num_threads64_(previous)
    return RtfReport(audio_seconds=audio_seconds, rtfs=rtfs, blas_threads=threads)
