"""Evaluation: SI-SNR, the zone-positioning protocol, and real-time-factor
benchmarking."""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInput

SI_SNR_CLAMP_DB = 60.0
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


def rtf_benchmark(process, audio_seconds: float, runs: int = 5) -> RtfReport:
    """Wall-clock real-time factor of `process()` over `audio_seconds` of audio.

    Calls the zero-argument callable once unmeasured, then `runs` times
    measured; RTF = elapsed / audio duration. Single-threaded: numpy's
    bundled OpenBLAS is set to one thread for all calls and restored after,
    and a RuntimeError is raised if that library cannot be found. The
    callable must not spawn workers of its own.
    """
    if not 0 < audio_seconds < np.inf:
        raise InvalidInput("audio_seconds must be positive and finite")
    if runs < 1:
        raise InvalidInput("need at least one measured run")
    blas = _openblas()
    previous = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(1)
    try:
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
