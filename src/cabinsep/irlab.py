"""Impulse-response toolbox.

Shoebox image-source simulation, excitation signals (exponential sweep,
maximum-length sequence, time-stretched pulse), impulse-response extraction
by deconvolution, and the strategies for assigning recorded vs simulated
IRs to microphone channels when synthesizing scenes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve, max_len_seq

from .dsp import DEFAULT_SAMPLE_RATE, read_wav, write_wav
from .errors import InvalidConfig, InvalidInput

SPEED_OF_SOUND = 343.0

# cabin preset: stand-in geometry for a 4-zone passenger cabin (meters);
# one roof microphone above and slightly outboard of each seat
CABIN_DIMENSIONS = (2.8, 1.5, 1.2)
CABIN_MICS = (
    (1.05, 0.22, 1.08),  # zone 1, front left
    (1.05, 1.28, 1.08),  # zone 2, front right
    (2.05, 0.22, 1.08),  # zone 3, rear left
    (2.05, 1.28, 1.08),  # zone 4, rear right
)
CABIN_SEATS = (
    (1.15, 0.42, 0.90),
    (1.15, 1.08, 0.90),
    (2.35, 0.42, 0.90),
    (2.35, 1.08, 0.90),
)

_SINC_HALF_WIDTH = 8  # 16-tap Hann-windowed sinc for fractional delays


@dataclass
class ImpulseResponse:
    """FIR response plus provenance metadata."""

    taps: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE
    origin: str = "synthetic-test"  # simulated | recorded | synthetic-test
    zone: int | None = None
    source_position: tuple[float, float, float] | None = None
    mic_position: tuple[float, float, float] | None = None

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size < 1:
            raise InvalidInput("impulse response must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.taps)):
            raise InvalidInput("impulse response contains non-finite taps")


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room for the image-source method.

    `reflection` is either one coefficient for all six surfaces or a
    6-tuple ordered (x_near, x_far, y_near, y_far, z_near, z_far) where
    "near" is the wall through the coordinate origin.
    """

    dimensions: tuple[float, float, float]
    source: tuple[float, float, float]
    mics: tuple[tuple[float, float, float], ...]
    reflection: float | tuple[float, ...] = 0.35
    max_order: int = 3
    ir_length: int = 2048
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        betas = self.reflection_pairs()
        if np.any(betas < 0.0) or np.any(betas >= 1.0):
            raise InvalidConfig("reflection coefficients must lie in [0, 1)")
        if self.max_order < 0:
            raise InvalidConfig("max_order must be >= 0")
        if self.ir_length < 1:
            raise InvalidConfig("ir_length must be >= 1")
        for name, pos in (("source", self.source), *(
                (f"mic {i}", m) for i, m in enumerate(self.mics))):
            for axis in range(3):
                if not (0.0 < pos[axis] < self.dimensions[axis]):
                    raise InvalidInput(f"{name} position {pos} is not strictly inside the room")

    def reflection_pairs(self) -> np.ndarray:
        """(2, 3) array: row 0 near walls, row 1 far walls, columns x/y/z."""
        if isinstance(self.reflection, (int, float)):
            return np.full((2, 3), float(self.reflection))
        if len(self.reflection) != 6:
            raise InvalidConfig("reflection must be a scalar or a 6-tuple")
        r = np.asarray(self.reflection, dtype=np.float64)
        return np.stack([r[0::2], r[1::2]])


def cabin_room(source, reflection: float = 0.35, max_order: int = 3,
               ir_length: int = 2048) -> RoomSpec:
    """RoomSpec for the default cabin geometry with the given source position."""
    return RoomSpec(
        dimensions=CABIN_DIMENSIONS,
        source=tuple(source),
        mics=CABIN_MICS,
        reflection=reflection,
        max_order=max_order,
        ir_length=ir_length,
    )


def seat_position(zone: int, rng: np.random.Generator | None = None,
                  jitter: float = 0.0) -> tuple[float, float, float]:
    """Nominal seat (standard-posture) source position for a zone, with optional jitter."""
    base = np.asarray(CABIN_SEATS[zone])
    if rng is not None and jitter > 0.0:
        base = base + rng.uniform(-jitter, jitter, size=3)
    return tuple(base)


def boundary_position(zone_a: int, zone_b: int) -> tuple[float, float, float]:
    """Source position midway between two seats (non-standard posture)."""
    mid = 0.5 * (np.asarray(CABIN_SEATS[zone_a]) + np.asarray(CABIN_SEATS[zone_b]))
    return tuple(mid)


def _add_arrival(taps: np.ndarray, delay_samples: float, amplitude: float) -> None:
    n = taps.shape[0]
    center = int(math.floor(delay_samples))
    lo = max(center - _SINC_HALF_WIDTH + 1, 0)
    hi = min(center + _SINC_HALF_WIDTH, n - 1)
    if hi < lo:
        return
    offsets = np.arange(lo, hi + 1) - delay_samples
    window = 0.5 * (1.0 + np.cos(np.pi * offsets / _SINC_HALF_WIDTH))
    window[np.abs(offsets) > _SINC_HALF_WIDTH] = 0.0
    taps[lo : hi + 1] += amplitude * np.sinc(offsets) * window


def simulate_ism(room: RoomSpec, mic: int) -> ImpulseResponse:
    """Image-source impulse response from the room's source to one microphone.

    Image amplitudes follow beta_near^|r+p| * beta_far^|r| / (4 pi d) with
    the image lattice truncated at `max_order` total reflections; each
    arrival lands at the fractional delay d / SPEED_OF_SOUND * sample_rate
    through a 16-tap Hann-windowed sinc. Taps of a sinc that would fall
    outside [0, ir_length) are dropped.
    """
    if not (0 <= mic < len(room.mics)):
        raise InvalidInput(f"mic index {mic} out of range")
    dims = np.asarray(room.dimensions)
    source = np.asarray(room.source)
    mic_pos = np.asarray(room.mics[mic])
    betas = room.reflection_pairs()
    order = room.max_order
    fs = room.sample_rate
    taps = np.zeros(room.ir_length)

    grid = range(-order, order + 1)
    for p0 in (0, 1):
        for p1 in (0, 1):
            for p2 in (0, 1):
                p = np.array([p0, p1, p2])
                for r0 in grid:
                    for r1 in grid:
                        for r2 in grid:
                            r = np.array([r0, r1, r2])
                            near_hits = np.abs(r + p)
                            far_hits = np.abs(r)
                            if near_hits.sum() + far_hits.sum() > order:
                                continue
                            image = (1 - 2 * p) * source + 2 * r * dims
                            dist = float(np.linalg.norm(image - mic_pos))
                            if dist <= 0.0:
                                continue
                            gain = float(
                                np.prod(betas[0] ** near_hits) * np.prod(betas[1] ** far_hits)
                            ) / (4.0 * np.pi * dist)
                            _add_arrival(taps, dist / SPEED_OF_SOUND * fs, gain)
    return ImpulseResponse(
        taps=taps, sample_rate=fs, origin="simulated", zone=None,
        source_position=tuple(source), mic_position=tuple(mic_pos),
    )


def simulate_ism_all(room: RoomSpec) -> list[ImpulseResponse]:
    """One IR per microphone of the room."""
    return [simulate_ism(room, m) for m in range(len(room.mics))]


# ---------------------------------------------------------------------------
# Excitation signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcitationSpec:
    """Parameters of a measurement excitation.

    kind 'ess': exponential sine sweep over [f_start, f_end] Hz lasting
    `duration` seconds; 'mls': maximum-length sequence of order `order`
    (length 2^order - 1); 'tsp': time-stretched pulse of `length` samples
    with integer `stretch`.
    """

    kind: str
    sample_rate: int = DEFAULT_SAMPLE_RATE
    f_start: float = 20.0
    f_end: float = 8000.0
    duration: float = 3.0
    order: int = 14
    length: int = 16384
    stretch: int | None = None

    def __post_init__(self):
        if self.kind not in ("ess", "mls", "tsp"):
            raise InvalidConfig(f"unknown excitation kind {self.kind!r}")
        if self.kind == "ess":
            if not (0.0 < self.f_start < self.f_end <= self.sample_rate / 2):
                raise InvalidConfig(
                    f"need 0 < f_start < f_end <= fs/2, got "
                    f"({self.f_start}, {self.f_end}) at fs={self.sample_rate}"
                )
            if self.duration <= 0:
                raise InvalidConfig("sweep duration must be positive")
        elif self.kind == "mls":
            if not (2 <= self.order <= 24):
                raise InvalidConfig("MLS order must be in [2, 24]")
        elif self.kind == "tsp":
            if self.length < 4 or self.length % 2 != 0:
                raise InvalidConfig("TSP length must be an even integer >= 4")
            if self.stretch is not None and not (0 < self.stretch < self.length // 2):
                raise InvalidConfig("TSP stretch must be in (0, length/2)")

    @property
    def tsp_stretch(self) -> int:
        return self.stretch if self.stretch is not None else self.length // 4

    def num_samples(self) -> int:
        if self.kind == "ess":
            return int(round(self.duration * self.sample_rate))
        if self.kind == "mls":
            return 2**self.order - 1
        return self.length


def gen_ess(spec: ExcitationSpec) -> np.ndarray:
    """Unit-amplitude exponential sine sweep sin(2 pi f1 L (e^{t/L} - 1))."""
    if spec.kind != "ess":
        raise InvalidConfig("spec.kind must be 'ess'")
    n = spec.num_samples()
    t = np.arange(n) / spec.sample_rate
    rate = math.log(spec.f_end / spec.f_start)
    sweep_time = spec.duration / rate  # L
    return np.sin(2.0 * np.pi * spec.f_start * sweep_time * (np.exp(t / sweep_time) - 1.0))


def inverse_filter_ess(spec: ExcitationSpec) -> np.ndarray:
    """Deconvolution filter: time-reversed sweep with +6 dB/octave compensation.

    Scaled so that conv(sweep, inverse) has unit peak.
    """
    sweep = gen_ess(spec)
    n = sweep.shape[0]
    t = np.arange(n) / spec.sample_rate
    rate = math.log(spec.f_end / spec.f_start)
    sweep_time = spec.duration / rate
    inverse = sweep[::-1] * np.exp(-t / sweep_time)
    pulse = fftconvolve(sweep, inverse)
    return inverse / np.max(np.abs(pulse))


def gen_mls(order: int) -> np.ndarray:
    """Maximum-length +/-1 sequence of length 2^order - 1.

    Taps come from scipy's per-order primitive polynomials; bits map
    1 -> -1, 0 -> +1.
    """
    if not (2 <= order <= 24):
        raise InvalidConfig("MLS order must be in [2, 24]")
    bits, _ = max_len_seq(order)
    return 1.0 - 2.0 * bits.astype(np.float64)


def _tsp_spectrum(length: int, stretch: int) -> np.ndarray:
    """One-sided all-pass spectrum with quadratic phase (real time signal)."""
    k = np.arange(length // 2 + 1)
    phase = -4.0 * np.pi * stretch * (k.astype(np.float64) ** 2) / length**2
    spectrum = np.exp(1j * phase)
    # linear phase term circularly centers the pulse stretch
    shift = length // 2 - stretch
    spectrum *= np.exp(-2j * np.pi * k * shift / length)
    return spectrum


def gen_tsp(length: int, stretch: int | None = None) -> np.ndarray:
    """Real time-stretched pulse: flat magnitude, quadratic phase."""
    spec = ExcitationSpec(kind="tsp", length=length, stretch=stretch)
    spectrum = _tsp_spectrum(spec.length, spec.tsp_stretch)
    return np.fft.irfft(spectrum, n=length)


def gen_excitation(spec: ExcitationSpec) -> np.ndarray:
    if spec.kind == "ess":
        return gen_ess(spec)
    if spec.kind == "mls":
        return gen_mls(spec.order)
    return gen_tsp(spec.length, spec.stretch)


def extract_ir(recording: np.ndarray, spec: ExcitationSpec,
               ir_length: int = 2048) -> ImpulseResponse:
    """Recover an impulse response from a recorded excitation playback.

    ESS uses linear convolution with the inverse sweep; MLS uses circular
    cross-correlation (exact up to one period); TSP uses circular spectral
    division by the all-pass phase. The output is aligned so a system delay
    of k samples appears at tap k.
    """
    recording = np.asarray(recording, dtype=np.float64)
    if recording.ndim != 1:
        raise InvalidInput("recording must be a 1-D waveform")
    n_exc = spec.num_samples()
    if recording.shape[0] < n_exc:
        raise InvalidInput(
            f"recording ({recording.shape[0]} samples) is shorter than the "
            f"excitation ({n_exc} samples)"
        )

    if spec.kind == "ess":
        inverse = inverse_filter_ess(spec)
        pulse = fftconvolve(recording, inverse)
        taps = pulse[n_exc - 1 : n_exc - 1 + ir_length]
    elif spec.kind == "mls":
        seq = gen_mls(spec.order)
        wrapped = _wrap_periodic(recording, n_exc)
        xcorr = np.fft.irfft(np.fft.rfft(wrapped) * np.conj(np.fft.rfft(seq)), n=n_exc)
        total = xcorr.sum()
        taps = (xcorr + total) / (n_exc + 1)
        taps = taps[:ir_length]
    else:  # tsp
        spectrum = _tsp_spectrum(spec.length, spec.tsp_stretch)
        wrapped = _wrap_periodic(recording, n_exc)
        taps = np.fft.irfft(np.fft.rfft(wrapped) * np.conj(spectrum), n=n_exc)
        taps = taps[:ir_length]

    if taps.shape[0] < ir_length:
        taps = np.pad(taps, (0, ir_length - taps.shape[0]))
    return ImpulseResponse(taps=taps, sample_rate=spec.sample_rate, origin="synthetic-test")


def _wrap_periodic(signal: np.ndarray, period: int) -> np.ndarray:
    """Fold a linear-convolution tail back onto one period (circular identity)."""
    wrapped = np.zeros(period)
    for start in range(0, signal.shape[0], period):
        chunk = signal[start : start + period]
        wrapped[: chunk.shape[0]] += chunk
    return wrapped


# ---------------------------------------------------------------------------
# IR-set mixing strategies
# ---------------------------------------------------------------------------

MIX_STRATEGIES = ("mixed", "added", "only", "simulated")
ADDED_RECORDED_FRACTION = 0.25


def mix_ir_sets(simulated: list[ImpulseResponse] | None,
                recorded: list[ImpulseResponse] | None,
                strategy: str, speaker_zone: int,
                rng: np.random.Generator) -> list[ImpulseResponse]:
    """Choose per-microphone IRs for one speaker according to a strategy.

    mixed:     recorded IR for the speaker-zone microphone, simulated elsewhere
    added:     with probability 0.25 all recorded, otherwise all simulated
    only:      all recorded
    simulated: all simulated
    """
    if strategy not in MIX_STRATEGIES:
        raise InvalidInput(f"unknown strategy {strategy!r}, expected one of {MIX_STRATEGIES}")
    needs_sim = strategy in ("mixed", "added", "simulated")
    needs_rec = strategy in ("mixed", "added", "only")
    if needs_sim and not simulated:
        raise InvalidInput(f"strategy {strategy!r} requires a simulated IR set")
    if needs_rec and not recorded:
        raise InvalidInput(f"strategy {strategy!r} requires a recorded IR set")
    n_mics = len(simulated) if simulated else len(recorded)
    if not (0 <= speaker_zone < n_mics):
        raise InvalidInput(f"speaker zone {speaker_zone} out of range for {n_mics} mics")

    if strategy == "mixed":
        return [recorded[m] if m == speaker_zone else simulated[m] for m in range(n_mics)]
    if strategy == "added":
        use_recorded = rng.random() < ADDED_RECORDED_FRACTION
        return list(recorded) if use_recorded else list(simulated)
    if strategy == "only":
        return list(recorded)
    return list(simulated)


# ---------------------------------------------------------------------------
# IR files: float32 WAV plus a JSON sidecar with the metadata
# ---------------------------------------------------------------------------

def write_ir(path, ir: ImpulseResponse) -> None:
    path = Path(path)
    write_wav(path, ir.taps, sample_rate=ir.sample_rate)
    sidecar = {
        "sample_rate": ir.sample_rate,
        "origin": ir.origin,
        "zone": ir.zone,
        "source_position": list(ir.source_position) if ir.source_position else None,
        "mic_position": list(ir.mic_position) if ir.mic_position else None,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2))


def read_ir(path) -> ImpulseResponse:
    path = Path(path)
    wave, rate = read_wav(path)
    meta = {}
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
    return ImpulseResponse(
        taps=wave[0],
        sample_rate=meta.get("sample_rate", rate),
        origin=meta.get("origin", "recorded"),
        zone=meta.get("zone"),
        source_position=tuple(meta["source_position"]) if meta.get("source_position") else None,
        mic_position=tuple(meta["mic_position"]) if meta.get("mic_position") else None,
    )
