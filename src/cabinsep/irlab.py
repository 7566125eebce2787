"""Impulse-response toolbox.

Shoebox image-source simulation, excitation signals (exponential sweep,
maximum-length sequence, time-stretched pulse), impulse-response extraction
by deconvolution, FIR convolution with an IR, and the strategies for
assigning recorded vs simulated IRs to microphone channels when
synthesizing scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve, max_len_seq

from .dsp import DEFAULT_SAMPLE_RATE, _read_mono, write_wav
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
# the number of zones of a cabin scene: one microphone and one seat per zone
ZONES = len(CABIN_MICS)

_SINC_HALF_WIDTH = 8  # 16-tap Hann-windowed sinc for fractional delays

# longest IR or excitation in samples: the length an order-24 MLS allows
_MAX_SAMPLES = 2**24
# highest image order: 8 * 41**3 = 551 368 lattice candidates at this bound
_MAX_ORDER = 20
# largest room side in metres; a car cabin is under 3 m
_MAX_DIMENSION = 100.0


@dataclass
class ImpulseResponse:
    """FIR response, its taps at 16 kHz."""

    taps: np.ndarray

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

    def __post_init__(self):
        for name in ("max_order", "ir_length"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise InvalidConfig(f"{name} must be an integer")
        betas = self.reflection_pairs()
        if not np.all((betas >= 0.0) & (betas < 1.0)):  # NaN fails too
            raise InvalidConfig("reflection coefficients must lie in [0, 1)")
        if not (0 <= self.max_order <= _MAX_ORDER):
            raise InvalidConfig(f"max_order must be in [0, {_MAX_ORDER}], got {self.max_order}")
        if not (1 <= self.ir_length <= _MAX_SAMPLES):
            raise InvalidConfig(f"ir_length must be in [1, {_MAX_SAMPLES}], got {self.ir_length}")
        positions = (("source", self.source), *((f"mic {i}", m) for i, m in enumerate(self.mics)))
        for name, pos in (("dimensions", self.dimensions), *positions):
            if len(pos) != 3:
                raise InvalidInput(f"{name} {pos} must have exactly three coordinates")
        if not all(0.0 < d <= _MAX_DIMENSION for d in self.dimensions):  # NaN fails too
            raise InvalidConfig(
                f"dimensions {self.dimensions} must lie in (0, {_MAX_DIMENSION:g}] m")
        for name, pos in positions:
            if not all(0.0 < p < d for p, d in zip(pos, self.dimensions)):
                raise InvalidInput(f"{name} position {pos} is not strictly inside the room")

    def reflection_pairs(self) -> np.ndarray:
        """(2, 3) array: row 0 near walls, row 1 far walls, columns x/y/z."""
        if isinstance(self.reflection, (int, float)):
            return np.full((2, 3), float(self.reflection))
        if len(self.reflection) != 6:
            raise InvalidConfig("reflection must be a scalar or a 6-tuple")
        try:
            r = np.asarray(self.reflection, dtype=np.float64)
        except ValueError:
            raise InvalidConfig(f"reflection {self.reflection} holds non-numbers") from None
        return np.stack([r[0::2], r[1::2]])


def cabin_room(source, reflection: float = RoomSpec.reflection,
               max_order: int = RoomSpec.max_order,
               ir_length: int = RoomSpec.ir_length) -> RoomSpec:
    """RoomSpec for the default cabin geometry with the given source position."""
    return RoomSpec(
        dimensions=CABIN_DIMENSIONS,
        source=tuple(source),
        mics=CABIN_MICS,
        reflection=reflection,
        max_order=max_order,
        ir_length=ir_length,
    )


def seat_position(zone: int) -> tuple[float, float, float]:
    """Nominal seat (standard-posture) source position for a zone."""
    if not 0 <= zone < ZONES:
        raise InvalidInput(f"zone {zone} outside [0, {ZONES})")
    return CABIN_SEATS[zone]


def boundary_position(zone_a: int, zone_b: int) -> tuple[float, float, float]:
    """Source position midway between two seats (non-standard posture)."""
    mid = 0.5 * (np.asarray(seat_position(zone_a)) + np.asarray(seat_position(zone_b)))
    return tuple(mid)


def simulate_ism(room: RoomSpec, mic: int) -> ImpulseResponse:
    """Image-source impulse response from the room's source to one microphone.

    Image amplitudes follow beta_near^|r+p| * beta_far^|r| / (4 pi d) with
    the image lattice truncated at `max_order` total reflections; each
    arrival lands at the fractional delay d / SPEED_OF_SOUND * 16 kHz
    through a 16-tap Hann-windowed sinc. Taps of a sinc that would fall
    outside [0, ir_length) are dropped.

    The lattice is enumerated at once, in the order of six nested loops
    over p0, p1, p2 in {0, 1} and r0, r1, r2 in [-max_order, max_order],
    and each tap sums its arrivals in that order. Floating-point addition
    does not associate, so another order would move the last bits of the
    taps, and with them every scene and IR file rendered from them.
    """
    if not (0 <= mic < len(room.mics)):
        raise InvalidInput(f"mic index {mic} out of range")
    dims = np.asarray(room.dimensions)
    source = np.asarray(room.source)
    mic_pos = np.asarray(room.mics[mic])
    betas = room.reflection_pairs()
    order = room.max_order

    # int8 holds every candidate: |r + p| <= _MAX_ORDER + 1 and |2 r| <= 2 * _MAX_ORDER
    side = 2 * order + 1
    lattice = np.indices((2, 2, 2, side, side, side), dtype=np.int8).reshape(6, -1).T
    p, r = lattice[:, :3], lattice[:, 3:] - np.int8(order)
    near_hits, far_hits = np.abs(r + p), np.abs(r)
    keep = near_hits.sum(axis=1) + far_hits.sum(axis=1) <= order
    p, r, near_hits, far_hits = p[keep], r[keep], near_hits[keep], far_hits[keep]

    images = (1 - 2 * p) * source + 2 * r * dims
    diff = images - mic_pos
    # a stacked 3-vector matmul is the BLAS dot that np.linalg.norm takes;
    # a row-wise sum of squares can differ from it in the last bit
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    heard = dist > 0.0
    near_hits, far_hits, dist = near_hits[heard], far_hits[heard], dist[heard]
    gain = (np.prod(betas[0] ** near_hits, axis=1) * np.prod(betas[1] ** far_hits, axis=1)
            / (4.0 * np.pi * dist))
    delay = dist / SPEED_OF_SOUND * DEFAULT_SAMPLE_RATE

    idx = np.floor(delay).astype(np.int64)[:, None] + np.arange(
        1 - _SINC_HALF_WIDTH, _SINC_HALF_WIDTH + 1)
    offsets = idx - delay[:, None]
    window = 0.5 * (1.0 + np.cos(np.pi * offsets / _SINC_HALF_WIDTH))
    values = gain[:, None] * np.sinc(offsets) * window
    inside = (idx >= 0) & (idx < room.ir_length)
    taps = np.bincount(idx[inside], weights=values[inside], minlength=room.ir_length)
    return ImpulseResponse(taps=taps)


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
    with integer `stretch`, `length // 4` when not given. Every excitation is
    played at 16 kHz.
    """

    kind: str
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
            if not (0.0 < self.f_start < self.f_end <= DEFAULT_SAMPLE_RATE / 2):
                raise InvalidConfig(
                    f"need 0 < f_start < f_end <= fs/2, got "
                    f"({self.f_start}, {self.f_end}) at fs={DEFAULT_SAMPLE_RATE}"
                )
            if not (0.0 < self.duration < math.inf):
                raise InvalidConfig("sweep duration must be positive and finite")
        elif self.kind == "mls":
            if not (2 <= self.order <= 24):
                raise InvalidConfig("MLS order must be in [2, 24]")
        elif self.kind == "tsp":
            if self.length < 4 or self.length % 2 != 0:
                raise InvalidConfig("TSP length must be an even integer >= 4")
            if self.stretch is None:
                object.__setattr__(self, "stretch", self.length // 4)
            if not (0 < self.stretch < self.length // 2):
                raise InvalidConfig("TSP stretch must be in (0, length/2)")
        if self.num_samples() > _MAX_SAMPLES:
            raise InvalidConfig(
                f"excitation of {self.num_samples()} samples exceeds {_MAX_SAMPLES}")

    def num_samples(self) -> int:
        if self.kind == "ess":
            return int(round(self.duration * DEFAULT_SAMPLE_RATE))
        if self.kind == "mls":
            return 2**self.order - 1
        return self.length


def _gen_ess(spec: ExcitationSpec) -> np.ndarray:
    """Unit-amplitude exponential sine sweep sin(2 pi f1 L (e^{t/L} - 1))."""
    n = spec.num_samples()
    t = np.arange(n) / DEFAULT_SAMPLE_RATE
    rate = math.log(spec.f_end / spec.f_start)
    sweep_time = spec.duration / rate  # L
    return np.sin(2.0 * np.pi * spec.f_start * sweep_time * (np.exp(t / sweep_time) - 1.0))


def inverse_filter_ess(spec: ExcitationSpec) -> np.ndarray:
    """Deconvolution filter: time-reversed sweep with +6 dB/octave compensation.

    Scaled so that conv(sweep, inverse) has unit peak.
    """
    if spec.kind != "ess":
        raise InvalidConfig("spec.kind must be 'ess'")
    sweep = _gen_ess(spec)
    n = sweep.shape[0]
    t = np.arange(n) / DEFAULT_SAMPLE_RATE
    rate = math.log(spec.f_end / spec.f_start)
    sweep_time = spec.duration / rate
    inverse = sweep[::-1] * np.exp(-t / sweep_time)
    pulse = fftconvolve(sweep, inverse)
    return inverse / np.max(np.abs(pulse))


def _gen_mls(spec: ExcitationSpec) -> np.ndarray:
    """Maximum-length +/-1 sequence of length 2^order - 1.

    Taps come from scipy's per-order primitive polynomials; bits map
    1 -> -1, 0 -> +1.
    """
    bits, _ = max_len_seq(spec.order)
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


def _gen_tsp(spec: ExcitationSpec) -> np.ndarray:
    """Real time-stretched pulse: flat magnitude, quadratic phase."""
    spectrum = _tsp_spectrum(spec.length, spec.stretch)
    return np.fft.irfft(spectrum, n=spec.length)


def gen_excitation(spec: ExcitationSpec) -> np.ndarray:
    """The excitation signal `spec` describes."""
    return {"ess": _gen_ess, "mls": _gen_mls, "tsp": _gen_tsp}[spec.kind](spec)


def extract_ir(recording: np.ndarray, spec: ExcitationSpec,
               ir_length: int = 2048) -> ImpulseResponse:
    """Recover an impulse response from a recorded excitation playback.

    ESS uses linear convolution with the inverse sweep; MLS uses circular
    cross-correlation (exact up to one period); TSP uses circular spectral
    division by the all-pass phase. The output is aligned so a system delay
    of k samples appears at tap k.
    """
    if not (1 <= ir_length <= _MAX_SAMPLES):
        raise InvalidInput(f"ir_length must be in [1, {_MAX_SAMPLES}], got {ir_length}")
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
        seq = _gen_mls(spec)
        wrapped = _wrap_periodic(recording, n_exc)
        xcorr = np.fft.irfft(np.fft.rfft(wrapped) * np.conj(np.fft.rfft(seq)), n=n_exc)
        total = xcorr.sum()
        taps = (xcorr + total) / (n_exc + 1)
        taps = taps[:ir_length]
    else:  # tsp
        spectrum = _tsp_spectrum(spec.length, spec.stretch)
        wrapped = _wrap_periodic(recording, n_exc)
        taps = np.fft.irfft(np.fft.rfft(wrapped) * np.conj(spectrum), n=n_exc)
        taps = taps[:ir_length]

    if taps.shape[0] < ir_length:
        taps = np.pad(taps, (0, ir_length - taps.shape[0]))
    return ImpulseResponse(taps=taps)


def _wrap_periodic(signal: np.ndarray, period: int) -> np.ndarray:
    """Fold a linear-convolution tail back onto one period (circular identity)."""
    return np.pad(signal, (0, -signal.shape[0] % period)).reshape(-1, period).sum(axis=0)


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
    for name, irs in (("simulated", simulated), ("recorded", recorded)):
        if irs is not None and len(irs) != ZONES:
            raise InvalidInput(f"the {name} IR set holds {len(irs)} IRs, expected {ZONES}")
    if not (0 <= speaker_zone < ZONES):
        raise InvalidInput(f"speaker zone {speaker_zone} outside [0, {ZONES})")

    if strategy == "mixed":
        return [recorded[m] if m == speaker_zone else simulated[m] for m in range(ZONES)]
    if strategy == "added":
        use_recorded = rng.random() < ADDED_RECORDED_FRACTION
        return list(recorded) if use_recorded else list(simulated)
    if strategy == "only":
        return list(recorded)
    return list(simulated)


# ---------------------------------------------------------------------------
# IR files: one mono 16 kHz float32 WAV
# ---------------------------------------------------------------------------

def write_ir(path, ir: ImpulseResponse) -> None:
    write_wav(path, ir.taps)


def read_ir(path) -> ImpulseResponse:
    """Read a one-channel IR WAV; any other channel count is InvalidInput."""
    return ImpulseResponse(taps=_read_mono(path, "an IR WAV"))
