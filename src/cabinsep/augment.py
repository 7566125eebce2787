"""Cabin scene synthesis: reverberant speech images, noise at target SNRs, labels.

A scene is described by a `SceneManifest` (JSON-serializable). Rendering is
deterministic given the manifest; randomness (IR strategies, simulated
scenes) comes only from a seeded generator the caller passes.

Conventions: the additive decomposition is exact -- the mixture equals the
sum of per-zone speech images plus the noise label at every microphone.
The per-zone speech label is the zone's reverberant image at its own
(reference) microphone; SNR is measured between the summed speech images
and the noise at microphone 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .dsp import DEFAULT_SAMPLE_RATE, StftConfig, _read_mono, analyze, read_wav
from .errors import InvalidInput, InvalidManifest
from .irlab import (
    ZONES,
    ImpulseResponse,
    cabin_room,
    read_ir,
    seat_position,
    simulate_ism_all,
)
from .model.network import MaskPair

BACKGROUND_SNR_RANGE = (-20.0, 25.0)
TRANSIENT_SNR_RANGE = (-5.0, 5.0)


@dataclass(frozen=True)
class SpeakerEntry:
    zone: int
    speech: str              # path to a mono clean-speech WAV
    irs: tuple[str, ...]     # Z impulse-response WAVs, one per microphone
    gain: float = 1.0


@dataclass(frozen=True)
class NoiseEntry:
    file: str
    snr_db: float
    onset_seconds: float = 0.0


def _typed(value, kind: type, what: str):
    """`value` if it has JSON type `kind` (a bool is no int), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    if not math.isfinite(value := float(value)):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


@dataclass
class SceneManifest:
    speakers: list[SpeakerEntry] = field(default_factory=list)
    background: NoiseEntry | None = None
    transients: list[NoiseEntry] = field(default_factory=list)

    def validate(self) -> None:
        """Check the SNR ranges; `mix_scene_signals` checks the speaker zones."""
        if self.background is not None:
            lo, hi = BACKGROUND_SNR_RANGE
            if not (lo <= self.background.snr_db <= hi):
                raise InvalidManifest(
                    f"background SNR {self.background.snr_db} outside [{lo}, {hi}] dB"
                )
        for t in self.transients:
            lo, hi = TRANSIENT_SNR_RANGE
            if not (lo <= t.snr_db <= hi):
                raise InvalidManifest(f"transient SNR {t.snr_db} outside [{lo}, {hi}] dB")

    @classmethod
    def from_json(cls, text: str) -> "SceneManifest":
        """Parse a manifest; keys outside the schema are ignored, but a
        `sample_rate` other than 16000 is refused rather than rendered at 16 kHz,
        and `zones` other than the integer 4 rather than rendered with 4."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidManifest(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidManifest("a manifest must be a JSON object")
        if (rate := doc.get("sample_rate", DEFAULT_SAMPLE_RATE)) != DEFAULT_SAMPLE_RATE:
            raise InvalidManifest(f"manifest sample_rate {rate!r}: scenes are 16 kHz")
        if type(zones := doc.get("zones", ZONES)) is not int or zones != ZONES:
            raise InvalidManifest(f"manifest zones {zones!r}: a cabin has {ZONES} zones")
        try:
            speakers = [
                SpeakerEntry(zone=_typed(s["zone"], int, "zone"),
                             speech=_typed(s["speech"], str, "speech"),
                             irs=tuple(_typed(p, str, "IR") for p in s["irs"]),
                             gain=_finite(s.get("gain", 1.0), "gain"))
                for s in doc.get("speakers", [])
            ]
            background = doc.get("background")
            if background is not None:
                background = NoiseEntry(file=_typed(background["file"], str, "file"),
                                        snr_db=float(background["snr_db"]))
            transients = [
                NoiseEntry(file=_typed(t["file"], str, "file"), snr_db=float(t["snr_db"]),
                           onset_seconds=_finite(t.get("onset_seconds", 0.0),
                                                 "onset_seconds"))
                for t in doc.get("transients", [])
            ]
        except KeyError as exc:
            raise InvalidManifest(f"manifest is missing required field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidManifest(f"malformed manifest: {exc}") from exc
        return cls(speakers=speakers, background=background, transients=transients)


@dataclass
class SceneRender:
    """Rendered scene: mixture, per-zone labels, and the exact decomposition."""

    mixture: np.ndarray        # (Z, L)
    speech_labels: np.ndarray  # (Z, L): zone z's image at microphone z (zeros if empty)
    noise_label: np.ndarray    # (Z, L): total noise at each microphone
    zone_images: np.ndarray    # (Z_zone, Z_mic, L): full per-zone multichannel images

    @property
    def occupied_zones(self) -> list[int]:
        return [z for z in range(self.zone_images.shape[0])
                if np.any(self.zone_images[z])]


def render_reverberant(speech: np.ndarray, irs: list[ImpulseResponse]) -> np.ndarray:
    """Convolve one utterance with per-microphone IRs -> (Z, L) image.

    Channels are zero-padded to the longest convolution so the lengths agree.
    """
    speech = np.asarray(speech, dtype=np.float64)
    if speech.ndim != 1 or speech.size == 0:
        raise InvalidInput("speech must be a non-empty mono waveform")
    if not irs:
        raise InvalidInput("at least one impulse response is required")
    out_len = speech.shape[0] + max(ir.taps.shape[0] for ir in irs) - 1
    image = np.zeros((len(irs), out_len))
    for m, ir in enumerate(irs):
        conv = fftconvolve(speech, ir.taps)
        image[m, : conv.shape[0]] = conv
    return image


def _snr_factor(signal: np.ndarray, noise: np.ndarray, target_snr_db: float) -> float:
    """The gain that puts `noise` `target_snr_db` below `signal` in mean-square power."""
    p_signal = float(np.mean(np.asarray(signal, dtype=np.float64) ** 2))
    p_noise = float(np.mean(np.asarray(noise, dtype=np.float64) ** 2))
    if p_signal <= 0.0:
        raise InvalidInput("signal is silent; SNR undefined")
    if p_noise <= 0.0:
        raise InvalidInput("noise is silent; cannot scale")
    return np.sqrt(p_signal / (p_noise * 10.0 ** (target_snr_db / 10.0)))


def _fit_noise(noise: np.ndarray, length: int) -> np.ndarray:
    """Tile/trim a mono or multichannel noise recording to (ZONES, length)."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim == 1:
        noise = noise[None, :]
    if noise.shape[0] == 1:
        noise = np.broadcast_to(noise, (ZONES, noise.shape[1])).copy()
    if noise.shape[0] != ZONES:
        raise InvalidInput(f"noise has {noise.shape[0]} channels, expected 1 or {ZONES}")
    if noise.shape[1] == 0:
        raise InvalidInput("noise recording is empty")
    reps = int(np.ceil(length / noise.shape[1]))
    return np.tile(noise, (1, reps))[:, :length]


def _check_float32(signal: np.ndarray) -> None:
    # a scene is written as float32 WAVs; NaN fails the comparison too
    if not max(signal.max(), -signal.min()) <= np.finfo(np.float32).max:
        raise InvalidInput("the scene's mixture exceeds float32's range (is a gain too large?)")


def mix_scene_signals(
    speakers: list[tuple[int, np.ndarray, list[ImpulseResponse], float]],
    background: np.ndarray | None = None,
    background_snr_db: float | None = None,
    transients: list[tuple[np.ndarray, int, float]] | None = None,
) -> SceneRender:
    """Render a scene from in-memory signals.

    Args:
        speakers: (zone, mono speech, per-mic IRs, gain) per speaker.
        background: optional noise waveform, mono or (Z, n); scaled to
            `background_snr_db` against the speech sum at microphone 1.
        transients: optional (waveform, onset_samples, snr_db) events.

    Returns:
        SceneRender with exact additivity: mixture == sum(zone images) + noise.
    """
    if not speakers:
        raise InvalidInput("a scene needs at least one speaker")
    seen = set()
    for zone, _, irs, _ in speakers:
        if not 0 <= zone < ZONES:
            raise InvalidManifest(f"speaker zone {zone} outside [0, {ZONES})")
        if zone in seen:
            raise InvalidManifest(f"two speakers assigned to zone {zone}")
        seen.add(zone)
        if len(irs) != ZONES:
            raise InvalidInput(f"speaker in zone {zone}: expected {ZONES} IRs, got {len(irs)}")

    images = []
    for zone, speech, irs, gain in speakers:
        images.append((zone, gain * render_reverberant(speech, irs)))
    length = max(img.shape[1] for _, img in images)

    zone_images = np.zeros((ZONES, ZONES, length))
    for zone, img in images:
        zone_images[zone, :, : img.shape[1]] = img
    speech_sum = zone_images.sum(axis=0)
    _check_float32(speech_sum)  # before `_snr_factor` squares it

    noise_total = np.zeros((ZONES, length))
    reference = speech_sum[0]
    if background is not None:
        if background_snr_db is None:
            raise InvalidInput("background noise requires a target SNR")
        fitted = _fit_noise(background, length)
        # one common factor for all channels, chosen on the reference mic
        noise_total += _snr_factor(reference, fitted[0], background_snr_db) * fitted
    for event in transients or []:
        waveform, onset, snr_db = event
        waveform = np.asarray(waveform, dtype=np.float64)
        if waveform.ndim != 1:
            raise InvalidInput("transient events must be mono")
        if not (0 <= onset < length):
            raise InvalidInput(f"transient onset {onset} outside the scene")
        scaled = _snr_factor(reference, waveform, snr_db) * waveform
        end = min(length, onset + scaled.shape[0])
        noise_total[:, onset:end] += scaled[: end - onset]

    mixture = speech_sum + noise_total
    _check_float32(mixture)
    speech_labels = np.zeros((ZONES, length))
    for zone, _ in images:
        speech_labels[zone] = zone_images[zone, zone]
    return SceneRender(
        mixture=mixture,
        speech_labels=speech_labels,
        noise_label=noise_total,
        zone_images=zone_images,
    )


def mix_scene(manifest: SceneManifest, base_dir=".",
              irs_by_zone: dict[int, list[ImpulseResponse]] | None = None) -> SceneRender:
    """Load the manifest's files and render the scene.

    `irs_by_zone` optionally overrides each speaker's IR assignment (e.g. an
    assignment drawn with `mix_ir_sets`); manifest IR paths are ignored for
    zones present in the mapping.
    """
    manifest.validate()
    base = Path(base_dir)  # `base / path` keeps an absolute path as it is
    speakers = []
    for entry in manifest.speakers:
        speech = _read_mono(base / entry.speech, "a speech WAV")
        if irs_by_zone is not None and entry.zone in irs_by_zone:
            irs = irs_by_zone[entry.zone]
        else:
            irs = [read_ir(base / p) for p in entry.irs]
        speakers.append((entry.zone, speech, irs, entry.gain))

    background = None
    background_snr = None
    if manifest.background is not None:
        background = read_wav(base / manifest.background.file)
        background_snr = manifest.background.snr_db

    transients = []
    for t in manifest.transients:
        onset = int(round(t.onset_seconds * DEFAULT_SAMPLE_RATE))
        transients.append((_read_mono(base / t.file, "a transient WAV"), onset, t.snr_db))

    return mix_scene_signals(
        speakers, background=background, background_snr_db=background_snr,
        transients=transients,
    )


def oracle_masks(render: SceneRender, stft_cfg: StftConfig = StftConfig()):
    """Ideal-ratio speech masks and noise masks from a rendered scene.

    The speech mask for zone z is the power ratio |X|^2 / (|X|^2 + |Y - X|^2)
    at the zone's reference microphone, where X is the zone's reverberant
    image; the noise mask is |V|^2 / |Y|^2 clipped to [0, 1]. Empty zones get
    an exactly zero speech mask.

    Returns:
        (mixture spectrogram (Z, T, F), MaskPair) -- ready for the beamformer.
    """
    mixture_spec = analyze(render.mixture, stft_cfg)
    noise_spec = analyze(render.noise_label, stft_cfg)
    eps = 1e-12
    speech = np.zeros(mixture_spec.shape)
    noise = np.zeros(mixture_spec.shape)
    for z in range(ZONES):
        image = analyze(render.zone_images[z, z], stft_cfg)[0]
        target_power = image.real**2 + image.imag**2
        residual = mixture_spec[z] - image
        residual_power = residual.real**2 + residual.imag**2
        speech[z] = target_power / (target_power + residual_power + eps)
        mix_power = mixture_spec[z].real**2 + mixture_spec[z].imag**2
        noise_power = noise_spec[z].real**2 + noise_spec[z].imag**2
        noise[z] = np.clip(noise_power / (mix_power + eps), 0.0, 1.0)
    return mixture_spec, MaskPair(speech, noise)


# ---------------------------------------------------------------------------
# Seeded cabin-scene sampling (experiment scaffolding)
# ---------------------------------------------------------------------------

# Simulated scenes run at 16 kHz, the rate `cabin_room` simulates IRs at.
# 1024 taps (64 ms) hold every arrival of the order-3 cabin lattice; the
# noise source sits low in the front-left footwell, away from every seat;
# speakers lean up to 5 cm from their seat on each axis; half the envelope
# nodes of an utterance are silent, so overlapping speakers leave gaps.
_SCENE_IR_LENGTH = 1024
_NOISE_POSITION = (0.9, 0.12, 0.45)
_POSTURE_JITTER = 0.05
_PAUSE_PROBABILITY = 0.5


def _synthetic_utterance(rng: np.random.Generator, num_samples: int) -> np.ndarray:
    """Speech-shaped test signal: low-pass-tilted noise under a bursty envelope.

    The envelope interpolates ~4 Hz random nodes, half of which are forced
    to zero so utterances have real pauses (sparser overlap).
    """
    if num_samples < 2:
        raise InvalidInput("utterance needs at least 2 samples")
    noise = rng.standard_normal(num_samples)
    tilted = lfilter([1.0], [1.0, -0.92], noise)
    n_nodes = max(int(num_samples / DEFAULT_SAMPLE_RATE * 4), 2)  # ~4 Hz syllable rate
    nodes = rng.uniform(0.0, 1.0, size=n_nodes)
    nodes[rng.random(n_nodes) < _PAUSE_PROBABILITY] = 0.0
    if not np.any(nodes):
        nodes[rng.integers(n_nodes)] = 1.0
    envelope = np.interp(np.linspace(0, n_nodes - 1, num_samples),
                         np.arange(n_nodes), nodes)
    out = tilted * envelope
    return 0.5 * out / np.max(np.abs(out))


def sample_cabin_scene(
    rng: np.random.Generator,
    speaker_zones: list[int],
    duration_seconds: float = 6.0,
    background_snr_db: float = 5.0,
    source_positions: dict[int, tuple[float, float, float]] | None = None,
) -> SceneRender:
    """Simulate a seeded 16 kHz cabin scene end to end (sources, IRs, noise).

    Each speaker gets a synthetic utterance rendered through image-source
    IRs of the default cabin (`cabin_room`'s reflection and order, 1024
    taps) from its seat, jittered by up to 5 cm per axis, or from an
    explicit position in `source_positions` (e.g. a zone boundary). The
    background is a noise point source in the front-left footwell rendered
    through its own IRs and scaled to `background_snr_db` at microphone 1.
    """
    num_samples = int(duration_seconds * DEFAULT_SAMPLE_RATE)
    speakers = []
    for zone in speaker_zones:
        if source_positions and zone in source_positions:
            position = source_positions[zone]
        else:
            position = seat_position(zone, rng, jitter=_POSTURE_JITTER)
        irs = simulate_ism_all(cabin_room(position, ir_length=_SCENE_IR_LENGTH))
        speech = _synthetic_utterance(rng, num_samples)
        speakers.append((zone, speech, irs, 1.0))

    noise_irs = simulate_ism_all(cabin_room(_NOISE_POSITION, ir_length=_SCENE_IR_LENGTH))
    noise = render_reverberant(rng.standard_normal(num_samples), noise_irs)

    return mix_scene_signals(speakers, background=noise, background_snr_db=background_snr_db)
