"""End-to-end separation: STFT -> mask network -> streaming MVDR -> iSTFT.

Every stage is causal in time, so a truncated input reproduces a bit-exact
prefix of the full run's output (up to the frames that are complete in
both runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import analyze, as_multichannel, synthesize
from .errors import InvalidInput
from .model import ModelConfig, ModelWeights, forward
from .mvdr import MvdrConfig, separate_stream

# 120 dB above full scale. The network squares its activations in float32
# layer norms, which overflow near an input of 1e20, while 1e16 still runs
# clean; no recording comes near this bound.
MAX_SAMPLE_MAGNITUDE = 1e6


@dataclass
class SeparationResult:
    zones: np.ndarray            # (Z, samples) per-zone waveforms
    spectrogram: np.ndarray      # (Z, T, F) beamformed output spectrogram


def separate_waveform(
    wave: np.ndarray,
    weights: ModelWeights | None,
    model_cfg: ModelConfig,
    mvdr_cfg: MvdrConfig = MvdrConfig(),
) -> SeparationResult:
    """Separate a Z-channel mixture into per-zone waveforms.

    A one-channel input passes through unchanged, whatever `model_cfg` and
    `weights` are (weights may be None). Non-finite samples, and samples
    above `MAX_SAMPLE_MAGNITUDE` in magnitude, are rejected: full scale is
    1.0, and far above it the float32 network would overflow.
    """
    wave = as_multichannel(wave)
    n_chan, n_samples = wave.shape
    if wave.size == 0:
        raise InvalidInput("empty input waveform")
    peak = max(wave.max(), -wave.min())  # NaN if any sample is NaN; no copy
    if not np.isfinite(peak):
        raise InvalidInput("input waveform holds non-finite samples")
    if peak > MAX_SAMPLE_MAGNITUDE:
        raise InvalidInput(
            f"input waveform peaks at {peak:.3g}, above {MAX_SAMPLE_MAGNITUDE:g} "
            "(120 dB above full scale)")
    if n_chan == 1:
        return SeparationResult(zones=wave.copy(), spectrogram=analyze(wave))
    if n_chan != model_cfg.zones:
        raise InvalidInput(
            f"input has {n_chan} channels but the configuration expects {model_cfg.zones}"
        )
    if weights is None:
        raise InvalidInput("multichannel separation requires model weights")

    spec = analyze(wave)
    masks = forward(spec, weights, model_cfg)
    out_spec = separate_stream(spec, masks, mvdr_cfg)
    del spec, masks  # nothing reads them again, so synthesis runs without them
    zones = synthesize(out_spec, length=n_samples)
    return SeparationResult(zones=zones, spectrogram=out_spec)
