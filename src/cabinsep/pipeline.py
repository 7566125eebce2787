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
    `weights` are (weights may be None). Non-finite samples are rejected.
    """
    wave = as_multichannel(wave)
    n_chan, n_samples = wave.shape
    if n_samples == 0:
        raise InvalidInput("empty input waveform")
    if not np.isfinite(wave).all():
        raise InvalidInput("input waveform holds non-finite samples")
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
    zones = synthesize(out_spec, length=n_samples)
    return SeparationResult(zones=zones, spectrogram=out_spec)
