"""Streaming mask-driven MVDR beamformer.

Per zone i and frequency bin f, two Z x Z Hermitian spatial covariances are
tracked with exponential forgetting:

    speech[i,f] <- lam * speech[i,f] + ms[i,f] * y y^H
    noise[i,f]  <- lam * noise[i,f]  + clip(sum_{j!=i} ms[j,f] + mn[i,f], 0, 1) * y y^H

and the beamformer weight for zone i is

    w = loaded_noise^-1 @ speech @ e_i / trace(loaded_noise^-1 @ speech)

with diagonal loading `loading * trace/Z * I` applied to the noise
covariance. A Cholesky factorization checks that the loaded covariance is
positive definite, and a linear solve, with no explicit inverse, forms
`loaded_noise^-1 @ speech`. A degenerate trace (or a non-positive-definite
covariance) falls back to passthrough of the reference microphone, which
for zone i is microphone i.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericalError
from .model.network import MaskPair

logger = logging.getLogger(__name__)

_TRACE_EPS = 1e-10


def _check_forgetting_loading(forgetting: float, loading: float) -> None:
    # written so that NaN fails both checks
    if not (0.0 < forgetting <= 1.0):
        raise InvalidInput(f"forgetting factor must be in (0, 1], got {forgetting}")
    if not (0.0 <= loading < np.inf):
        raise InvalidInput(f"diagonal loading must be finite and >= 0, got {loading}")


@dataclass
class MvdrConfig:
    forgetting: float = 1.0       # lam = 1.0 accumulates; < 1 forgets geometrically
    loading: float = 1e-4         # diagonal loading relative to mean eigenvalue
    recompute_every: int = 1      # weight refresh cadence in frames

    def __post_init__(self):
        _check_forgetting_loading(self.forgetting, self.loading)
        if self.recompute_every < 1:
            raise InvalidInput("recompute cadence must be >= 1")


@dataclass
class BeamformerState:
    """Running spatial covariances for all zones; one stream, single-threaded."""

    zones: int
    bins: int
    forgetting: float = 1.0
    loading: float = 1e-4
    speech_cov: np.ndarray = field(init=False)  # (zones, bins, Z, Z) Hermitian
    noise_cov: np.ndarray = field(init=False)
    frame_count: int = 0

    def __post_init__(self):
        _check_forgetting_loading(self.forgetting, self.loading)
        shape = (self.zones, self.bins, self.zones, self.zones)
        self.speech_cov = np.zeros(shape, dtype=np.complex128)
        self.noise_cov = np.zeros(shape, dtype=np.complex128)


def update_covariances(state: BeamformerState, snapshot: np.ndarray,
                       speech_mask: np.ndarray, noise_mask: np.ndarray) -> BeamformerState:
    """Fold one frame into the running covariances.

    Args:
        state: mutated in place and returned.
        snapshot: (Z, F) complex STFT frame.
        speech_mask: (Z, F) per-zone speech mask values in [0, 1].
        noise_mask: (Z, F) per-zone noise mask values in [0, 1].

    Raises:
        InvalidInput: a mis-shaped or non-finite snapshot, or a mask outside
            [0, 1]; the state is left untouched.
    """
    snapshot = np.asarray(snapshot)
    speech_mask = np.asarray(speech_mask, dtype=np.float64)
    noise_mask = np.asarray(noise_mask, dtype=np.float64)
    z, f = state.zones, state.bins
    if snapshot.shape != (z, f):
        raise InvalidInput(f"snapshot shape {snapshot.shape} != {(z, f)}")
    if not np.isfinite(snapshot).all():
        raise InvalidInput("snapshot contains non-finite values")
    if speech_mask.shape != (z, f) or noise_mask.shape != (z, f):
        raise InvalidInput("mask shapes must be (zones, bins)")
    for name, mask in (("speech", speech_mask), ("noise", noise_mask)):
        if not (mask.min() >= 0.0 and mask.max() <= 1.0):  # NaN fails too
            raise InvalidInput(f"{name} mask values outside [0, 1] or NaN")

    # (F, Z, Z) rank-1 outer products of the snapshot
    outer = np.einsum("af,bf->fab", snapshot, np.conj(snapshot))
    interference = np.clip(
        speech_mask.sum(axis=0, keepdims=True) - speech_mask + noise_mask, 0.0, 1.0
    )
    # real-weighted rank-1 updates keep both covariances exactly Hermitian
    lam = state.forgetting
    state.speech_cov = lam * state.speech_cov + speech_mask[:, :, None, None] * outer[None]
    state.noise_cov = lam * state.noise_cov + interference[:, :, None, None] * outer[None]
    state.frame_count += 1
    return state


def _loaded(noise_cov: np.ndarray, loading: float) -> np.ndarray:
    """Diagonal loading scaled by the per-bin mean eigenvalue (trace / Z)."""
    z = noise_cov.shape[-1]
    trace = np.trace(noise_cov, axis1=-2, axis2=-1).real
    eye = np.eye(z)
    return noise_cov + (loading * np.maximum(trace, _TRACE_EPS) / z)[:, None, None] * eye


def compute_weights(state: BeamformerState, zone: int) -> np.ndarray:
    """Per-bin MVDR weight vectors for one zone.

    Returns:
        (bins, Z) complex weights; bins with degenerate statistics get the
        one-hot passthrough toward the zone's reference microphone.

    Raises:
        NumericalError: the loaded noise covariance was not invertible.
    """
    if state.frame_count < 1:
        raise InvalidInput("compute_weights requires at least one processed frame")
    if not (0 <= zone < state.zones):
        raise InvalidInput(f"zone {zone} out of range")
    loaded = _loaded(state.noise_cov[zone], state.loading)
    try:
        np.linalg.cholesky(loaded)  # raises LinAlgError if any matrix is not PD
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"noise covariance for zone {zone} not invertible despite loading"
        ) from exc
    ratio = np.linalg.solve(loaded, state.speech_cov[zone])  # (F, Z, Z)
    trace = np.trace(ratio, axis1=-2, axis2=-1)    # (F,)
    weights = np.zeros((state.bins, state.zones), dtype=np.complex128)
    ok = np.abs(trace) >= _TRACE_EPS
    weights[ok] = ratio[ok, :, zone] / trace[ok, None]
    weights[~ok, zone] = 1.0
    return weights


def apply_weights(weights: np.ndarray, snapshot: np.ndarray) -> np.ndarray:
    """Beamform one frame: X[f] = w[f]^H y[f].

    Args:
        weights: (bins, Z) complex.
        snapshot: (Z, bins) complex.

    Returns:
        (bins,) complex beamformed frame.
    """
    return np.einsum("fz,zf->f", np.conj(weights), snapshot)


def separate_stream(spec: np.ndarray, masks: MaskPair,
                    cfg: MvdrConfig = MvdrConfig()) -> np.ndarray:
    """Run the streaming beamformer over a whole spectrogram.

    Strictly causal frame loop: covariances are updated with frame t before
    the frame-t weights are computed, and weights are refreshed every
    `cfg.recompute_every` frames. Prefix inputs therefore reproduce prefix
    outputs bit-exactly.

    Args:
        spec: (Z, T, F) complex mixture spectrogram.
        masks: speech/noise masks of the same shape.

    Returns:
        (Z, T, F) complex per-zone output spectrograms.
    """
    spec = np.asarray(spec)
    if spec.ndim != 3:
        raise InvalidInput("spectrogram must be (Z, T, F)")
    z, frames, bins = spec.shape
    if masks.shape != spec.shape:
        raise InvalidInput(f"mask shape {masks.shape} != spectrogram shape {spec.shape}")

    if z == 1:
        return spec.copy()  # scalar MVDR cancels exactly

    state = BeamformerState(zones=z, bins=bins,
                            forgetting=cfg.forgetting, loading=cfg.loading)
    out = np.empty_like(spec)
    weights = [None] * z
    fallback_zones = set()
    for t in range(frames):
        snapshot = spec[:, t, :]
        update_covariances(state, snapshot, masks.speech[:, t, :], masks.noise[:, t, :])
        refresh = t % cfg.recompute_every == 0
        for zone in range(z):
            if refresh:
                try:
                    weights[zone] = compute_weights(state, zone)
                except NumericalError:
                    if zone not in fallback_zones:
                        logger.warning(
                            "zone %d: covariance inversion failed at frame %d, "
                            "passing reference microphone through", zone, t)
                        fallback_zones.add(zone)
                    passthrough = np.zeros((bins, z), dtype=np.complex128)
                    passthrough[:, zone] = 1.0
                    weights[zone] = passthrough
            out[zone, t, :] = apply_weights(weights[zone], snapshot)
    return out
