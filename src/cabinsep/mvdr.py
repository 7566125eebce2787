"""Streaming mask-driven MVDR beamformer.

Per zone i and frequency bin f, two Z x Z Hermitian spatial covariances are
tracked with exponential forgetting:

    speech[i,f] <- lam * speech[i,f] + ms[i,f] * y y^H
    noise[i,f]  <- lam * noise[i,f]  + clip(sum_{j!=i} ms[j,f] + mn[i,f], 0, 1) * y y^H

and the beamformer weight for zone i is

    w = loaded_noise^-1 @ speech @ e_i / trace(loaded_noise^-1 @ speech)

with diagonal loading `loading * trace/Z * I` applied to the noise
covariance (the trace-normalized MVDR of Souden, Benesty and Affes, IEEE
TASLP 2010). `_solve` factors every loaded noise covariance as L L^H in
numpy array ops over all zones and bins at once, and forward- and
back-substitutes the speech covariance through L, with no explicit inverse
and no LAPACK call. A pivot <= 0 or NaN marks the zone's covariance as not
positive definite, and the zone falls back to passthrough of its reference
microphone, which for zone i is microphone i; so does each bin with a
degenerate trace.
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

    def __post_init__(self):
        _check_forgetting_loading(self.forgetting, self.loading)


@dataclass
class BeamformerState:
    """Running spatial covariances for all zones; one stream, single-threaded."""

    zones: int
    bins: int
    forgetting: float = MvdrConfig.forgetting
    loading: float = MvdrConfig.loading
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
    for cov, mask in ((state.speech_cov, speech_mask), (state.noise_cov, interference)):
        cov *= state.forgetting
        cov += mask[:, :, None, None] * outer
    state.frame_count += 1
    return state


def _solve(state: BeamformerState, zones: slice) -> tuple[np.ndarray, np.ndarray]:
    """MVDR weights for the given zones, all bins at once, in numpy array ops.

    Each loaded noise covariance is factored as L L^H by the Cholesky
    recursion, one array op per matrix entry over the whole (zones, bins)
    plane; the loading is added to the pivots. The Z columns of the speech
    covariance are then forward- and back-substituted, which gives
    loaded_noise^-1 @ speech. Every op is elementwise, so a zone's rows do
    not depend on which other zones are solved with it.

    Args:
        zones: the n zones to solve, a slice, so that the covariances are read
            through views rather than copied.

    Returns:
        weights: (n, bins, Z) complex; bins with a degenerate trace get the
            one-hot passthrough toward the zone's reference microphone. Rows
            of a zone that is not positive definite are meaningless.
        positive_definite: (n,) bool; False where a pivot of any bin was
            <= 0 or NaN.
    """
    z = state.zones
    ids = np.arange(z)[zones]
    # entry-major views: noise[i, j] is an (n, bins) plane, speech[i] (Z, n, bins)
    noise = state.noise_cov[zones].transpose(2, 3, 0, 1)
    speech = state.speech_cov[zones].transpose(2, 3, 0, 1)
    trace = sum(noise[i, i].real for i in range(z))
    load = state.loading * np.maximum(trace, _TRACE_EPS) / z
    failed = np.zeros(trace.shape, dtype=bool)
    lower = [[None] * z for _ in range(z)]
    lower_conj = [[None] * z for _ in range(z)]
    scale = [None] * z  # 1 / L[j, j]
    for j in range(z):
        pivot = noise[j, j].real + load
        for k in range(j):
            pivot -= (lower[j][k] * lower_conj[j][k]).real
        ok = pivot > 0.0  # NaN fails too
        failed |= ~ok
        # a failed pivot is replaced by 1, so it reaches neither sqrt nor 1/x
        scale[j] = (1.0 / np.sqrt(np.where(ok, pivot, 1.0))).astype(np.complex128)
        for i in range(j + 1, z):
            entry = noise[i, j]
            for k in range(j):
                entry = entry - lower[i][k] * lower_conj[j][k]
            lower[i][j] = entry * scale[j]
            lower_conj[i][j] = np.conj(lower[i][j])
    # L Y = speech, then L^H X = Y, row by row; each row holds all Z columns
    rows = [None] * z
    for i in range(z):
        row = np.ascontiguousarray(speech[i])
        for k in range(i):
            row = row - lower[i][k] * rows[k]
        rows[i] = row * scale[i]
    for i in reversed(range(z)):
        row = rows[i]
        for k in range(i + 1, z):
            row = row - lower_conj[k][i] * rows[k]
        rows[i] = row * scale[i]
    ratio_trace = sum(rows[i][i] for i in range(z))
    # zone m's weights are column ids[m] of its ratio: (n, bins, Z)
    column = np.stack([row[ids, np.arange(len(ids))] for row in rows], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = column / ratio_trace[..., None]
    ok = np.abs(ratio_trace) >= _TRACE_EPS  # a NaN trace fails too
    if not ok.all():
        weights[~ok] = np.eye(z)[ids[np.nonzero(~ok)[0]]]
    return weights, ~failed.any(axis=1)


def compute_weights(state: BeamformerState, zone: int) -> np.ndarray:
    """Per-bin MVDR weight vectors for one zone.

    Returns:
        (bins, Z) complex weights; bins with degenerate statistics get the
        one-hot passthrough toward the zone's reference microphone.

    Raises:
        NumericalError: the loaded noise covariance was not positive definite.
    """
    if state.frame_count < 1:
        raise InvalidInput("compute_weights requires at least one processed frame")
    if not (0 <= zone < state.zones):
        raise InvalidInput(f"zone {zone} out of range")
    weights, positive_definite = _solve(state, slice(zone, zone + 1))
    if not positive_definite[0]:
        raise NumericalError(
            f"noise covariance for zone {zone} not invertible despite loading")
    return weights[0]


def apply_weights(weights: np.ndarray, snapshot: np.ndarray) -> np.ndarray:
    """Beamform one frame: X[f] = w[f]^H y[f], for one zone or several.

    Args:
        weights: (..., bins, Z) complex, e.g. (bins, Z) for one zone or
            (zones, bins, Z) for all of them.
        snapshot: (Z, bins) complex.

    Returns:
        (..., bins) complex beamformed frame(s).
    """
    return np.einsum("...fz,zf->...f", np.conj(weights), snapshot)


def separate_stream(spec: np.ndarray, masks: MaskPair,
                    cfg: MvdrConfig = MvdrConfig()) -> np.ndarray:
    """Run the streaming beamformer over a whole spectrogram.

    Strictly causal frame loop: covariances are updated with frame t, then
    the frame-t weights are solved and applied. Prefix inputs therefore
    reproduce prefix outputs bit-exactly. A zone whose noise covariance
    cannot be inverted passes its reference microphone through for that
    frame; a warning is logged the first time this happens for each zone.

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
    fallback_zones = set()
    for t in range(frames):
        snapshot = spec[:, t, :]
        update_covariances(state, snapshot, masks.speech[:, t, :], masks.noise[:, t, :])
        weights, positive_definite = _solve(state, slice(None))
        for zone in np.flatnonzero(~positive_definite):
            if zone not in fallback_zones:
                logger.warning(
                    "zone %d: covariance inversion failed at frame %d, "
                    "passing reference microphone through", zone, t)
                fallback_zones.add(zone)
            weights[zone] = np.eye(z)[zone]
        out[:, t, :] = apply_weights(weights, snapshot)
    return out
