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

The beamformer is solved once per frame: `update_covariances` is what writes
the covariances, and the first `compute_weights` call after it solves every
zone and keeps the result on the state for the frame's other zones. A caller
that writes the covariances directly starts a new `BeamformerState`.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericalError
from .model.network import MaskPair

logger = logging.getLogger(__name__)

_TRACE_EPS = 1e-10


@dataclass(frozen=True)
class MvdrConfig:
    forgetting: float = 1.0       # lam = 1.0 accumulates; < 1 forgets geometrically
    loading: float = 1e-4         # diagonal loading relative to mean eigenvalue

    def __post_init__(self):
        # written so that NaN fails both checks
        if not (0.0 < self.forgetting <= 1.0):
            raise InvalidInput(f"forgetting factor must be in (0, 1], got {self.forgetting}")
        if not (0.0 <= self.loading < np.inf):
            raise InvalidInput(
                f"diagonal loading must be finite and >= 0, got {self.loading}")


@dataclass
class BeamformerState:
    """Running spatial covariances for all zones; one stream, single-threaded.

    A new state's covariances are zero, which `compute_weights` answers as
    any zero statistics.

    Only `update_covariances` writes the covariances once a stream has begun.
    It also drops the frame's all-zone solve that `compute_weights` keeps, so
    covariances written in place after a solve are not read again until the
    next update; a caller that writes them directly starts a new state.
    """

    zones: int
    bins: int
    forgetting: float = MvdrConfig.forgetting
    loading: float = MvdrConfig.loading
    speech_cov: np.ndarray = field(init=False)  # (zones, bins, Z, Z) Hermitian
    noise_cov: np.ndarray = field(init=False)
    # (weights, positive_definite) of `_solve` since the last update
    _solved: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        MvdrConfig(self.forgetting, self.loading)  # raises on a value MvdrConfig rejects
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
    state._solved = None
    # real-weighted rank-1 updates keep both covariances exactly Hermitian
    for cov, mask in ((state.speech_cov, speech_mask), (state.noise_cov, interference)):
        cov *= state.forgetting
        cov += mask[:, :, None, None] * outer
    return state


def _solve(state: BeamformerState) -> tuple[np.ndarray, np.ndarray]:
    """MVDR weights for every zone, all bins at once, in numpy array ops.

    Each loaded noise covariance is factored as L L^H by the Cholesky
    recursion, one array op per matrix entry over the whole (zones, bins)
    plane; the loading is added to the pivots. The Z columns of the speech
    covariance are then forward- and back-substituted, which gives
    loaded_noise^-1 @ speech.

    Returns:
        weights: (zones, bins, Z) complex; every bin of a zone that is not
            positive definite, and each other bin with a degenerate trace,
            gets the one-hot passthrough toward the zone's reference
            microphone.
        positive_definite: (zones,) bool; False where a pivot of any bin was
            <= 0 or NaN.
    """
    z = state.zones
    # entry-major views: noise[i, j] is a (zones, bins) plane, speech[i] (Z, zones, bins)
    noise = state.noise_cov.transpose(2, 3, 0, 1)
    speech = state.speech_cov.transpose(2, 3, 0, 1)
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
    # zone m's weights are column m of its ratio: (zones, bins, Z)
    zones = np.arange(z)
    column = np.stack([row[zones, zones] for row in rows], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = column / ratio_trace[..., None]
    positive_definite = ~failed.any(axis=1)
    ok = (np.abs(ratio_trace) >= _TRACE_EPS) & positive_definite[:, None]  # NaN fails too
    if not ok.all():
        weights[~ok] = np.eye(z)[np.nonzero(~ok)[0]]
    return weights, positive_definite


def compute_weights(state: BeamformerState, zone: int) -> np.ndarray:
    """Per-bin MVDR weight vectors for one zone.

    The first call after `update_covariances` solves every zone at once and
    keeps the result on the state; the frame's other zones read it. Callers
    ask for all zones each frame, which then costs one solve; a caller that
    asks for a single zone per frame pays the all-zone solve for it (about
    twice a one-zone solve at four zones).

    Returns:
        (bins, Z) complex weights, read-only; bins with degenerate statistics,
        such as a new state's zero covariances, get the one-hot passthrough
        toward the zone's reference microphone.

    Raises:
        InvalidInput: `zone` not an integer in [0, zones).
        NumericalError: the loaded noise covariance was not positive definite
            (a new state's, at loading 0).
    """
    try:
        zone = operator.index(zone)
    except TypeError:
        raise InvalidInput(f"zone must be an integer, got {zone!r}") from None
    if not (0 <= zone < state.zones):
        raise InvalidInput(f"zone {zone} out of range")
    if state._solved is None:
        weights, positive_definite = _solve(state)
        weights.flags.writeable = False
        state._solved = weights, positive_definite
    weights, positive_definite = state._solved
    if not positive_definite[zone]:
        raise NumericalError(
            f"noise covariance for zone {zone} not invertible despite loading")
    return weights[zone]


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
        weights, positive_definite = _solve(state)
        for zone in np.flatnonzero(~positive_definite):
            if zone not in fallback_zones:
                logger.warning(
                    "zone %d: covariance inversion failed at frame %d, "
                    "passing reference microphone through", zone, t)
                fallback_zones.add(zone)
        out[:, t, :] = apply_weights(weights, snapshot)
    return out
