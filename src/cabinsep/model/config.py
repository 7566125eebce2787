"""Mask-network configuration, S/M/L presets, and the config fingerprint."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

from ..errors import InvalidConfig
from ..features import DEFAULT_SAMPLE_RATE, FFT_SIZE, IPD_PAIR, LPS_FLOOR, ZONES

# variant -> (full-sub modules N, TAC compression d, conformer layers per module)
VARIANT_PRESETS = {
    "S": (1, 4, 4),
    "M": (2, 4, 2),
    "L": (3, 2, 2),
}

# longest attention lookback: each conformer layer allocates its two rings
# whole (617 MB of address space each at 600 s, unbacked until written), and
# a far larger ring cannot be allocated at all; attention over 600 s of
# frames costs tens of times the 16 ms hop, and None covers longer spans
_MAX_LOOKBACK_SECONDS = 600.0


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the mask-estimation network.

    A caller sets `chunk_lookback_seconds` and `variant`. The S/M/L variants
    differ only in `n_full_sub`, `tac_compression` and `conformer_layers`,
    which follow from `variant` through `VARIANT_PRESETS`; every other width
    is a class constant, and so is `time_skip`: every variant runs the TAC on
    frames 0, 2, 4, ... only. `bins` and `hop_seconds` are those of the one
    STFT framing (`FFT_SIZE` points at `DEFAULT_SAMPLE_RATE`, 50 % overlap).
    """

    zones: ClassVar[int] = ZONES
    bins: ClassVar[int] = FFT_SIZE // 2 + 1
    n_full_sub: int = field(init=False)
    embed_channels: ClassVar[int] = 24    # C: channels of the refined embedding
    encoder_channels: ClassVar[int] = 8   # hidden width of each of the three encoders
    fullband_hidden: ClassVar[int] = 96   # recurrent width of the full-band stage
    subband_hidden: ClassVar[int] = 16    # H: per-bin width of the sub-band stage
    tac_compression: int = field(init=False)  # d: channel compression in the TAC
    conformer_layers: int = field(init=False)
    attn_heads: ClassVar[int] = 4
    ff_dim: ClassVar[int] = 8             # conformer feed-forward width (H/2)
    time_skip: ClassVar[bool] = True      # stride-2 frame subsampling before the TAC
    chunk_lookback_seconds: float | None = None
    hop_seconds: ClassVar[float] = FFT_SIZE // 2 / DEFAULT_SAMPLE_RATE
    lps_floor: ClassVar[float] = LPS_FLOOR
    ipd_pair: ClassVar[tuple[int, int]] = IPD_PAIR  # front-row microphones
    variant: str = "S"

    def __post_init__(self):
        preset = VARIANT_PRESETS.get(self.variant)
        if preset is None:
            raise InvalidConfig(
                f"unknown variant {self.variant!r}, expected one of {'/'.join(VARIANT_PRESETS)}")
        for name, value in zip(("n_full_sub", "tac_compression", "conformer_layers"), preset):
            object.__setattr__(self, name, value)
        if self.chunk_lookback_seconds is not None and not (
                0 < self.chunk_lookback_seconds <= _MAX_LOOKBACK_SECONDS
                and self.lookback_frames >= 1):
            raise InvalidConfig(
                f"chunk_lookback_seconds must span at least one hop and at most "
                f"{_MAX_LOOKBACK_SECONDS:g} s when set, got {self.chunk_lookback_seconds}")

    @property
    def lookback_frames(self) -> int | None:
        """Attention window in frames (None = unlimited causal past)."""
        if self.chunk_lookback_seconds is None:
            return None
        return int(self.chunk_lookback_seconds / self.hop_seconds)

    def kv_cache_bytes(self, frames: int) -> int:
        """Bytes of the float32 keys and values that every conformer layer
        attends to after `frames` frames: min(frames, lookback) of each."""
        span = frames if self.lookback_frames is None else min(frames, self.lookback_frames)
        layers = self.n_full_sub * self.conformer_layers
        return 2 * layers * span * self.bins * self.subband_hidden * 4

    def fingerprint(self) -> str:
        """Stable short hash over the architecture-defining values.

        Hashes one `name = value` line per field and class constant, in
        declaration order (a tuple as `a,b`). `chunk_lookback_seconds` is
        written as None: it bounds attention at run time and leaves the
        weights' meaning unchanged. `time_skip`, a class constant, keeps its
        line, so every container written since it was a field still matches.
        """
        lines = []
        for name in type(self).__annotations__:
            value = None if name == "chunk_lookback_seconds" else getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{name} = {value}\n")
        return hashlib.sha256("".join(lines).encode()).hexdigest()[:16]


def variant_config(variant: str, **overrides) -> ModelConfig:
    """Build the S/M/L preset configuration."""
    return ModelConfig(variant=variant, **overrides)
