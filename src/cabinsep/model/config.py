"""Mask-network configuration, S/M/L presets, and key/value text round trip."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from ..errors import InvalidConfig

# variant -> (full-sub modules N, TAC compression d, conformer layers per module)
VARIANT_PRESETS = {
    "S": (1, 4, 4),
    "M": (2, 4, 2),
    "L": (3, 2, 2),
}


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the mask-estimation network.

    `bins` and `hop_seconds` tie the network to the STFT front-end
    (defaults match the 512/256 @ 16 kHz framing).
    """

    zones: int = 4
    bins: int = 257
    n_full_sub: int = 1
    embed_channels: int = 24          # C: channels of the refined embedding
    encoder_channels: int = 8         # hidden width of each of the three encoders
    fullband_hidden: int = 96         # recurrent width of the full-band stage
    subband_hidden: int = 16          # H: per-bin width of the sub-band stage
    tac_compression: int = 4          # d: channel compression in the TAC
    conformer_layers: int = 4
    attn_heads: int = 4
    ff_dim: int = 8                   # conformer feed-forward width (H/2)
    time_skip: bool = True            # stride-2 frame subsampling before the TAC
    chunk_lookback_seconds: float | None = None
    hop_seconds: float = 0.016
    lps_floor: float = 1e-10
    ipd_pair: tuple[int, int] = (0, 1)  # front-row microphones
    variant: str | None = None

    def __post_init__(self):
        if self.zones < 1:
            raise InvalidConfig("zones must be >= 1")
        if self.bins < 2:
            raise InvalidConfig("bins must be >= 2")
        if self.n_full_sub < 1:
            raise InvalidConfig("n_full_sub must be >= 1")
        if self.embed_channels % self.tac_compression != 0:
            raise InvalidConfig(
                f"embed_channels ({self.embed_channels}) must be divisible by "
                f"tac_compression ({self.tac_compression})"
            )
        if self.subband_hidden % self.attn_heads != 0:
            raise InvalidConfig("subband_hidden must be divisible by attn_heads")
        if self.chunk_lookback_seconds is not None and (
                self.chunk_lookback_seconds <= 0 or self.lookback_frames < 1):
            raise InvalidConfig("chunk_lookback_seconds must span at least one hop when set")
        if self.variant is not None:
            preset = VARIANT_PRESETS.get(self.variant)
            if preset is None:
                raise InvalidConfig(f"unknown variant {self.variant!r}")
            if (self.n_full_sub, self.tac_compression, self.conformer_layers) != preset:
                raise InvalidConfig(
                    f"variant {self.variant} requires (n_full_sub, tac_compression, "
                    f"conformer_layers) = {preset}"
                )

    @property
    def lookback_frames(self) -> int | None:
        """Attention window in frames (None = unlimited causal past)."""
        if self.chunk_lookback_seconds is None:
            return None
        return int(self.chunk_lookback_seconds / self.hop_seconds)

    def fingerprint(self) -> str:
        """Stable short hash over the architecture-defining fields.

        `chunk_lookback_seconds` is cleared first: it bounds attention at run
        time and leaves the weights' meaning unchanged.
        """
        text = replace(self, chunk_lookback_seconds=None).to_text()
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def to_text(self) -> str:
        """Serialize as 'key = value' lines."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        """Parse the key/value format written by `to_text`."""
        raw = parse_kv_text(text)
        kwargs = {}
        type_map = {f.name: f for f in fields(cls)}
        for key, value in raw.items():
            if key not in type_map:
                raise InvalidConfig(f"unknown model config key {key!r}")
            kwargs[key] = _coerce(key, value)
        return cls(**kwargs)


def _coerce(key: str, value: str):
    if value == "None":
        return None
    if key == "ipd_pair":
        parts = value.split(",")
        return tuple(int(p) for p in parts)
    if key == "time_skip":
        return value == "True"
    if key == "variant":
        return value
    if key in ("chunk_lookback_seconds", "hop_seconds", "lps_floor"):
        return float(value)
    return int(value)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse 'key = value' lines, ignoring blanks and '#' comments."""
    result = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        result[key.strip()] = value.strip()
    return result


def variant_config(variant: str, **overrides) -> ModelConfig:
    """Build the S/M/L preset configuration."""
    preset = VARIANT_PRESETS.get(variant)
    if preset is None:
        raise InvalidConfig(f"unknown variant {variant!r}, expected one of S/M/L")
    n_full_sub, tac_compression, conformer_layers = preset
    cfg = ModelConfig(
        n_full_sub=n_full_sub,
        tac_compression=tac_compression,
        conformer_layers=conformer_layers,
        variant=variant,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
