"""Analytic multiply-accumulate accounting for the mask network.

Counts multiply-accumulates of the dense layers only; elementwise work
(activations, layer norms, softmax denominators) is excluded, which is the
usual convention for GMACs figures. Layer sizes come from the weight map
(`required_shapes`): each weight tensor with two or more dimensions costs
the product of its shape once per position it runs at. Positions are one
per frame for `blockN.fullband.*`, one per TAC frame and bin for
`blockN.tac.*` (frames 0, 2, 4, ..., as `ModelConfig.time_skip` fixes), and
one per frame and bin for everything else. Biases and layer-norm parameters
have one dimension and are skipped.

Attention cost is data-length dependent: each frame attends to
min(t+1, lookback) cached frames, so it is the one item computed by formula.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from ..errors import InvalidInput
from .config import ModelConfig
from .weights import required_shapes


@dataclass
class MacReport:
    """Per-layer MAC breakdown for processing `seconds` of audio."""

    seconds: float
    frames: int
    items: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.items.values())

    @property
    def gmacs_per_second(self) -> float:
        return self.total / self.seconds / 1e9


def count_macs(cfg: ModelConfig, seconds: float = 1.0) -> MacReport:
    """Itemized MAC count of one forward pass over `seconds` of audio."""
    if not 0 < seconds < math.inf:
        raise InvalidInput(f"seconds must be positive and finite, got {seconds}")
    fps = 1.0 / cfg.hop_seconds
    frames = int(math.ceil(seconds * fps))
    tac_frames = math.ceil(frames / 2)
    f = cfg.bins
    attention = (cfg.conformer_layers * f * 2 * cfg.subband_hidden
                 * _attention_span_sum(frames, cfg.lookback_frames))

    report = MacReport(seconds=seconds, frames=frames)
    items = report.items
    for name, shape in required_shapes(cfg).items():
        if len(shape) < 2:
            continue
        # "block0.subband.layer2.att.wq" -> "block0.subband.layers"
        key = re.sub(r"layer\d+\..*", "layers", name.rsplit(".", 1)[0])
        if ".fullband." in key:
            positions = frames
        elif ".tac." in key:
            positions = tac_frames * f
        else:
            positions = frames * f
        if key not in items:
            items[key] = 0
            if key.endswith(".subband.layers"):
                items[key.replace("layers", "attention")] = attention
        items[key] += positions * math.prod(shape)
    return report


def _attention_span_sum(frames: int, lookback: int | None) -> int:
    """Sum over frames of the attended span min(t+1, lookback)."""
    if lookback is None or lookback >= frames:
        return frames * (frames + 1) // 2
    full = lookback * (lookback + 1) // 2
    return full + (frames - lookback) * lookback


__all__ = ["MacReport", "count_macs"]
