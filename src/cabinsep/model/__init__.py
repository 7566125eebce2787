"""Mask-estimation network: config, weights, forward pass, MAC accounting."""

from .config import ModelConfig, VARIANT_PRESETS, variant_config
from .macs import MacReport, count_macs
from .network import MaskPair, StreamingMaskNet, forward
from .weights import ModelWeights, count_params, init_random, required_shapes

__all__ = [
    "ModelConfig",
    "VARIANT_PRESETS",
    "variant_config",
    "MacReport",
    "count_macs",
    "count_params",
    "MaskPair",
    "StreamingMaskNet",
    "forward",
    "ModelWeights",
    "init_random",
    "required_shapes",
]
