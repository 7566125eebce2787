import math

import numpy as np
import pytest
from hypothesis import strategies as st

from cabinsep.model import ModelConfig, init_random, required_shapes


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The S (small) variant at the one 257-bin framing, shared by the model tests.
@pytest.fixture(scope="session")
def small_cfg():
    return ModelConfig()


@pytest.fixture(scope="session")
def small_weights(small_cfg):
    return init_random(small_cfg, seed=7)


def random_spectrogram(rng, zones=4, frames=10, bins=ModelConfig.bins, scale=1.0):
    return scale * (rng.standard_normal((zones, frames, bins))
                    + 1j * rng.standard_normal((zones, frames, bins)))


def tac_macs(report):
    """The MACs of a `MacReport`'s TAC items."""
    return sum(v for k, v in report.items.items() if ".tac" in k)


def tac_frame_macs(cfg):
    """The MACs of one TAC frame: its weight matrices' sizes times the bins."""
    return cfg.bins * sum(math.prod(shape) for name, shape in required_shapes(cfg).items()
                          if ".tac." in name and len(shape) >= 2)


def run_frames(step, *tensors):
    """Call a per-frame `step` on each time slice of (C, T, F) tensors; stack on T."""
    frames = tensors[0].shape[1]
    return np.stack([step(*(x[:, t] for x in tensors)) for t in range(frames)], axis=1)


# defects a cabin microphone can show, each applied to one 0.05-rms noise
# channel; four "dead" channels make a silent input
CHANNEL_KINDS = {
    "live": lambda x: x,
    "dead": np.zeros_like,
    "clipped": lambda x: np.clip(40.0 * x, -1.0, 1.0),
    "dc_offset": lambda x: x + 0.5,
    "near_zero": lambda x: 1e-12 * x,
}
four_channel_kinds = st.lists(st.sampled_from(sorted(CHANNEL_KINDS)), min_size=4, max_size=4)


def bad_channel_wave(kinds, seed, samples):
    """A (len(kinds), samples) mixture whose channel i has defect kinds[i]."""
    x = 0.05 * np.random.default_rng(seed).standard_normal((len(kinds), samples))
    return np.stack([CHANNEL_KINDS[kind](channel) for kind, channel in zip(kinds, x)])
