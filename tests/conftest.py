import numpy as np
import pytest
from hypothesis import strategies as st

from cabinsep.dsp import StftConfig
from cabinsep.model import ModelConfig, init_random


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Small-bin configuration used for fast model tests: fft 64 -> 33 bins.
SMALL_BINS = 33


@pytest.fixture(scope="session")
def small_cfg():
    return ModelConfig(bins=SMALL_BINS, n_full_sub=1, conformer_layers=2)


@pytest.fixture(scope="session")
def small_weights(small_cfg):
    return init_random(small_cfg, seed=7)


@pytest.fixture(scope="session")
def small_stft():
    return StftConfig(fft_size=64, window_length=64, hop=32)


def random_spectrogram(rng, zones=4, frames=10, bins=SMALL_BINS, scale=1.0):
    return scale * (rng.standard_normal((zones, frames, bins))
                    + 1j * rng.standard_normal((zones, frames, bins)))


def tac_macs(report):
    """The MACs of a `MacReport`'s TAC items."""
    return sum(v for k, v in report.items.items() if ".tac" in k)


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
