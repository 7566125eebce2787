import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import get_window

from cabinsep.dsp import StftConfig, analyze, synthesize
from cabinsep.errors import InvalidInput
from cabinsep.model import forward, init_random, variant_config
from cabinsep.mvdr import MvdrConfig, separate_stream
from cabinsep.pipeline import MAX_SAMPLE_MAGNITUDE, separate_waveform
from conftest import bad_channel_wave, four_channel_kinds


@pytest.mark.parametrize("variant", ["S", "M", "L"])
def test_zones_equal_a_run_with_scipys_window(variant, monkeypatch):
    # reference: the same run framed with scipy.signal's periodic Hamming window
    cfg = variant_config(variant)
    weights = init_random(cfg, 7)
    wave = np.random.default_rng(0).standard_normal((4, 4000)) * 0.05
    zones = separate_waveform(wave, weights, cfg).zones
    monkeypatch.setattr(StftConfig, "window",
                        lambda self: get_window("hamming", self.window_length, fftbins=True))
    np.testing.assert_array_equal(separate_waveform(wave, weights, cfg).zones, zones)


class TestSeparateWaveform:
    def test_single_channel_passthrough(self, rng, small_cfg):
        wave = rng.standard_normal((1, 2000)) * 0.1
        result = separate_waveform(wave, None, small_cfg)
        np.testing.assert_array_equal(result.zones, wave)

    def test_multichannel_shapes(self, rng, small_cfg, small_weights):
        wave = rng.standard_normal((4, 1600)) * 0.1
        result = separate_waveform(wave, small_weights, small_cfg)
        assert result.zones.shape == (4, 1600)
        assert result.spectrogram.shape == analyze(wave).shape

    def test_frames_at_the_models_bin_count(self, rng, small_cfg, small_weights):
        # reference: the same stages composed by hand at the one framing
        wave = rng.standard_normal((4, 1600)) * 0.1
        result = separate_waveform(wave, small_weights, small_cfg)
        spec = analyze(wave)
        out_spec = separate_stream(spec, forward(spec, small_weights, small_cfg), MvdrConfig())
        np.testing.assert_array_equal(result.spectrogram, out_spec)
        np.testing.assert_array_equal(result.zones,
                                      synthesize(out_spec, length=1600))

    def test_channel_count_mismatch_rejected(self, rng, small_cfg, small_weights):
        with pytest.raises(InvalidInput):
            separate_waveform(rng.standard_normal((3, 1000)), small_weights, small_cfg)

    def test_missing_weights_rejected(self, rng, small_cfg):
        with pytest.raises(InvalidInput):
            separate_waveform(rng.standard_normal((4, 1000)), None, small_cfg)

    def test_prefix_of_input_reproduces_prefix_of_output(self, rng, small_cfg,
                                                         small_weights):
        # waveform-level causality: truncate at a frame boundary and compare
        # the region whose covering frames are complete in both runs
        wave = rng.standard_normal((4, 3200)) * 0.1
        full = separate_waveform(wave, small_weights, small_cfg)
        cut = 6 * StftConfig.hop
        part = separate_waveform(wave[:, :cut], small_weights, small_cfg)
        frames_part = int(np.ceil(cut / StftConfig.hop))
        valid = (frames_part - 1) * StftConfig.hop
        np.testing.assert_array_equal(part.zones[:, :valid], full.zones[:, :valid])

    def test_deterministic(self, rng, small_cfg, small_weights):
        wave = rng.standard_normal((4, 1600)) * 0.1
        a = separate_waveform(wave, small_weights, small_cfg)
        b = separate_waveform(wave, small_weights, small_cfg)
        np.testing.assert_array_equal(a.zones, b.zones)

    def test_mvdr_config_changes_output(self, rng, small_cfg, small_weights):
        wave = rng.standard_normal((4, 1600)) * 0.1
        a = separate_waveform(wave, small_weights, small_cfg, MvdrConfig(forgetting=1.0))
        b = separate_waveform(wave, small_weights, small_cfg, MvdrConfig(forgetting=0.9))
        assert not np.array_equal(a.zones, b.zones)

    def test_non_finite_input_rejected(self, rng, small_cfg, small_weights):
        for bad in (np.nan, np.inf, -np.inf):
            wave = rng.standard_normal((4, 1600)) * 0.1
            wave[2, 700] = bad
            with pytest.raises(InvalidInput):
                separate_waveform(wave, small_weights, small_cfg)
            with pytest.raises(InvalidInput):
                separate_waveform(wave[2:3], None, small_cfg)

    @pytest.mark.filterwarnings("error")  # no overflow warning at the bound
    def test_samples_up_to_the_magnitude_bound_run(self, rng, small_cfg, small_weights):
        wave = rng.standard_normal((4, 1600)) * 0.1 * MAX_SAMPLE_MAGNITUDE
        wave[0, 500] = -MAX_SAMPLE_MAGNITUDE
        result = separate_waveform(wave, small_weights, small_cfg)
        assert np.isfinite(result.zones).all()
        np.testing.assert_array_equal(separate_waveform(wave[:1], None, small_cfg).zones,
                                      wave[:1])

    @pytest.mark.parametrize("peak", [np.nextafter(MAX_SAMPLE_MAGNITUDE, np.inf), 1e20])
    def test_samples_above_the_magnitude_bound_rejected(self, rng, small_cfg, small_weights,
                                                        peak):
        wave = rng.standard_normal((4, 1600)) * 0.1
        wave[1, 300] = -peak
        with pytest.raises(InvalidInput, match="120 dB above full scale"):
            separate_waveform(wave, small_weights, small_cfg)
        with pytest.raises(InvalidInput, match="120 dB above full scale"):
            separate_waveform(wave[1:2], None, small_cfg)


# each case turns a 0.05-rms noise input into a bad one
BAD_CHANNELS = {
    "all_silent": lambda x: np.zeros_like(x),
    "one_dead_channel": lambda x: x * [[1], [1], [0], [1]],
    "clipped": lambda x: np.clip(40.0 * x, -1.0, 1.0),
    "dc_offset": lambda x: x + 0.5,
    "all_near_zero": lambda x: 1e-12 * x,
    "all_but_one_near_zero": lambda x: x * [[1], [1e-12], [1e-12], [1e-12]],
}


@pytest.mark.parametrize("case", sorted(BAD_CHANNELS))
def test_bad_channels_give_finite_output(case, rng, small_cfg, small_weights):
    wave = BAD_CHANNELS[case](rng.standard_normal((4, 1600)) * 0.05)
    result = separate_waveform(wave, small_weights, small_cfg)
    assert result.zones.shape == wave.shape
    assert np.isfinite(result.zones).all()


@settings(max_examples=30, deadline=None)
@given(kinds=four_channel_kinds, seed=st.integers(0, 2**16))
@example(kinds=["dead"] * 4, seed=0)
def test_any_mix_of_bad_channels_gives_finite_output(kinds, seed, small_cfg, small_weights):
    wave = bad_channel_wave(kinds, seed, 1600)
    result = separate_waveform(wave, small_weights, small_cfg)
    assert result.zones.shape == wave.shape
    assert np.isfinite(result.zones).all()


def test_peak_memory_grows_at_most_3_mb_per_audio_second():
    # tracemalloc counts numpy's buffers; the difference of a 2 s and a 4 s run
    # cancels what does not grow with the input (the weights, the 0.5 s
    # attention rings). Every whole-signal array of the batch path counts:
    # the spectrogram and the masks held through the beamformer take 1.5 MB
    # per second of 4-channel audio and its output spectrogram 1 MB more
    cfg = variant_config("S", chunk_lookback_seconds=0.5)
    weights = init_random(cfg, 7)
    peaks = {}
    for seconds in (2, 4):
        wave = np.random.default_rng(0).standard_normal((4, seconds * 16000)) * 0.05
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            separate_waveform(wave, weights, cfg)
            peaks[seconds] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    per_second = (peaks[4] - peaks[2]) / 2 / 1e6
    assert per_second <= 3.0, f"{per_second:.2f} MB per audio second"
