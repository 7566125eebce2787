import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from cabinsep.dsp import (
    StftConfig,
    analyze,
    convolve,
    num_frames,
    read_wav,
    synthesize,
    write_wav,
)
from cabinsep.errors import InvalidConfig, InvalidInput

FS = 16000


def direct_convolve(x, h):
    """Independent O(N*M) oracle for linear convolution."""
    out = np.zeros(len(x) + len(h) - 1)
    for m, tap in enumerate(h):
        out[m : m + len(x)] += tap * x
    return out


class TestConfig:
    def test_defaults_match_expected_framing(self):
        cfg = StftConfig()
        assert (cfg.fft_size, cfg.window_length, cfg.hop) == (512, 512, 256)
        assert cfg.bins == 257

    @pytest.mark.parametrize("kwargs", [
        dict(hop=600),                      # hop > window
        dict(window_length=600),            # window > fft
        dict(fft_size=511),                 # odd fft
        dict(sample_rate=0),
        dict(hop=0),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            StftConfig(**kwargs)


class TestAnalyze:
    def test_framing_contract(self, rng):
        spec = analyze(rng.standard_normal((1, 4096)))
        assert spec.shape == (1, 16, 257)
        assert num_frames(4096, StftConfig()) == 16

    def test_zero_input_zero_spectrogram(self):
        spec = analyze(np.zeros((2, 1000)))
        assert np.all(spec == 0)

    def test_cosine_peaks_at_expected_bin(self):
        # 1 kHz at fft 512 / 16 kHz lands on bin 32
        t = np.arange(4096) / FS
        spec = analyze(np.cos(2 * np.pi * 1000.0 * t))
        mags = np.abs(spec[0])
        assert np.all(np.argmax(mags, axis=1) == 32)

    def test_matches_direct_dft_of_one_windowed_frame(self, rng):
        # oracle: explicit DFT-matrix transform of the windowed frame
        cfg = StftConfig()
        x = rng.standard_normal(4096)
        frame_idx = 5
        frame = x[frame_idx * cfg.hop : frame_idx * cfg.hop + cfg.window_length]
        windowed = frame * cfg.window()
        n = np.arange(cfg.fft_size)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(cfg.bins), n) / cfg.fft_size)
        padded = np.zeros(cfg.fft_size)
        padded[: cfg.window_length] = windowed
        expected = dft @ padded
        got = analyze(x, cfg)[0, frame_idx]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInput):
            analyze(np.zeros((1, 0)))

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**31))
    def test_linearity(self, a, b, seed):
        r = np.random.default_rng(seed)
        w1, w2 = r.standard_normal((2, 2000))
        left = analyze(a * w1 + b * w2)
        right = a * analyze(w1) + b * analyze(w2)
        np.testing.assert_allclose(left, right, atol=1e-6)

    def test_parseval_per_frame(self, rng):
        cfg = StftConfig()
        x = rng.standard_normal(4096)
        spec = analyze(x, cfg)[0]
        frame = x[2 * cfg.hop : 2 * cfg.hop + cfg.window_length] * cfg.window()
        time_energy = np.sum(frame**2)
        mags2 = np.abs(spec[2]) ** 2
        spec_energy = (mags2[0] + 2 * np.sum(mags2[1:-1]) + mags2[-1]) / cfg.fft_size
        np.testing.assert_allclose(time_energy, spec_energy, rtol=1e-6)


class TestSynthesize:
    def test_round_trip_interior(self, rng):
        w = rng.standard_normal((3, 6000))
        out = synthesize(analyze(w), length=6000)
        region = slice(512, 6000 - 512)
        assert np.max(np.abs(out[:, region] - w[:, region])) < 1e-6

    def test_round_trip_is_exact_everywhere(self, rng):
        # end-only zero padding + squared-window OLA: exact on the whole signal
        w = rng.standard_normal((1, 5000))
        out = synthesize(analyze(w), length=5000)
        assert np.max(np.abs(out - w)) < 1e-9

    def test_zero_spectrogram_zero_waveform(self):
        out = synthesize(np.zeros((1, 4, 257), dtype=complex))
        assert np.all(out == 0)

    def test_single_frame_is_windowed_normalized_frame(self, rng):
        # closed form: one frame reduces to irfft(S) * w / w^2 = irfft(S) / w
        cfg = StftConfig()
        x = rng.standard_normal(cfg.window_length)
        spec = np.fft.rfft(x * cfg.window(), n=cfg.fft_size)[None, None, :]
        out = synthesize(spec, cfg)
        np.testing.assert_allclose(out[0, : cfg.window_length], x, atol=1e-9)

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(InvalidConfig):
            synthesize(np.zeros((1, 4, 100), dtype=complex))

    def test_dc_nyquist_imag_dropped(self, rng):
        cfg = StftConfig()
        spec = (rng.standard_normal((1, 3, 257)) + 1j * rng.standard_normal((1, 3, 257)))
        cleaned = spec.copy()
        cleaned[..., 0] = cleaned[..., 0].real
        cleaned[..., -1] = cleaned[..., -1].real
        np.testing.assert_array_equal(synthesize(spec, cfg), synthesize(cleaned, cfg))


class TestConvolve:
    def test_unit_impulse_identity(self, rng):
        s = rng.standard_normal(300)
        np.testing.assert_allclose(convolve(s, np.array([1.0]))[:300], s, atol=1e-12)

    def test_shifted_impulse_delays(self, rng):
        s = rng.standard_normal(200)
        h = np.zeros(8)
        h[5] = 1.0
        out = convolve(s, h)
        np.testing.assert_allclose(out[5 : 5 + 200], s, atol=1e-9)
        assert np.max(np.abs(out[:5])) < 1e-12

    def test_matches_direct_sum_on_100_random_cases(self, rng):
        for _ in range(100):
            x = rng.standard_normal(1024)
            h = rng.standard_normal(128)
            got = convolve(x, h)
            want = direct_convolve(x, h)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_empty_operands_rejected(self):
        with pytest.raises(InvalidInput):
            convolve(np.array([]), np.array([1.0]))
        with pytest.raises(InvalidInput):
            convolve(np.array([1.0]), np.array([]))

    def test_multichannel_convolution(self, rng):
        x = rng.standard_normal((3, 256))
        h = rng.standard_normal(16)
        out = convolve(x, h)
        assert out.shape == (3, 271)
        np.testing.assert_allclose(out[1], convolve(x[1], h), atol=1e-9)


class TestWavIO:
    def test_float32_round_trip(self, tmp_path, rng):
        wave = rng.uniform(-0.9, 0.9, size=(4, 1000))
        path = tmp_path / "multi.wav"
        write_wav(path, wave, FS)
        back, rate = read_wav(path)
        assert rate == FS
        assert back.shape == (4, 1000)
        np.testing.assert_allclose(back, wave, atol=1e-7)

    @pytest.mark.parametrize("dtype, full_scale", [(np.int16, 32768), (np.int32, 2**31)])
    def test_pcm_input_read_to_unit_range(self, tmp_path, rng, dtype, full_scale):
        pcm = rng.integers(-full_scale, full_scale, size=(500, 2), dtype=np.int64).astype(dtype)
        path = tmp_path / "pcm.wav"
        wavfile.write(path, FS, pcm)
        back, rate = read_wav(path)
        assert rate == FS
        np.testing.assert_array_equal(back, pcm.T / full_scale)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            read_wav(tmp_path / "nope.wav")
