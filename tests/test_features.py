import numpy as np
from hypothesis import given, settings, strategies as st

from cabinsep.dsp import analyze
from cabinsep.features import compute_ipd, compute_lps, stack_real_imag

FS = 16000


def complex_spec(seed, zones=4, frames=6, bins=33):
    r = np.random.default_rng(seed)
    return r.standard_normal((zones, frames, bins)) + 1j * r.standard_normal(
        (zones, frames, bins))


class TestStackRealImag:
    def test_shape_doubles_channels(self):
        out = stack_real_imag(complex_spec(0))
        assert out.shape == (8, 6, 33)

    def test_purely_real_input_zero_imag_half(self):
        spec = complex_spec(1).real.astype(complex)
        out = stack_real_imag(spec)
        assert np.all(out[4:] == 0)

    def test_bijection(self):
        spec = complex_spec(2)
        out = stack_real_imag(spec)
        rebuilt = out[:4] + 1j * out[4:]
        np.testing.assert_array_equal(rebuilt, spec)


class TestLps:
    def test_unit_magnitude_gives_zero(self):
        spec = np.exp(1j * np.linspace(0, 3, 60)).reshape(1, 4, 15)
        np.testing.assert_allclose(compute_lps(spec), 0.0, atol=1e-12)

    def test_floor_on_silence(self):
        out = compute_lps(np.zeros((2, 3, 5), dtype=complex))
        np.testing.assert_allclose(out, np.log(1e-10))

    def test_log_identity(self):
        spec = np.full((1, 2, 4), np.e, dtype=complex)
        np.testing.assert_allclose(compute_lps(spec), 2.0, atol=1e-12)

    def test_phase_invariance_and_monotonicity(self):
        spec = complex_spec(4)
        rotated = spec * np.exp(1j * 0.7)
        np.testing.assert_allclose(compute_lps(spec), compute_lps(rotated),
                                   atol=1e-12)
        assert np.all(compute_lps(2.0 * spec) >= compute_lps(spec))


class TestIpd:
    def test_identical_channels(self):
        spec = complex_spec(5)
        spec[1] = spec[0]
        out = compute_ipd(spec)
        np.testing.assert_allclose(out[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)

    def test_sign_flip_gives_pi(self):
        spec = complex_spec(6)
        spec[1] = -spec[0]
        out = compute_ipd(spec)
        np.testing.assert_allclose(out[0], -1.0, atol=1e-6)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-6)

    def test_zero_magnitude_bins_give_unit_cos(self):
        spec = np.zeros((2, 2, 4), dtype=complex)
        out = compute_ipd(spec)
        np.testing.assert_array_equal(out[0], 1.0)
        np.testing.assert_array_equal(out[1], 0.0)

    def test_delayed_channel_matches_analytic_phase_ramp(self):
        # multi-tone at exact bin centers; delay k samples on channel 2
        k = 3
        bins = (32, 64, 96)
        t = np.arange(8192)
        x = sum(np.sin(2 * np.pi * (b / 512) * t + 0.31 * b) for b in bins)
        delayed = sum(np.sin(2 * np.pi * (b / 512) * (t - k) + 0.31 * b) for b in bins)
        spec = analyze(np.stack([x, delayed]))
        ipd = compute_ipd(spec)
        for b in bins:
            expected = np.cos(2 * np.pi * (b / 512) * k)
            got = ipd[0, 4:-4, b]  # interior frames
            assert np.max(np.abs(got - expected)) < 0.02

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_unit_circle_invariant(self, seed):
        spec = complex_spec(seed)
        out = compute_ipd(spec)
        np.testing.assert_allclose(out[0] ** 2 + out[1] ** 2, 1.0, atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(0.01, 100),
           phase=st.floats(-3.1, 3.1))
    def test_common_complex_scaling_invariance(self, seed, scale, phase):
        spec = complex_spec(seed)
        scaled = spec * (scale * np.exp(1j * phase))
        np.testing.assert_allclose(
            compute_ipd(spec), compute_ipd(scaled), atol=1e-9)
