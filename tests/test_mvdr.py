import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cabinsep.errors import InvalidInput
from cabinsep.model.network import MaskPair
from cabinsep.mvdr import (
    BeamformerState,
    MvdrConfig,
    apply_weights,
    compute_weights,
    separate_stream,
    update_covariances,
)
from conftest import random_spectrogram


def random_snapshot(rng, zones=4, bins=8):
    return rng.standard_normal((zones, bins)) + 1j * rng.standard_normal((zones, bins))


def hermitian_error(mats):
    return np.max(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))))


class TestState:
    @pytest.mark.parametrize("kwargs", [
        dict(forgetting=0.0), dict(forgetting=1.5), dict(forgetting=np.nan),
        dict(loading=-1.0), dict(loading=np.nan), dict(loading=np.inf),
    ])
    def test_invalid_forgetting_or_loading_rejected(self, kwargs):
        with pytest.raises(InvalidInput):
            BeamformerState(zones=2, bins=3, **kwargs)
        with pytest.raises(InvalidInput):
            MvdrConfig(**kwargs)


class TestUpdate:
    def test_exclusive_speech_mask_accumulates_only_target(self, rng):
        state = BeamformerState(zones=3, bins=4, forgetting=1.0)
        total = np.zeros((4, 3, 3), dtype=complex)
        for _ in range(5):
            y = random_snapshot(rng, zones=3, bins=4)
            ms = np.zeros((3, 4))
            ms[1] = 1.0
            mn = np.zeros((3, 4))
            update_covariances(state, y, ms, mn)
            total += np.einsum("af,bf->fab", y, np.conj(y))
        np.testing.assert_allclose(state.speech_cov[1], total, atol=1e-9)
        np.testing.assert_array_equal(state.speech_cov[0], 0.0)
        # zones 0 and 2 see zone 1's speech as interference
        assert np.max(np.abs(state.noise_cov[0])) > 0
        np.testing.assert_array_equal(state.noise_cov[1], 0.0)

    def test_hermitian_and_psd_after_updates(self, rng):
        state = BeamformerState(zones=4, bins=6)
        for _ in range(20):
            update_covariances(state, random_snapshot(rng, bins=6),
                               rng.uniform(0, 1, (4, 6)), rng.uniform(0, 1, (4, 6)))
        assert hermitian_error(state.speech_cov) < 1e-6
        assert hermitian_error(state.noise_cov) < 1e-6
        for cov in (state.speech_cov, state.noise_cov):
            eigs = np.linalg.eigvalsh(cov.reshape(-1, 4, 4))
            assert eigs.min() >= -1e-8

    def test_geometric_convergence_with_forgetting(self, rng):
        lam = 0.9
        state = BeamformerState(zones=2, bins=1, forgetting=lam)
        y = random_snapshot(rng, zones=2, bins=1)
        ms = np.ones((2, 1))
        mn = np.zeros((2, 1))
        for _ in range(200):
            update_covariances(state, y, ms, mn)
        target = np.einsum("af,bf->fab", y, np.conj(y))[0] / (1 - lam)
        np.testing.assert_allclose(state.speech_cov[0, 0], target,
                                   atol=1e-4 * np.abs(target).max())

    def test_mask_out_of_range_rejected(self, rng):
        state = BeamformerState(zones=2, bins=3)
        y = random_snapshot(rng, zones=2, bins=3)
        with pytest.raises(InvalidInput):
            update_covariances(state, y, np.full((2, 3), 1.5), np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            update_covariances(state, y, np.zeros((2, 3)), np.full((2, 3), -0.1))
        nan = np.zeros((2, 3))
        nan[1, 2] = np.nan
        with pytest.raises(InvalidInput):
            update_covariances(state, y, nan, np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            update_covariances(state, y, np.zeros((2, 3)), nan)
        assert state.frame_count == 0
        np.testing.assert_array_equal(state.speech_cov, 0.0)
        np.testing.assert_array_equal(state.noise_cov, 0.0)

    def test_non_finite_snapshot_rejected_without_touching_state(self, rng):
        zones, bins = 3, 5
        state = BeamformerState(zones=zones, bins=bins, forgetting=0.9)
        clean = BeamformerState(zones=zones, bins=bins, forgetting=0.9)
        frames = [(random_snapshot(rng, zones=zones, bins=bins),
                   rng.uniform(0, 1, (zones, bins)), rng.uniform(0, 1, (zones, bins)))
                  for _ in range(3)]
        for frame in frames[:2]:
            update_covariances(state, *frame)
            update_covariances(clean, *frame)
        y, ms, mn = frames[2]
        for bad in (np.nan, np.inf, -np.inf, complex(1.0, np.nan)):
            poisoned = y.copy()
            poisoned[1, 3] = bad
            with pytest.raises(InvalidInput):
                update_covariances(state, poisoned, ms, mn)
        update_covariances(state, y, ms, mn)
        update_covariances(clean, y, ms, mn)
        assert state.frame_count == clean.frame_count == 3
        np.testing.assert_array_equal(state.speech_cov, clean.speech_cov)
        np.testing.assert_array_equal(state.noise_cov, clean.noise_cov)
        np.testing.assert_array_equal(compute_weights(state, 1), compute_weights(clean, 1))


class TestWeights:
    def test_single_zone_passthrough(self, rng):
        state = BeamformerState(zones=1, bins=5)
        update_covariances(state, random_snapshot(rng, zones=1, bins=5),
                           np.ones((1, 5)), np.zeros((1, 5)))
        w = compute_weights(state, 0)
        np.testing.assert_allclose(w, 1.0, atol=1e-12)

    def test_identity_noise_rank1_speech_closed_form(self, rng):
        zones, bins = 4, 6
        state = BeamformerState(zones=zones, bins=bins, loading=1e-4)
        d = rng.standard_normal((bins, zones)) + 1j * rng.standard_normal((bins, zones))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        for f in range(bins):
            state.speech_cov[0, f] = np.outer(d[f], np.conj(d[f]))
            state.noise_cov[0, f] = np.eye(zones)
        state.frame_count = 1
        w = compute_weights(state, 0)
        expected = d * np.conj(d[:, :1])  # d * conj(d_ref) / ||d||^2, unit norm
        np.testing.assert_allclose(w, expected, atol=1e-8)
        response = np.einsum("fz,fz->f", np.conj(w), d)
        np.testing.assert_allclose(response, d[:, 0], atol=1e-10)

    def test_distortionless_for_random_psd_noise(self, rng):
        zones, bins = 4, 1
        for _ in range(100):
            state = BeamformerState(zones=zones, bins=bins, loading=0.0)
            d = rng.standard_normal(zones) + 1j * rng.standard_normal(zones)
            a = rng.standard_normal((zones, zones)) + 1j * rng.standard_normal((zones, zones))
            psd = a @ np.conj(a.T) + 0.1 * np.eye(zones)
            state.speech_cov[0, 0] = np.outer(d, np.conj(d)) * rng.uniform(0.1, 10)
            state.noise_cov[0, 0] = psd
            state.frame_count = 1
            w = compute_weights(state, 0)[0]
            np.testing.assert_allclose(np.vdot(w, d), d[0],
                                       rtol=1e-6, atol=1e-9)

    def test_trace_normalization_invariance(self, rng):
        zones, bins = 4, 3
        state = BeamformerState(zones=zones, bins=bins)
        for _ in range(10):
            update_covariances(state, random_snapshot(rng, bins=bins),
                               rng.uniform(0, 1, (zones, bins)),
                               rng.uniform(0, 1, (zones, bins)))
        base = compute_weights(state, 2)
        for c in (1e-3, 1e3):
            scaled = BeamformerState(zones=zones, bins=bins)
            scaled.speech_cov = state.speech_cov * c
            scaled.noise_cov = state.noise_cov.copy()
            scaled.frame_count = state.frame_count
            w = compute_weights(scaled, 2)
            np.testing.assert_allclose(w, base, rtol=1e-8, atol=1e-12)

    def test_degenerate_trace_falls_back_to_passthrough(self):
        state = BeamformerState(zones=3, bins=2)
        state.noise_cov[:] = np.eye(3)
        state.frame_count = 1
        w = compute_weights(state, 1)  # speech covariance still zero
        expected = np.zeros((2, 3))
        expected[:, 1] = 1.0
        np.testing.assert_array_equal(w, expected)

    def test_requires_processed_frame(self):
        state = BeamformerState(zones=2, bins=2)
        with pytest.raises(InvalidInput):
            compute_weights(state, 0)

    def test_matches_explicit_inverse_formula(self, rng):
        # reference: w = inv(loaded) @ speech @ e_i / trace(inv(loaded) @ speech);
        # the solve must agree to 1e-10 relative (vector norm per bin)
        zones, bins = 4, 16
        state = BeamformerState(zones=zones, bins=bins)
        for _ in range(20):
            update_covariances(state, random_snapshot(rng, bins=bins),
                               rng.uniform(0, 1, (zones, bins)),
                               rng.uniform(0, 1, (zones, bins)))
        for zone in range(zones):
            noise = state.noise_cov[zone]
            trace = np.trace(noise, axis1=-2, axis2=-1).real
            loaded = noise + (state.loading * trace / zones)[:, None, None] * np.eye(zones)
            ratio = np.linalg.inv(loaded) @ state.speech_cov[zone]
            expected = ratio[:, :, zone] / np.trace(ratio, axis1=-2, axis2=-1)[:, None]
            error = np.linalg.norm(compute_weights(state, zone) - expected, axis=1)
            assert np.all(error <= 1e-10 * np.linalg.norm(expected, axis=1))

    def test_non_invertible_covariance_raises_numerical_error(self):
        from cabinsep.errors import NumericalError
        state = BeamformerState(zones=3, bins=2, loading=1e-4)
        state.noise_cov[:] = -np.eye(3)  # negative definite despite loading
        state.speech_cov[:] = np.eye(3)
        state.frame_count = 1
        with pytest.raises(NumericalError):
            compute_weights(state, 0)


class TestApply:
    def test_one_hot_selects_channel(self, rng):
        y = random_snapshot(rng, zones=3, bins=5)
        w = np.zeros((5, 3), dtype=complex)
        w[:, 2] = 1.0
        np.testing.assert_array_equal(apply_weights(w, y), y[2])

    def test_zero_snapshot(self, rng):
        w = random_snapshot(rng, zones=4, bins=6).T
        assert np.all(apply_weights(w, np.zeros((4, 6), complex)) == 0)

    def test_matches_brute_force(self, rng):
        y = random_snapshot(rng, zones=4, bins=7)
        w = random_snapshot(rng, zones=4, bins=7).T
        got = apply_weights(w, y)
        want = np.array([sum(np.conj(w[f, z]) * y[z, f] for z in range(4))
                         for f in range(7)])
        np.testing.assert_allclose(got, want, atol=1e-7)


class TestStream:
    def test_single_channel_is_identity(self, rng):
        spec = random_spectrogram(rng, zones=1, frames=6, bins=9)
        masks = MaskPair(np.ones((1, 6, 9)) * 0.5, np.ones((1, 6, 9)) * 0.5)
        np.testing.assert_array_equal(separate_stream(spec, masks), spec)

    def test_zero_speech_masks_passthrough(self, rng):
        spec = random_spectrogram(rng, zones=3, frames=5, bins=9)
        masks = MaskPair(np.zeros((3, 5, 9)), np.zeros((3, 5, 9)))
        out = separate_stream(spec, masks)
        np.testing.assert_array_equal(out, spec)

    def test_prefix_causality_bit_exact(self, rng):
        spec = random_spectrogram(rng, zones=4, frames=20, bins=9)
        masks = MaskPair(rng.uniform(0, 1, (4, 20, 9)), rng.uniform(0, 1, (4, 20, 9)))
        full = separate_stream(spec, masks)
        for t in (1, 7, 19):
            part = separate_stream(
                spec[:, :t], MaskPair(masks.speech[:, :t], masks.noise[:, :t]))
            np.testing.assert_array_equal(part, full[:, :t])

    def test_cadence_reuses_weights(self, rng):
        spec = random_spectrogram(rng, zones=3, frames=12, bins=5)
        masks = MaskPair(rng.uniform(0, 1, (3, 12, 5)), rng.uniform(0, 1, (3, 12, 5)))
        every = separate_stream(spec, masks, MvdrConfig(recompute_every=1))
        sparse = separate_stream(spec, masks, MvdrConfig(recompute_every=4))
        assert not np.array_equal(every, sparse)
        # frame 0 weights are identical in both cadences
        np.testing.assert_array_equal(every[:, 0], sparse[:, 0])

    def test_mask_shape_mismatch_rejected(self, rng):
        spec = random_spectrogram(rng, zones=3, frames=4, bins=5)
        masks = MaskPair(np.zeros((3, 3, 5)), np.zeros((3, 3, 5)))
        with pytest.raises(InvalidInput):
            separate_stream(spec, masks)

    def test_stream_survives_inversion_failure_with_passthrough(self, rng,
                                                                monkeypatch):
        from cabinsep import mvdr as mvdr_module
        from cabinsep.errors import NumericalError

        def always_fail(state, zone):
            raise NumericalError("forced")

        monkeypatch.setattr(mvdr_module, "compute_weights", always_fail)
        spec = random_spectrogram(rng, zones=3, frames=4, bins=5)
        masks = MaskPair(rng.uniform(0, 1, (3, 4, 5)), rng.uniform(0, 1, (3, 4, 5)))
        out = mvdr_module.separate_stream(spec, masks)
        np.testing.assert_array_equal(out, spec)  # reference channels pass through

    @settings(max_examples=60, deadline=None)
    @given(forgetting=st.floats(0.0, 1.0, exclude_min=True), zones=st.integers(2, 4),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_hermitian_preserved_along_stream(self, forgetting, zones, log_scale, seed):
        # real-weighted rank-1 updates keep the covariances exactly Hermitian,
        # so update_covariances needs no symmetrization
        r = np.random.default_rng(seed)
        bins, frames = 6, 15
        spec = 10.0**log_scale * random_spectrogram(r, zones=zones, frames=frames, bins=bins)
        state = BeamformerState(zones=zones, bins=bins, forgetting=forgetting)
        for t in range(frames):
            # masks in [0, 1], exact 0 and 1 included
            masks = np.clip(r.uniform(-0.2, 1.2, (2, zones, bins)), 0.0, 1.0)
            update_covariances(state, spec[:, t], masks[0], masks[1])
            for cov in (state.speech_cov, state.noise_cov):
                assert np.array_equal(cov, cov.conj().swapaxes(-1, -2))
