import logging
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cabinsep import mvdr
from cabinsep.dsp import analyze
from cabinsep.errors import InvalidInput, NumericalError
from cabinsep.model.network import MaskPair
from cabinsep.mvdr import (
    BeamformerState,
    MvdrConfig,
    _solve,
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
        dict(loading=np.nextafter(1e6, np.inf)), dict(loading=1e308),
    ])
    def test_invalid_forgetting_or_loading_rejected(self, kwargs):
        with pytest.raises(InvalidInput):
            BeamformerState(zones=2, bins=3, **kwargs)
        with pytest.raises(InvalidInput):
            MvdrConfig(**kwargs)

    @pytest.mark.filterwarnings("error")
    def test_largest_loading_keeps_the_loaded_trace_finite(self):
        # the loudest input `separate_waveform` takes, every sample at 1e6 and
        # every mask at 1, over 100 accumulated frames: weights finite, no
        # overflow warning, and no bin left at the degenerate-trace passthrough
        wave = 1e6 * np.sign(np.random.default_rng(0).standard_normal((3, 100 * 256)))
        spec = analyze(wave)
        state = BeamformerState(zones=3, bins=spec.shape[2], loading=1e6)
        ones = np.ones((3, spec.shape[2]))
        for t in range(spec.shape[1]):
            update_covariances(state, spec[:, t], ones / 3, ones)
        weights, positive_definite = _solve(state)
        assert positive_definite.all() and np.isfinite(weights).all()
        passthrough = np.all(weights == np.eye(3)[:, None, :], axis=-1)
        assert not passthrough.any()

    def test_config_is_frozen(self):
        # a field assigned after construction would skip __post_init__'s checks
        cfg = MvdrConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.forgetting = 0.0
        assert cfg == MvdrConfig()


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
        np.testing.assert_array_equal(state.speech_cov, clean.speech_cov)
        np.testing.assert_array_equal(state.noise_cov, clean.noise_cov)
        np.testing.assert_array_equal(compute_weights(state, 1), compute_weights(clean, 1))


    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    def test_updates_the_same_arrays_as_lam_cov_plus_weighted_outer(self, rng, forgetting):
        zones, bins = 4, 6
        state = BeamformerState(zones=zones, bins=bins, forgetting=forgetting)
        speech_cov, noise_cov = state.speech_cov, state.noise_cov
        want_speech = np.zeros_like(speech_cov)
        want_noise = np.zeros_like(noise_cov)
        for _ in range(5):
            y = random_snapshot(rng, zones=zones, bins=bins)
            ms, mn = rng.uniform(0, 1, (zones, bins)), rng.uniform(0, 1, (zones, bins))
            outer = np.einsum("af,bf->fab", y, np.conj(y))
            interference = np.clip(ms.sum(axis=0) - ms + mn, 0.0, 1.0)
            want_speech = forgetting * want_speech + ms[:, :, None, None] * outer
            want_noise = forgetting * want_noise + interference[:, :, None, None] * outer
            assert update_covariances(state, y, ms, mn) is state
            assert state.speech_cov is speech_cov and state.noise_cov is noise_cov
            np.testing.assert_array_equal(state.speech_cov, want_speech)
            np.testing.assert_array_equal(state.noise_cov, want_noise)


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
            w = compute_weights(scaled, 2)
            np.testing.assert_allclose(w, base, rtol=1e-8, atol=1e-12)

    def test_degenerate_trace_falls_back_to_passthrough(self):
        state = BeamformerState(zones=3, bins=2)
        state.noise_cov[:] = np.eye(3)
        w = compute_weights(state, 1)  # speech covariance still zero
        expected = np.zeros((2, 3))
        expected[:, 1] = 1.0
        np.testing.assert_array_equal(w, expected)

    def test_degenerate_and_nan_trace_bins_pass_through_among_normal_bins(self, rng):
        zones, bins, zone = 4, 6, 2
        state = BeamformerState(zones=zones, bins=bins)
        for _ in range(10):
            update_covariances(state, random_snapshot(rng, bins=bins),
                               rng.uniform(0, 1, (zones, bins)),
                               rng.uniform(0, 1, (zones, bins)))
        state.speech_cov[zone, 1] = 0.0            # zero trace
        state.speech_cov[zone, 4, 0, 1] = np.nan   # NaN trace
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the degenerate bins divide silently
            w = compute_weights(state, zone)
        for f in (1, 4):
            np.testing.assert_array_equal(w[f], np.eye(zones)[zone])
        noise = state.noise_cov[zone]
        trace = np.trace(noise, axis1=-2, axis2=-1).real
        loaded = noise + (state.loading * trace / zones)[:, None, None] * np.eye(zones)
        normal = [0, 2, 3, 5]
        ratio = np.linalg.solve(loaded[normal], state.speech_cov[zone, normal])
        expected = ratio[:, :, zone] / np.trace(ratio, axis1=-2, axis2=-1)[:, None]
        np.testing.assert_allclose(w[normal], expected, rtol=1e-12, atol=0)

    def test_new_state_answers_as_zero_statistics(self, rng):
        # a new state and one after a frame with all-zero masks hold the same
        # zero covariances: passthrough rows, or NumericalError at loading 0
        zones, bins = 3, 4
        fresh = BeamformerState(zones=zones, bins=bins)
        silent = BeamformerState(zones=zones, bins=bins)
        update_covariances(silent, random_snapshot(rng, zones=zones, bins=bins),
                           np.zeros((zones, bins)), np.zeros((zones, bins)))
        for zone in range(zones):
            passthrough = np.tile(np.eye(zones)[zone], (bins, 1))
            np.testing.assert_array_equal(compute_weights(fresh, zone), passthrough)
            np.testing.assert_array_equal(compute_weights(silent, zone), passthrough)
        unloaded = BeamformerState(zones=zones, bins=bins, loading=0.0)
        for zone in range(zones):
            with pytest.raises(NumericalError):
                compute_weights(unloaded, zone)

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

    @pytest.mark.parametrize("zones", [2, 3, 4, 8])
    def test_matches_lapack_solve(self, rng, zones):
        bins = 16
        state = BeamformerState(zones=zones, bins=bins, forgetting=0.95)
        for _ in range(3 * zones):
            update_covariances(state, random_snapshot(rng, zones=zones, bins=bins),
                               rng.uniform(0, 1, (zones, bins)),
                               rng.uniform(0, 1, (zones, bins)))
        for zone in range(zones):
            noise = state.noise_cov[zone]
            trace = np.trace(noise, axis1=-2, axis2=-1).real
            loaded = noise + (state.loading * trace / zones)[:, None, None] * np.eye(zones)
            ratio = np.linalg.solve(loaded, state.speech_cov[zone])
            expected = ratio[:, :, zone] / np.trace(ratio, axis1=-2, axis2=-1)[:, None]
            error = np.linalg.norm(compute_weights(state, zone) - expected, axis=1)
            assert np.all(error <= 1e-12 * np.linalg.norm(expected, axis=1))

    def test_non_positive_definite_zone_fails_alone_and_quietly(self, rng):
        zones, bins = 4, 6
        state = BeamformerState(zones=zones, bins=bins)
        for _ in range(10):
            update_covariances(state, random_snapshot(rng, bins=bins),
                               rng.uniform(0, 1, (zones, bins)),
                               rng.uniform(0, 1, (zones, bins)))
        healthy = {zone: compute_weights(state, zone) for zone in (0, 3)}
        # covariances written directly go into a new state: a solved one keeps its solve
        state, solved = BeamformerState(zones=zones, bins=bins), state
        state.speech_cov = solved.speech_cov.copy()
        state.noise_cov = solved.noise_cov.copy()
        state.noise_cov[1, 2] = -np.eye(zones)      # negative pivot in one bin
        state.noise_cov[2, 4, 1, 1] = np.nan        # NaN pivot in one bin
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # bad pivots reach neither sqrt nor 1/x
            for zone in (1, 2):
                with pytest.raises(NumericalError):
                    compute_weights(state, zone)
            for zone, weights in healthy.items():
                np.testing.assert_array_equal(compute_weights(state, zone), weights)
            # solved together, the failed zones get passthrough rows in every bin
            weights, positive_definite = _solve(state)
        assert positive_definite.tolist() == [True, False, False, True]
        for zone in (1, 2):
            np.testing.assert_array_equal(weights[zone], np.tile(np.eye(zones)[zone], (bins, 1)))
        for zone, expected in healthy.items():
            np.testing.assert_array_equal(weights[zone], expected)

    def test_one_solve_per_update_and_read_only_weights(self, rng, monkeypatch):
        zones, bins = 4, 5
        calls = []
        solve = mvdr._solve
        monkeypatch.setattr(mvdr, "_solve", lambda state: calls.append(state) or solve(state))
        state = BeamformerState(zones=zones, bins=bins)
        for solves in (1, 2):
            update_covariances(state, random_snapshot(rng, bins=bins),
                               rng.uniform(0, 1, (zones, bins)),
                               rng.uniform(0, 1, (zones, bins)))
            weights = [compute_weights(state, zone) for zone in range(zones)]
            assert len(calls) == solves
        with pytest.raises(ValueError):
            weights[0][0, 0] = 0.0
        np.testing.assert_array_equal(compute_weights(state, 0), solve(state)[0][0])

    @pytest.mark.parametrize("zone", [1.5, "1", None, -1, 4])
    def test_zone_not_an_integer_in_range_rejected(self, rng, zone):
        state = BeamformerState(zones=4, bins=3)
        update_covariances(state, random_snapshot(rng, bins=3),
                           rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (4, 3)))
        with pytest.raises(InvalidInput):
            compute_weights(state, zone)

    def test_non_invertible_covariance_raises_numerical_error(self):
        state = BeamformerState(zones=3, bins=2, loading=1e-4)
        state.noise_cov[:] = -np.eye(3)  # negative definite despite loading
        state.speech_cov[:] = np.eye(3)
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

    def test_mask_shape_mismatch_rejected(self, rng):
        spec = random_spectrogram(rng, zones=3, frames=4, bins=5)
        masks = MaskPair(np.zeros((3, 3, 5)), np.zeros((3, 3, 5)))
        with pytest.raises(InvalidInput):
            separate_stream(spec, masks)

    def test_stream_survives_inversion_failure_with_passthrough(self, rng, caplog):
        # with no loading, a bin where zone 0 hears no interference leaves its
        # noise covariance exactly zero there: a zero pivot in every frame
        zones, frames, bins, bad_bin = 4, 12, 9, 3
        spec = random_spectrogram(rng, zones=zones, frames=frames, bins=bins)
        speech = rng.uniform(0, 1, (zones, frames, bins))
        noise = rng.uniform(0, 1, (zones, frames, bins))
        speech[1:, :, bad_bin] = 0.0
        noise[0, :, bad_bin] = 0.0
        with caplog.at_level(logging.WARNING, logger="cabinsep.mvdr"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # the failed pivots stay quiet
            out = separate_stream(spec, MaskPair(speech, noise), MvdrConfig(loading=0.0))
        np.testing.assert_array_equal(out[0], spec[0])
        state = BeamformerState(zones=zones, bins=bins, loading=0.0)
        failed, solved = set(), set()
        for t in range(frames):
            update_covariances(state, spec[:, t], speech[:, t], noise[:, t])
            for zone in range(zones):
                try:
                    w = compute_weights(state, zone)
                except NumericalError:
                    failed.add(zone)
                    np.testing.assert_array_equal(out[zone, t], spec[zone, t])
                else:
                    solved.add(zone)
                    np.testing.assert_array_equal(out[zone, t], apply_weights(w, spec[:, t]))
        assert 0 in failed and solved == {1, 2, 3}
        assert sorted(record.args[0] for record in caplog.records) == sorted(failed)

    @settings(max_examples=40, deadline=None)
    @given(zones=st.integers(2, 8), bins=st.integers(1, 20), frames=st.integers(1, 6),
           forgetting=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_stream_applies_the_per_zone_weights_bit_for_bit(self, zones, bins, frames,
                                                            forgetting, seed):
        # compute_weights serves a frame's zones from one solve kept on the state;
        # were that solve kept past an update, a later frame would differ here
        r = np.random.default_rng(seed)
        spec = random_spectrogram(r, zones=zones, frames=frames, bins=bins)
        masks = MaskPair(r.uniform(0, 1, spec.shape), r.uniform(0, 1, spec.shape))
        out = separate_stream(spec, masks, MvdrConfig(forgetting=forgetting))
        state = BeamformerState(zones=zones, bins=bins, forgetting=forgetting)
        for t in range(frames):
            update_covariances(state, spec[:, t], masks.speech[:, t], masks.noise[:, t])
            for zone in range(zones):
                want = apply_weights(compute_weights(state, zone), spec[:, t])
                assert np.array_equal(out[zone, t], want)

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
