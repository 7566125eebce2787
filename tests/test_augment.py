import json
import re

import numpy as np
import pytest
from scipy.io import wavfile

from cabinsep.augment import (
    NoiseEntry,
    SceneManifest,
    SpeakerEntry,
    mix_scene,
    mix_scene_signals,
    oracle_masks,
    render_reverberant,
    sample_cabin_scene,
)
from cabinsep.dsp import write_wav
from cabinsep.errors import InvalidInput, InvalidManifest
from cabinsep.irlab import ImpulseResponse, write_ir

FS = 16000


def unit_impulse(k=0, length=8):
    taps = np.zeros(length)
    taps[k] = 1.0
    return ImpulseResponse(taps)


def measured_snr_db(signal, noise):
    return 10 * np.log10(np.mean(signal**2) / np.mean(noise**2))


class TestRenderReverberant:
    def test_unit_impulses_copy_signal(self, rng):
        s = rng.standard_normal(200)
        image = render_reverberant(s, [unit_impulse() for _ in range(4)])
        assert image.shape == (4, 207)
        for ch in image:
            np.testing.assert_allclose(ch[:200], s, atol=1e-12)

    def test_shifted_impulses_delay_per_channel(self, rng):
        s = rng.standard_normal(100)
        image = render_reverberant(s, [unit_impulse(k) for k in (0, 3)])
        np.testing.assert_allclose(image[1, 3:103], s, atol=1e-12)
        assert np.max(np.abs(image[1, :3])) < 1e-12

    def test_matches_convolve_oracle(self, rng):
        s = rng.standard_normal(256)
        irs = [ImpulseResponse(rng.standard_normal(32)) for _ in range(3)]
        image = render_reverberant(s, irs)
        for ch, ir in zip(image, irs):
            np.testing.assert_allclose(ch, np.convolve(s, ir.taps), atol=1e-9)

    def test_requires_irs(self, rng):
        with pytest.raises(InvalidInput):
            render_reverberant(rng.standard_normal(10), [])


class TestSnrScale:
    """A transient's SNR, through `mix_scene_signals`."""

    @staticmethod
    def scaled(signal, noise, target):
        """The noise label at microphone 1 of `noise` mixed at `target` dB under `signal`."""
        speakers = [(0, signal, [unit_impulse(length=1) for _ in range(4)], 1.0)]
        render = mix_scene_signals(speakers, transients=[(noise, 0, target)])
        return render.noise_label[0]

    def test_equal_power_target_zero(self, rng):
        signal = rng.standard_normal(1000)
        noise = rng.standard_normal(1000)
        noise *= np.sqrt(np.mean(signal**2) / np.mean(noise**2))
        np.testing.assert_allclose(self.scaled(signal, noise, 0.0), noise, rtol=1e-9)

    def test_plus_20_db_scales_power_by_hundredth(self, rng):
        signal = rng.standard_normal(1000)
        noise = rng.standard_normal(1000)
        at0 = self.scaled(signal, noise, 0.0)
        at20 = self.scaled(signal, noise, 20.0)
        np.testing.assert_allclose(np.mean(at20**2) / np.mean(at0**2), 0.01,
                                   rtol=1e-9)

    def test_realized_snr_matches_target(self, rng):
        for target in (-15.0, 0.0, 7.3, 24.0):
            signal = rng.standard_normal(2000) * rng.uniform(0.1, 3)
            noise = rng.standard_normal(2000) * rng.uniform(0.1, 3)
            scaled = self.scaled(signal, noise, target)
            assert abs(measured_snr_db(signal, scaled) - target) < 1e-3

    def test_silent_operands_rejected(self, rng):
        with pytest.raises(InvalidInput, match="signal is silent"):
            self.scaled(np.zeros(10), rng.standard_normal(10), 0.0)
        with pytest.raises(InvalidInput, match="noise is silent"):
            self.scaled(rng.standard_normal(10), np.zeros(10), 0.0)


class TestMixSceneSignals:
    def _speakers(self, rng, zones):
        return [
            (z, rng.standard_normal(400), [unit_impulse(k + z) for k in range(4)], 1.0)
            for z in zones
        ]

    def test_single_speaker_no_noise(self, rng):
        speakers = self._speakers(rng, [1])
        render = mix_scene_signals(speakers)
        np.testing.assert_array_equal(render.mixture, render.zone_images[1])
        np.testing.assert_array_equal(render.speech_labels[1],
                                      render.mixture[1])
        assert render.occupied_zones == [1]
        np.testing.assert_array_equal(render.noise_label, 0.0)

    def test_two_speaker_additivity_exact(self, rng):
        render = mix_scene_signals(self._speakers(rng, [0, 2]))
        total = render.zone_images.sum(axis=0) + render.noise_label
        np.testing.assert_array_equal(render.mixture, total)

    def test_background_snr_realized(self, rng):
        speakers = self._speakers(rng, [0, 2])
        noise = rng.standard_normal(700)
        render = mix_scene_signals(speakers, background=noise,
                                   background_snr_db=0.0)
        speech_ref = render.zone_images.sum(axis=0)[0]
        assert abs(measured_snr_db(speech_ref, render.noise_label[0])) < 1e-3

    def test_transient_added_at_onset(self, rng):
        speakers = self._speakers(rng, [0])
        event = rng.standard_normal(50)
        render = mix_scene_signals(speakers, transients=[(event, 100, 0.0)])
        assert np.all(render.noise_label[:, :100] == 0)
        assert np.any(render.noise_label[:, 100:150] != 0)

    @pytest.mark.parametrize("noise", ["background", "transients"])
    def test_silent_speech_rejected_for_either_noise(self, rng, noise):
        speakers = [(0, np.zeros(400), [unit_impulse(k) for k in range(4)], 1.0)]
        kwargs = ({"background": rng.standard_normal(700), "background_snr_db": 5.0}
                  if noise == "background"
                  else {"transients": [(rng.standard_normal(50), 100, 0.0)]})
        with pytest.raises(InvalidInput, match="signal is silent"):
            mix_scene_signals(speakers, **kwargs)

    def test_zone_collision_rejected(self, rng):
        speakers = self._speakers(rng, [1]) + self._speakers(rng, [1])
        with pytest.raises(InvalidManifest):
            mix_scene_signals(speakers)

    @pytest.mark.parametrize("zone", [-1, 4])
    def test_zone_out_of_range_rejected(self, rng, zone):
        with pytest.raises(InvalidManifest, match="outside"):
            mix_scene_signals(self._speakers(rng, [zone]))

    def test_wrong_ir_count_rejected(self, rng):
        speakers = [(0, rng.standard_normal(100), [unit_impulse()], 1.0)]
        with pytest.raises(InvalidInput):
            mix_scene_signals(speakers)

    # refused before `_snr_factor` squares the speech, so numpy warns of no overflow
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gain, noise", [(1e300, False), (1e300, True), (np.nan, False)])
    def test_mixture_beyond_float32_rejected(self, rng, gain, noise):
        speakers = [(z, s, irs, gain) for z, s, irs, _ in self._speakers(rng, [0])]
        background = rng.standard_normal(500) if noise else None
        with pytest.raises(InvalidInput, match="float32"):
            mix_scene_signals(speakers, background=background,
                              background_snr_db=5.0 if noise else None)

    def test_determinism(self, rng):
        speakers = self._speakers(rng, [0, 3])
        noise = rng.standard_normal(500)
        a = mix_scene_signals(speakers, background=noise, background_snr_db=5.0)
        b = mix_scene_signals(speakers, background=noise, background_snr_db=5.0)
        np.testing.assert_array_equal(a.mixture, b.mixture)
        np.testing.assert_array_equal(a.noise_label, b.noise_label)


class TestManifest:
    def _manifest(self, tmp_path, rng, snr=5.0):
        speech = rng.standard_normal(500) * 0.1
        write_wav(tmp_path / "speech.wav", speech)
        write_wav(tmp_path / "noise.wav", rng.standard_normal(300) * 0.1)
        for m in range(4):
            write_ir(tmp_path / f"ir{m}.wav", unit_impulse(m, 16))
        return SceneManifest(
            speakers=[SpeakerEntry(zone=1, speech="speech.wav",
                                   irs=tuple(f"ir{m}.wav" for m in range(4)))],
            background=NoiseEntry(file="noise.wav", snr_db=snr),
        )

    def test_json_round_trip(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        doc = {
            "zones": 4, "sample_rate": FS,
            "speakers": [{"zone": 1, "speech": "speech.wav",
                          "irs": [f"ir{m}.wav" for m in range(4)]}],
            "background": {"file": "noise.wav", "snr_db": 5.0},
        }
        assert SceneManifest.from_json(json.dumps(doc)) == manifest
        # keys the renderer does not read, such as a "seed", are ignored
        assert SceneManifest.from_json(json.dumps({**doc, "seed": 123})) == manifest
        # a cabin has four zones; a manifest need not say so
        del doc["zones"]
        assert SceneManifest.from_json(json.dumps(doc)) == manifest

    @pytest.mark.parametrize("zones", [2, 5, 4.0, True, "four", None])
    def test_zones_other_than_four_rejected(self, zones):
        doc = json.dumps({"zones": zones, "speakers": []})
        with pytest.raises(InvalidManifest, match=re.escape(f"zones {zones!r}")):
            SceneManifest.from_json(doc)

    def test_render_from_files(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        render = mix_scene(manifest, base_dir=tmp_path)
        assert render.mixture.shape[0] == 4
        assert render.occupied_zones == [1]
        total = render.zone_images.sum(axis=0) + render.noise_label
        np.testing.assert_allclose(render.mixture, total, atol=1e-12)

    def test_background_rate_mismatch_rejected(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        wavfile.write(tmp_path / "noise.wav", FS // 2,
                      (rng.standard_normal(300) * 0.1).astype(np.float32))
        with pytest.raises(InvalidInput, match="noise.wav"):
            mix_scene(manifest, base_dir=tmp_path)

    def test_transient_rate_mismatch_rejected(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        wavfile.write(tmp_path / "click.wav", FS // 2,
                      (rng.standard_normal(50) * 0.1).astype(np.float32))
        manifest.transients.append(NoiseEntry(file="click.wav", snr_db=5.0))
        with pytest.raises(InvalidInput, match="click.wav"):
            mix_scene(manifest, base_dir=tmp_path)

    def test_ir_rate_mismatch_rejected(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        wavfile.write(tmp_path / "ir2.wav", FS // 2, unit_impulse(2, 16).taps.astype(np.float32))
        with pytest.raises(InvalidInput, match="ir2.wav"):
            mix_scene(manifest, base_dir=tmp_path)

    def test_wrong_ir_count_rejected(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        entry = manifest.speakers[0]
        manifest.speakers[0] = SpeakerEntry(zone=entry.zone, speech=entry.speech,
                                            irs=entry.irs[:3])
        with pytest.raises(InvalidInput, match="expected 4 IRs, got 3"):
            mix_scene(manifest, base_dir=tmp_path)

    def test_zone_collision_rejected(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        manifest.speakers.append(manifest.speakers[0])
        with pytest.raises(InvalidManifest, match="two speakers"):
            mix_scene(manifest, base_dir=tmp_path)

    @pytest.mark.parametrize("zone", [-1, 4])
    def test_zone_out_of_range_rejected(self, tmp_path, rng, zone):
        manifest = self._manifest(tmp_path, rng)
        entry = manifest.speakers[0]
        manifest.speakers[0] = SpeakerEntry(zone=zone, speech=entry.speech, irs=entry.irs)
        with pytest.raises(InvalidManifest, match="outside"):
            mix_scene(manifest, base_dir=tmp_path)

    def test_snr_out_of_range_rejected(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng, snr=30.0)
        with pytest.raises(InvalidManifest):
            manifest.validate()
        manifest2 = self._manifest(tmp_path, rng)
        manifest2.transients.append(NoiseEntry(file="noise.wav", snr_db=9.0))
        with pytest.raises(InvalidManifest):
            manifest2.validate()

    def test_bad_json_rejected(self):
        with pytest.raises(InvalidManifest):
            SceneManifest.from_json("{not json")
        with pytest.raises(InvalidManifest):
            SceneManifest.from_json(json.dumps({"speakers": [{"zone": 0}]}))


class TestSceneSampling:
    def test_sampled_speech_has_pauses(self):
        # the utterance envelope is zero at about half its ~4 Hz nodes; the
        # 64 ms IRs do not fill a pause that long
        render = sample_cabin_scene(np.random.default_rng(3), [1], duration_seconds=2.0)
        label = render.speech_labels[1]
        frames = label[: label.size // 800 * 800].reshape(-1, 800)  # 50 ms
        rms = np.sqrt(np.mean(frames**2, axis=1))
        assert np.mean(rms < 1e-3 * rms.max()) > 0.1

    def test_sampled_scene_is_deterministic_given_seed(self):
        a = sample_cabin_scene(np.random.default_rng(11), [0, 2],
                               duration_seconds=0.5)
        b = sample_cabin_scene(np.random.default_rng(11), [0, 2],
                               duration_seconds=0.5)
        np.testing.assert_array_equal(a.mixture, b.mixture)

    @pytest.mark.parametrize("zone", [-1, 4])
    def test_out_of_range_zone_rejected(self, zone):
        with pytest.raises(InvalidInput, match="outside"):
            sample_cabin_scene(np.random.default_rng(0), [zone], duration_seconds=0.1)
        with pytest.raises(InvalidManifest, match="outside"):
            sample_cabin_scene(np.random.default_rng(0), [zone], duration_seconds=0.1,
                               source_positions={zone: (1.2, 0.5, 0.9)})

    def test_sampled_scene_additivity_and_snr(self, rng):
        render = sample_cabin_scene(rng, [1, 3], duration_seconds=0.5,
                                    background_snr_db=5.0)
        total = render.zone_images.sum(axis=0) + render.noise_label
        np.testing.assert_allclose(render.mixture, total, atol=1e-12)
        speech_ref = render.zone_images.sum(axis=0)[0]
        assert abs(measured_snr_db(speech_ref, render.noise_label[0]) - 5.0) < 1e-3

    def test_oracle_masks_bounded_and_zero_for_empty_zones(self, rng):
        render = sample_cabin_scene(rng, [2], duration_seconds=0.4)
        spec, masks = oracle_masks(render)
        assert masks.speech.shape == spec.shape
        assert np.all(masks.speech >= 0) and np.all(masks.speech <= 1)
        assert np.all(masks.noise >= 0) and np.all(masks.noise <= 1)
        for z in (0, 1, 3):
            np.testing.assert_array_equal(masks.speech[z], 0.0)
