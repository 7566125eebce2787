import json
from dataclasses import replace

import numpy as np
import pytest

from cabinsep.augment import NoiseEntry, SceneManifest, SpeakerEntry
from cabinsep.cli import main
from cabinsep.dsp import read_wav, write_wav
from cabinsep.irlab import ImpulseResponse, write_ir
from cabinsep.model import init_random, variant_config

FS = 16000


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "s.bin"
    assert main(["init-weights", "--variant", "S", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


def write_mixture(path, rng, channels=4, seconds=0.6):
    wave = rng.standard_normal((channels, int(seconds * FS))) * 0.05
    write_wav(path, wave, FS)
    return wave


class TestInitWeights:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["init-weights", "--variant", "M", "--seed", "3", "--out", str(a)]) == 0
        assert main(["init-weights", "--variant", "M", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["init-weights", "--variant", "S", "--out", str(tmp_path / "x.bin")])
        assert exc.value.code == 2


class TestSeparate:
    def test_four_channel_writes_zone_files(self, tmp_path, rng, weights_file):
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        out = tmp_path / "out"
        code = main(["separate", "--input", str(mix), "--weights", str(weights_file),
                     "--out-dir", str(out)])
        assert code == 0
        for z in range(1, 5):
            assert (out / f"zone{z}.wav").exists()
        report = json.loads((out / "separate_report.json").read_text())
        assert report["zones"] == 4
        assert len(report["per_zone_rms"]) == 4

    def test_mono_passthrough_identical(self, tmp_path, rng):
        mix = tmp_path / "mono.wav"
        wave = write_mixture(mix, rng, channels=1)
        out = tmp_path / "out"
        assert main(["separate", "--input", str(mix), "--out-dir", str(out)]) == 0
        back, _ = read_wav(out / "zone1.wav")
        source, _ = read_wav(mix)
        np.testing.assert_array_equal(back, source)

    def test_truncated_prefix_run_bit_exact(self, tmp_path, rng, weights_file):
        full_wave = rng.standard_normal((4, 4 * 2560)) * 0.05
        mix_full = tmp_path / "full.wav"
        write_wav(mix_full, full_wave, FS)
        cut = 24 * 256
        mix_part = tmp_path / "part.wav"
        write_wav(mix_part, full_wave[:, :cut], FS)
        out_full, out_part = tmp_path / "of", tmp_path / "op"
        assert main(["separate", "--input", str(mix_full), "--weights",
                     str(weights_file), "--out-dir", str(out_full)]) == 0
        assert main(["separate", "--input", str(mix_part), "--weights",
                     str(weights_file), "--out-dir", str(out_part)]) == 0
        frames_part = int(np.ceil(cut / 256))
        valid = (frames_part - 1) * 256
        for z in range(1, 5):
            a, _ = read_wav(out_full / f"zone{z}.wav")
            b, _ = read_wav(out_part / f"zone{z}.wav")
            np.testing.assert_array_equal(a[0, :valid], b[0, :valid])

    def test_missing_input_exit_2(self, tmp_path, weights_file):
        assert main(["separate", "--input", str(tmp_path / "nope.wav"),
                     "--weights", str(weights_file),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_wrong_variant_weights_exit_3(self, tmp_path, rng, weights_file):
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        assert main(["separate", "--input", str(mix), "--weights", str(weights_file),
                     "--variant", "L", "--out-dir", str(tmp_path / "o")]) == 3

    def test_other_architecture_same_shapes_exit_3_without_outputs(self, tmp_path, rng):
        cfg = replace(variant_config("S"), lps_floor=1e-8)
        weights = tmp_path / "floor.bin"
        init_random(cfg, seed=7).save(weights)
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        out = tmp_path / "o"
        assert main(["separate", "--input", str(mix), "--weights", str(weights),
                     "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_lookback_keeps_fingerprint_match(self, tmp_path, rng, weights_file):
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        out = tmp_path / "o"
        assert main(["separate", "--input", str(mix), "--weights", str(weights_file),
                     "--chunk-seconds", "1.0", "--out-dir", str(out)]) == 0
        assert (out / "zone1.wav").exists()

    def test_missing_weights_flag_exit_3(self, tmp_path, rng):
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        assert main(["separate", "--input", str(mix),
                     "--out-dir", str(tmp_path / "o")]) == 3

    def test_no_partial_outputs_on_error(self, tmp_path, rng, weights_file):
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng, channels=3)  # channel mismatch
        out = tmp_path / "o"
        assert main(["separate", "--input", str(mix), "--weights",
                     str(weights_file), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_input_exit_2_without_outputs(self, tmp_path, rng, weights_file):
        wave = rng.standard_normal((4, 4000)) * 0.05
        wave[1, 1234] = np.nan
        mix = tmp_path / "nan.wav"
        write_wav(mix, wave, FS)  # float32 WAV keeps the NaN
        out = tmp_path / "o"
        assert main(["separate", "--input", str(mix), "--weights",
                     str(weights_file), "--out-dir", str(out)]) == 2
        assert not list(tmp_path.glob("o/zone*.wav"))
        assert not (out / "separate_report.json").exists()

    @pytest.mark.parametrize("loading", ["nan", "inf"])
    def test_non_finite_loading_exit_2_without_outputs(self, tmp_path, rng, weights_file,
                                                        loading):
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        out = tmp_path / "o"
        assert main(["separate", "--input", str(mix), "--weights", str(weights_file),
                     "--loading", loading, "--out-dir", str(out)]) == 2
        assert not out.exists()


class TestSimulateAndEval:
    @pytest.fixture
    def scene_dir(self, tmp_path, rng):
        write_wav(tmp_path / "speech.wav", rng.standard_normal(4000) * 0.1, FS)
        write_wav(tmp_path / "noise.wav", rng.standard_normal(2000) * 0.1, FS)
        for m in range(4):
            taps = np.zeros(16)
            taps[m + 1] = 1.0
            write_ir(tmp_path / f"ir{m}.wav", ImpulseResponse(taps))
        manifest = SceneManifest(
            zones=4,
            speakers=[SpeakerEntry(zone=2, speech="speech.wav",
                                   irs=tuple(f"ir{m}.wav" for m in range(4)))],
            background=NoiseEntry(file="noise.wav", snr_db=10.0),
        )
        (tmp_path / "scene.json").write_text(manifest.to_json())
        return tmp_path

    def test_simulate_writes_scene(self, scene_dir):
        out = scene_dir / "rendered"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(out)]) == 0
        assert (out / "mixture.wav").exists()
        assert (out / "zone3_label.wav").exists()
        assert (out / "noise_label.wav").exists()
        mixture, rate = read_wav(out / "mixture.wav")
        assert rate == FS and mixture.shape[0] == 4

    def test_simulate_bad_manifest_exit_2(self, scene_dir):
        (scene_dir / "bad.json").write_text("{")
        assert main(["simulate", "--manifest", str(scene_dir / "bad.json"),
                     "--out-dir", str(scene_dir / "x")]) == 2

    def test_simulate_with_strategy_override(self, scene_dir):
        for name, k in (("sim", 2), ("rec", 5)):
            ir_dir = scene_dir / name
            ir_dir.mkdir()
            for m in range(4):
                taps = np.zeros(16)
                taps[k] = 1.0
                write_ir(ir_dir / f"mic{m}.wav", ImpulseResponse(
                    taps, origin="simulated" if name == "sim" else "recorded"))
        out = scene_dir / "strategy_out"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(out), "--strategy", "only",
                     "--recorded-ir-dir", str(scene_dir / "rec"),
                     "--seed", "3"]) == 0
        # recorded IRs delay by 5 samples; the manifest's own IRs by zone+1=3
        label, _ = read_wav(out / "zone3_label.wav")
        assert np.argmax(np.abs(label[0])) >= 5

    def test_simulate_strategy_requires_seed(self, scene_dir):
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(scene_dir / "y"), "--strategy", "only",
                     "--recorded-ir-dir", str(scene_dir / "rec")]) == 3

    def test_eval_reports_si_snr_and_positioning(self, scene_dir):
        rendered = scene_dir / "rendered2"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(rendered)]) == 0
        est = scene_dir / "est"
        est.mkdir()
        label, _ = read_wav(rendered / "zone3_label.wav")
        for z in range(1, 5):
            wave = label[0] if z == 3 else np.zeros_like(label[0])
            write_wav(est / f"zone{z}.wav", wave, FS)
        report_path = scene_dir / "report.json"
        assert main(["eval", "--est-dir", str(est), "--label-dir", str(rendered),
                     "--true-zone", "3", "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["positioning_accuracy"] == 1.0
        rows = report["utterances"][0]["rows"]
        zone3 = [r for r in rows if r["zone"] == 3][0]
        assert zone3["si_snr_db"] == 60.0


class TestIrCommands:
    def test_gen_and_extract_round_trip(self, tmp_path, rng):
        sweep_path = tmp_path / "sweep.wav"
        assert main(["ir", "gen", "--kind", "ess", "--duration", "1.0",
                     "--out", str(sweep_path)]) == 0
        sweep, _ = read_wav(sweep_path)
        taps = np.zeros(64)
        taps[9] = 0.8
        recording = np.convolve(sweep[0], taps)
        rec_path = tmp_path / "rec.wav"
        write_wav(rec_path, recording, FS)
        ir_path = tmp_path / "ir.wav"
        assert main(["ir", "extract", "--kind", "ess", "--duration", "1.0",
                     "--recording", str(rec_path), "--out", str(ir_path),
                     "--ir-length", "64"]) == 0
        extracted, _ = read_wav(ir_path)
        assert np.argmax(np.abs(extracted[0])) == 9

    def test_ism_with_cabin_preset(self, tmp_path):
        out = tmp_path / "cabin_ir.wav"
        assert main(["ir", "ism", "--preset", "cabin", "--source", "1.2,0.5,0.9",
                     "--mic", "0", "--out", str(out)]) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "cabin_ir.wav.json").read_text())
        assert sidecar["origin"] == "simulated"

    def test_ism_with_room_file(self, tmp_path):
        room = {
            "dimensions": [3.0, 2.0, 1.5],
            "source": [1.0, 1.0, 0.8],
            "mics": [[2.0, 1.0, 1.0]],
            "reflection": 0.4,
            "max_order": 2,
            "ir_length": 1024,
        }
        (tmp_path / "room.json").write_text(json.dumps(room))
        out = tmp_path / "ir.wav"
        assert main(["ir", "ism", "--room", str(tmp_path / "room.json"),
                     "--mic", "0", "--out", str(out)]) == 0
        ir, _ = read_wav(out)
        assert np.any(ir != 0)

    def test_ism_requires_geometry(self, tmp_path):
        assert main(["ir", "ism", "--mic", "0",
                     "--out", str(tmp_path / "x.wav")]) == 2


class TestBench:
    def test_bench_reports_rtf_and_macs(self, tmp_path):
        report_path = tmp_path / "bench.json"
        assert main(["bench", "--variant", "S", "--seconds", "0.4", "--runs", "1",
                     "--seed", "1", "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["variant"] == "S"
        assert 0.2 <= report["gmacs_per_second"] <= 0.8
        assert report["rtf_median"] > 0
        assert report["params"] > 0
