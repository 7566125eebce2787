import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.io import wavfile

import cabinsep
from cabinsep import irlab
from cabinsep.cli import _EXCITATIONS, _STRATEGIES, main
from cabinsep.dsp import analyze, read_wav, write_wav
from cabinsep.errors import InvalidInput
from cabinsep.metrics import rtf_benchmark
from cabinsep.irlab import (
    ImpulseResponse,
    MlsSpec,
    cabin_room,
    extract_ir,
    simulate_ism,
    write_ir,
)
from cabinsep.model import ModelWeights, StreamingMaskNet, init_random, variant_config
from cabinsep.mvdr import MvdrConfig
from conftest import bad_channel_wave, four_channel_kinds

FS = 16000
ROOM = {"dimensions": [3.0, 2.0, 1.5], "source": [1.0, 1.0, 0.8], "mics": [[2.0, 1.0, 1.0]]}


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "s.bin"
    assert main(["init-weights", "--variant", "S", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


def write_mixture(path, rng, channels=4, seconds=0.6):
    wave = rng.standard_normal((channels, int(seconds * FS))) * 0.05
    write_wav(path, wave)
    return wave


def write_cut_wav(path, size):
    """A 4-channel WAV cut to its first `size` bytes, inside the RIFF or fmt header."""
    write_wav(path, np.zeros((4, 1600)))
    path.write_bytes(path.read_bytes()[:size])


CUT_SIZES = [4, 20, 30]


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
        assert report["mvdr"] == asdict(MvdrConfig())

    def test_mono_passthrough_identical(self, tmp_path, rng):
        mix = tmp_path / "mono.wav"
        wave = write_mixture(mix, rng, channels=1)
        out = tmp_path / "out"
        assert main(["separate", "--input", str(mix), "--out-dir", str(out)]) == 0
        back = read_wav(out / "zone1.wav")
        source = read_wav(mix)
        np.testing.assert_array_equal(back, source)

    def test_truncated_prefix_run_bit_exact(self, tmp_path, rng, weights_file):
        full_wave = rng.standard_normal((4, 4 * 2560)) * 0.05
        mix_full = tmp_path / "full.wav"
        write_wav(mix_full, full_wave)
        cut = 24 * 256
        mix_part = tmp_path / "part.wav"
        write_wav(mix_part, full_wave[:, :cut])
        out_full, out_part = tmp_path / "of", tmp_path / "op"
        assert main(["separate", "--input", str(mix_full), "--weights",
                     str(weights_file), "--out-dir", str(out_full)]) == 0
        assert main(["separate", "--input", str(mix_part), "--weights",
                     str(weights_file), "--out-dir", str(out_part)]) == 0
        frames_part = int(np.ceil(cut / 256))
        valid = (frames_part - 1) * 256
        for z in range(1, 5):
            a = read_wav(out_full / f"zone{z}.wav")
            b = read_wav(out_part / f"zone{z}.wav")
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
        # S's shapes under the fingerprint of S with `time_skip = False`, as
        # containers were written when that was a setting
        weights = tmp_path / "no_skip.bin"
        ModelWeights(init_random(variant_config("S"), seed=7).tensors,
                     "d0641f4fdc0cf90a").save(weights)
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

    def test_config_flag_is_a_usage_error_without_outputs(self, tmp_path, rng):
        mix = tmp_path / "mono.wav"
        write_mixture(mix, rng, channels=1)
        (tmp_path / "s.cfg").write_text("variant = S\n")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["separate", "--input", str(mix), "--config", str(tmp_path / "s.cfg"),
                  "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_container_in_the_npz_format_loads(self, tmp_path, rng, weights_file):
        # written as earlier versions' `save` wrote it, with S's fingerprint spelled out
        container = tmp_path / "earlier.bin"
        with open(container, "wb") as fh:
            np.savez(fh, fingerprint=np.array("2d7d2eeb300f2520"),
                     **ModelWeights.load(weights_file).tensors)
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        outs = [tmp_path / "earlier", tmp_path / "current"]
        for weights, out in zip((container, weights_file), outs):
            assert main(["separate", "--input", str(mix), "--weights", str(weights),
                         "--variant", "S", "--out-dir", str(out)]) == 0
        for z in range(1, 5):
            assert (outs[0] / f"zone{z}.wav").read_bytes() == \
                (outs[1] / f"zone{z}.wav").read_bytes()

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
        write_wav(mix, wave)  # float32 WAV keeps the NaN
        out = tmp_path / "o"
        assert main(["separate", "--input", str(mix), "--weights",
                     str(weights_file), "--out-dir", str(out)]) == 2
        assert not list(tmp_path.glob("o/zone*.wav"))
        assert not (out / "separate_report.json").exists()

    @pytest.mark.parametrize("size", CUT_SIZES)
    def test_wav_cut_inside_header_exit_2_without_outputs(self, tmp_path, weights_file, size):
        write_cut_wav(tmp_path / "cut.wav", size)
        out = tmp_path / "o"
        assert main(["separate", "--input", str(tmp_path / "cut.wav"), "--weights",
                     str(weights_file), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("loading", ["nan", "inf"])
    def test_non_finite_loading_exit_2_without_outputs(self, tmp_path, rng, weights_file,
                                                        loading):
        mix = tmp_path / "mix.wav"
        write_mixture(mix, rng)
        out = tmp_path / "o"
        assert main(["separate", "--input", str(mix), "--weights", str(weights_file),
                     "--loading", loading, "--out-dir", str(out)]) == 2
        assert not out.exists()

    @settings(max_examples=10, deadline=None)
    @given(kinds=four_channel_kinds, seed=st.integers(0, 2**16))
    @example(kinds=["dead"] * 4, seed=0)
    def test_bad_channels_exit_0_with_finite_zones(self, tmp_path_factory, weights_file,
                                                   kinds, seed):
        tmp = tmp_path_factory.mktemp("bad_channels")
        write_wav(tmp / "mix.wav", bad_channel_wave(kinds, seed, FS // 5))
        assert main(["separate", "--input", str(tmp / "mix.wav"), "--weights",
                     str(weights_file), "--out-dir", str(tmp / "out")]) == 0
        for z in range(1, 5):
            zone = read_wav(tmp / "out" / f"zone{z}.wav")
            assert zone.shape[-1] == FS // 5 and np.isfinite(zone).all()


# Runs the commands of the separation path in a fresh interpreter and prints
# whether scipy.signal was ever imported; the IR lab and scene synthesis are
# its only users.
_FRESH_SEPARATION_RUN = """
import sys
import cabinsep, cabinsep.pipeline, cabinsep.cli
weights, mix, out = sys.argv[1:]
assert cabinsep.cli.main(["init-weights", "--variant", "S", "--seed", "7", "--out", weights]) == 0
assert cabinsep.cli.main(["separate", "--input", mix, "--weights", weights, "--out-dir", out]) == 0
assert cabinsep.cli.main(["eval", "--est-dir", out, "--label-dir", out,
                          "--report", out + "/eval.json"]) == 0
print("scipy.signal" in sys.modules)
"""


def test_separation_path_never_imports_scipy_signal(tmp_path, rng):
    write_mixture(tmp_path / "mix.wav", rng)
    src = str(Path(cabinsep.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_SEPARATION_RUN, str(tmp_path / "s.bin"),
         str(tmp_path / "mix.wav"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "zone4.wav").exists()
    assert result.stdout.splitlines()[-1] == "False"


class TestSimulateAndEval:
    @pytest.fixture
    def scene_dir(self, tmp_path, rng):
        write_wav(tmp_path / "speech.wav", rng.standard_normal(4000) * 0.1)
        write_wav(tmp_path / "noise.wav", rng.standard_normal(2000) * 0.1)
        for m in range(4):
            taps = np.zeros(16)
            taps[m + 1] = 1.0
            write_ir(tmp_path / f"ir{m}.wav", ImpulseResponse(taps))
        manifest = {
            "zones": 4,
            "speakers": [{"zone": 2, "speech": "speech.wav",
                          "irs": [f"ir{m}.wav" for m in range(4)]}],
            "background": {"file": "noise.wav", "snr_db": 10.0},
        }
        (tmp_path / "scene.json").write_text(json.dumps(manifest))
        return tmp_path

    def test_simulate_writes_scene(self, scene_dir):
        out = scene_dir / "rendered"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(out)]) == 0
        assert (out / "mixture.wav").exists()
        assert (out / "zone3_label.wav").exists()
        assert (out / "noise_label.wav").exists()
        mixture = read_wav(out / "mixture.wav")
        assert wavfile.read(out / "mixture.wav")[0] == FS and mixture.shape[0] == 4

    def test_simulate_bad_manifest_exit_2(self, scene_dir):
        (scene_dir / "bad.json").write_text("{")
        assert main(["simulate", "--manifest", str(scene_dir / "bad.json"),
                     "--out-dir", str(scene_dir / "x")]) == 2

    def test_simulate_noise_rate_mismatch_exit_2_without_outputs(self, scene_dir, rng):
        wavfile.write(scene_dir / "noise.wav", FS // 2,
                      (rng.standard_normal(1000) * 0.1).astype(np.float32))
        out = scene_dir / "rendered"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_simulate_with_strategy_override(self, scene_dir):
        for name, k in (("sim", 2), ("rec", 5)):
            ir_dir = scene_dir / name
            ir_dir.mkdir()
            for m in range(4):
                taps = np.zeros(16)
                taps[k] = 1.0
                write_ir(ir_dir / f"mic{m}.wav", ImpulseResponse(taps))
        out = scene_dir / "strategy_out"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(out), "only",
                     "--recorded-ir-dir", str(scene_dir / "rec")]) == 0
        # recorded IRs delay by 5 samples; the manifest's own IRs by zone+1=3
        label = read_wav(out / "zone3_label.wav")
        assert np.argmax(np.abs(label[0])) >= 5

    def test_simulate_multichannel_ir_exit_2_without_outputs(self, scene_dir):
        write_wav(scene_dir / "ir1.wav", np.ones((2, 16)))
        out = scene_dir / "rendered"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_simulate_wrong_ir_count_exit_2_without_outputs(self, scene_dir):
        manifest = json.loads((scene_dir / "scene.json").read_text())
        manifest["speakers"][0]["irs"] = manifest["speakers"][0]["irs"][:3]
        (scene_dir / "three_irs.json").write_text(json.dumps(manifest))
        out = scene_dir / "rendered"
        assert main(["simulate", "--manifest", str(scene_dir / "three_irs.json"),
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["background", "transients"])
    def test_simulate_silent_speech_exit_2_without_outputs(self, scene_dir, noise):
        write_wav(scene_dir / "speech.wav", np.zeros(4000))
        manifest = json.loads((scene_dir / "scene.json").read_text())
        if noise == "transients":
            del manifest["background"]
            manifest["transients"] = [{"file": "noise.wav", "snr_db": 0.0}]
        (scene_dir / "silent.json").write_text(json.dumps(manifest))
        out = scene_dir / "rendered"
        assert main(["simulate", "--manifest", str(scene_dir / "silent.json"),
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_simulate_strategy_two_speakers_exit_2_without_outputs(self, scene_dir, capsys):
        # an IR set holds the IRs of one source position: the zone-0 speaker
        # would be rendered through the zone-2 speaker's IRs
        sim = scene_dir / "sim"
        sim.mkdir()
        for m in range(4):
            write_ir(sim / f"mic{m}.wav", ImpulseResponse(np.eye(16)[m + 1]))
        manifest = json.loads((scene_dir / "scene.json").read_text())
        manifest["speakers"].append({**manifest["speakers"][0], "zone": 0})
        (scene_dir / "two.json").write_text(json.dumps(manifest))
        out = scene_dir / "rendered"
        assert main(["simulate", "--manifest", str(scene_dir / "two.json"),
                     "--out-dir", str(out), "simulated",
                     "--simulated-ir-dir", str(sim)]) == 2
        assert not out.exists()
        assert "the manifest has 2" in capsys.readouterr().err

    def test_simulate_strategy_requires_seed(self, scene_dir):
        """`added` draws its IR assignment, so it alone takes (and requires) --seed."""
        out = scene_dir / "y"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                  "--out-dir", str(out), "added", "--simulated-ir-dir", str(scene_dir),
                  "--recorded-ir-dir", str(scene_dir)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("strategy", sorted(_STRATEGIES))
    def test_strategy_table_is_what_mix_ir_sets_reads(self, strategy):
        """Each subcommand declares exactly the IR sets `mix_ir_sets` reads for it."""
        assert sorted(_STRATEGIES) == sorted(irlab.MIX_STRATEGIES)
        sets = _STRATEGIES[strategy][0]
        given = {name: [ImpulseResponse(np.eye(8)[m]) for m in range(4)] for name in sets}
        chosen = irlab.mix_ir_sets(given.get("simulated"), given.get("recorded"), strategy,
                                   0, np.random.default_rng(0))
        assert all(any(ir is x for irs in given.values() for x in irs) for ir in chosen)
        for left_out in sets:
            kept = {name: irs for name, irs in given.items() if name != left_out}
            with pytest.raises(InvalidInput, match=f"requires a {left_out} IR set"):
                irlab.mix_ir_sets(kept.get("simulated"), kept.get("recorded"), strategy, 0,
                                  np.random.default_rng(0))

    def test_eval_reports_si_snr_and_positioning(self, scene_dir):
        rendered = scene_dir / "rendered2"
        assert main(["simulate", "--manifest", str(scene_dir / "scene.json"),
                     "--out-dir", str(rendered)]) == 0
        est = scene_dir / "est"
        est.mkdir()
        label = read_wav(rendered / "zone3_label.wav")
        for z in range(1, 5):
            wave = label[0] if z == 3 else np.zeros_like(label[0])
            write_wav(est / f"zone{z}.wav", wave)
        report_path = scene_dir / "report.json"
        assert main(["eval", "--est-dir", str(est), "--label-dir", str(rendered),
                     "--true-zone", "3", "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["positioning_accuracy"] == 1.0
        rows = report["utterances"][0]["rows"]
        zone3 = [r for r in rows if r["zone"] == 3][0]
        assert zone3["si_snr_db"] == 60.0


    @pytest.mark.parametrize("size", CUT_SIZES)
    def test_eval_wav_cut_inside_header_exit_2_without_report(self, tmp_path, size):
        write_cut_wav(tmp_path / "zone1.wav", size)
        report = tmp_path / "eval.json"
        assert main(["eval", "--est-dir", str(tmp_path), "--label-dir", str(tmp_path),
                     "--report", str(report)]) == 2
        assert not report.exists()


class TestIrCommands:
    @pytest.mark.parametrize("size", CUT_SIZES)
    def test_extract_wav_cut_inside_header_exit_2_without_output(self, tmp_path, size):
        write_cut_wav(tmp_path / "rec.wav", size)
        out = tmp_path / "ir.wav"
        assert main(["ir", "extract", "mls", "--order", "8",
                     "--recording", str(tmp_path / "rec.wav"), "--out", str(out)]) == 2
        assert not out.exists()

    def test_gen_and_extract_round_trip(self, tmp_path, rng):
        sweep_path = tmp_path / "sweep.wav"
        assert main(["ir", "gen", "ess", "--duration", "1.0",
                     "--out", str(sweep_path)]) == 0
        sweep = read_wav(sweep_path)
        taps = np.zeros(64)
        taps[9] = 0.8
        recording = np.convolve(sweep[0], taps)
        rec_path = tmp_path / "rec.wav"
        write_wav(rec_path, recording)
        ir_path = tmp_path / "ir.wav"
        assert main(["ir", "extract", "ess", "--duration", "1.0",
                     "--recording", str(rec_path), "--out", str(ir_path),
                     "--ir-length", "64"]) == 0
        extracted = read_wav(ir_path)
        assert np.argmax(np.abs(extracted[0])) == 9

    def test_ism_with_cabin_preset(self, tmp_path):
        out = tmp_path / "cabin_ir.wav"
        assert main(["ir", "ism", "cabin", "--source", "1.2,0.5,0.9",
                     "--mic", "0", "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["cabin_ir.wav"]
        taps = read_wav(out)
        assert wavfile.read(out)[0] == FS and taps.shape[0] == 1

    def test_extract_writes_one_mono_wav(self, tmp_path):
        rec_path = tmp_path / "rec.wav"
        write_wav(rec_path, MlsSpec(order=8).signal())
        out_dir = tmp_path / "irs"
        out_dir.mkdir()
        assert main(["ir", "extract", "mls", "--order", "8",
                     "--recording", str(rec_path), "--out", str(out_dir / "ir.wav"),
                     "--ir-length", "64"]) == 0
        assert [p.name for p in out_dir.iterdir()] == ["ir.wav"]
        taps = read_wav(out_dir / "ir.wav")
        assert wavfile.read(out_dir / "ir.wav")[0] == FS and taps.shape == (1, 64)

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
        assert main(["ir", "ism", "room", "--room", str(tmp_path / "room.json"),
                     "--mic", "0", "--out", str(out)]) == 0
        ir = read_wav(out)
        assert np.any(ir != 0)

    def test_ism_preset_defaults_are_cabin_room_defaults(self, tmp_path):
        out = tmp_path / "ir.wav"
        assert main(["ir", "ism", "cabin", "--source", "1.2,0.5,0.9",
                     "--mic", "2", "--out", str(out)]) == 0
        taps = read_wav(out)
        expected = simulate_ism(cabin_room((1.2, 0.5, 0.9)), 2).taps
        np.testing.assert_array_equal(taps[0], expected.astype(np.float32))

    def test_room_without_reflection_takes_the_default(self, tmp_path):
        (tmp_path / "bare.json").write_text(json.dumps(ROOM))
        (tmp_path / "full.json").write_text(json.dumps({**ROOM, "reflection": 0.35}))
        taps = []
        for name in ("bare", "full"):
            assert main(["ir", "ism", "room", "--room", str(tmp_path / f"{name}.json"),
                         "--mic", "0", "--out", str(tmp_path / f"{name}.wav")]) == 0
            taps.append(read_wav(tmp_path / f"{name}.wav"))
        np.testing.assert_array_equal(taps[0], taps[1])

    @pytest.mark.parametrize("kind", ["ess", "mls", "tsp"])
    def test_gen_defaults_are_excitation_spec_defaults(self, tmp_path, kind):
        out = tmp_path / "exc.wav"
        assert main(["ir", "gen", kind, "--out", str(out)]) == 0
        signal = read_wav(out)
        expected = getattr(irlab, _EXCITATIONS[kind][0])().signal()
        np.testing.assert_array_equal(signal[0], expected.astype(np.float32))

    @pytest.mark.parametrize("kind, values", [
        ("ess", {"f_start": 50.0, "f_end": 7000.0, "duration": 0.5}),
        ("mls", {"order": 9}),
        ("tsp", {"length": 2048, "stretch": 300}),
    ])
    def test_every_flag_of_each_kind_reaches_its_spec_field(self, tmp_path, kind, values):
        spec_class = getattr(irlab, _EXCITATIONS[kind][0])
        fields = dataclasses.fields(spec_class)
        # one flag per field, each of them given here, each value not the default
        assert list(_EXCITATIONS[kind][2]) == [f.name for f in fields] == list(values)
        assert all(values[f.name] != getattr(spec_class(), f.name) for f in fields)
        spec = spec_class(**values)
        flags = [a for name, value in values.items()
                 for a in ("--" + name.replace("_", "-"), str(value))]
        inverse = ["--inverse-out", str(tmp_path / "inv.wav")] if kind == "ess" else []
        assert main(["ir", "gen", kind, *flags, "--out", str(tmp_path / "exc.wav"),
                     *inverse]) == 0
        np.testing.assert_array_equal(read_wav(tmp_path / "exc.wav")[0],
                                      spec.signal().astype(np.float32))
        if inverse:
            np.testing.assert_array_equal(read_wav(tmp_path / "inv.wav")[0],
                                          spec.inverse_filter().astype(np.float32))
        recording = np.convolve(spec.signal(), [0.0, 0.0, 0.5, -0.25])
        write_wav(tmp_path / "rec.wav", recording)
        assert main(["ir", "extract", kind, *flags, "--recording", str(tmp_path / "rec.wav"),
                     "--ir-length", "64", "--out", str(tmp_path / "ir.wav")]) == 0
        expected = extract_ir(read_wav(tmp_path / "rec.wav")[0], spec, ir_length=64)
        np.testing.assert_array_equal(read_wav(tmp_path / "ir.wav")[0],
                                      expected.taps.astype(np.float32))

    def test_ism_requires_geometry(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ir", "ism", "--mic", "0", "--out", str(tmp_path / "x.wav")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.wav").exists()


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

    def test_bench_records_one_blas_thread(self, tmp_path):
        report_path = tmp_path / "bench.json"
        assert main(["bench", "--variant", "S", "--seconds", "0.1", "--runs", "1",
                     "--seed", "1", "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["blas_threads"] == 1

    def test_runs_default_is_rtf_benchmarks(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr("cabinsep.cli.separate_waveform",
                            lambda wave, weights, cfg: ran.append(cfg))
        assert main(["bench", "--variant", "S", "--seconds", "0.1", "--seed", "1",
                     "--report", str(tmp_path / "bench.json")]) == 0
        # one unmeasured call, then the timed runs
        assert len(ran) == 1 + inspect.signature(rtf_benchmark).parameters["runs"].default

    def test_chunk_seconds_lowers_macs(self, tmp_path, monkeypatch):
        # the MACs come from the configuration alone, so the timed runs are skipped
        ran = []
        monkeypatch.setattr("cabinsep.cli.separate_waveform",
                            lambda wave, weights, cfg: ran.append(cfg))
        reports = []
        for extra in ([], ["--chunk-seconds", "1.0"]):
            report_path = tmp_path / f"bench{len(reports)}.json"
            assert main(["bench", "--variant", "S", "--seconds", "4", "--runs", "1",
                         "--seed", "1", "--report", str(report_path), *extra]) == 0
            reports.append(json.loads(report_path.read_text()))
        unbounded, bounded = reports
        assert (unbounded["chunk_lookback_seconds"], bounded["chunk_lookback_seconds"]) \
            == (None, 1.0)
        assert bounded["gmacs_per_second"] < unbounded["gmacs_per_second"]
        assert [cfg.lookback_frames for cfg in ran] == [None, None, 62, 62]

    # 0.3 s is 19 frames, 1.2 s is 75; the lookbacks are 6 and 62 frames
    @pytest.mark.parametrize("seconds, chunk", [(0.3, None), (0.3, 0.1), (1.2, 1.0)])
    def test_kv_cache_bytes_match_the_attended_caches(self, tmp_path, monkeypatch,
                                                      seconds, chunk):
        ran = []
        monkeypatch.setattr("cabinsep.cli.separate_waveform",
                            lambda wave, weights, cfg: ran.append((wave, weights, cfg)))
        report_path = tmp_path / "bench.json"
        extra = [] if chunk is None else ["--chunk-seconds", str(chunk)]
        assert main(["bench", "--variant", "S", "--seconds", str(seconds), "--runs", "1",
                     "--seed", "1", "--report", str(report_path), *extra]) == 0
        report = json.loads(report_path.read_text())
        wave, weights, cfg = ran[-1]
        assert report["lookback_frames"] == cfg.lookback_frames
        net = StreamingMaskNet(weights, cfg)
        spec = analyze(wave)
        for t in range(spec.shape[1]):
            net.step(spec[:, t])
        caches = [cache for _, _, subband in net.blocks for layer in subband.layers
                  for cache in (layer.k_cache, layer.v_cache)]
        assert report["kv_cache_bytes"] == sum(cache.view().nbytes for cache in caches)
        if chunk == 1.0:
            assert report["kv_cache_bytes"] == 8158208  # the README's 8.2 MB

# expected exit code and argv; {out} is the file or directory that must not
# be written, the other names are files written by `bad_input_files`
BAD_INPUTS = {
    "separate_chunk_nan": (3, "separate --input {mix} --weights {weights} "
                              "--chunk-seconds nan --out-dir {out}"),
    "separate_chunk_inf": (3, "separate --input {mix} --weights {weights} "
                              "--chunk-seconds inf --out-dir {out}"),
    # a lookback whose attention rings could not be allocated
    "separate_chunk_huge": (3, "separate --input {mix} --weights {weights} "
                               "--chunk-seconds 1e300 --out-dir {out}"),
    "gen_duration_nan": (3, "ir gen ess --duration nan --out {out}"),
    "gen_duration_inf": (3, "ir gen ess --duration inf --out {out}"),
    # a subnormal start frequency: f_end / f_start overflows, and the sweep was NaN
    "gen_ess_f_start_subnormal": (3, "ir gen ess --f-start 1e-320 --duration 0.01 "
                                     "--out {out}"),
    "bench_seconds_negative": (2, "bench --variant S --seconds -1 --runs 1 --seed 0 "
                                  "--report {out}"),
    "bench_seconds_nan": (2, "bench --variant S --seconds nan --runs 1 --seed 0 "
                             "--report {out}"),
    # refused before its wave would be built
    "bench_seconds_huge": (2, "bench --variant S --seconds 1e12 --runs 1 --seed 0 "
                              "--report {out}"),
    "extract_rate_mismatch": (2, "ir extract mls --order 8 --recording {mls_8k} "
                                 "--out {out}"),
    "extract_negative_ir_length": (2, "ir extract mls --order 4 --recording {mix} "
                                      "--ir-length -3 --out {out}"),
    # channel 0 is silent and channel 1 holds the excitation
    "extract_two_channels": (2, "ir extract mls --order 8 --recording {mls_stereo} "
                                "--out {out}"),
    "ism_ir_length_huge": (3, "ir ism cabin --source 1.2,0.5,0.9 --mic 0 "
                              "--ir-length 1000000000000000 --out {out}"),
    "gen_ess_duration_huge": (3, "ir gen ess --duration 1e9 --out {out}"),
    "gen_tsp_length_huge": (3, "ir gen tsp --length 10000000000000 --out {out}"),
    "ism_reflection_nan": (3, "ir ism cabin --source 1.2,0.5,0.9 --reflection nan "
                              "--mic 0 --out {out}"),
    "ism_source_not_numbers": (2, "ir ism cabin --source x,y,z --mic 0 --out {out}"),
    "ism_source_two_coordinates": (2, "ir ism cabin --source 1,1 --mic 0 "
                                      "--out {out}"),
    "ism_room_invalid_json": (2, "ir ism room --room {room_invalid_json} --mic 0 --out {out}"),
    "ism_room_missing_dimensions": (2, "ir ism room --room {room_missing_dimensions} --mic 0 "
                                       "--out {out}"),
    "ism_room_unknown_key": (2, "ir ism room --room {room_unknown_key} --mic 0 --out {out}"),
    "ism_room_reflection_not_numbers": (3, "ir ism room --room {room_reflection_not_numbers} "
                                           "--mic 0 --out {out}"),
    "ism_max_order_huge": (3, "ir ism cabin --source 1.2,0.5,0.9 --mic 0 "
                              "--max-order 1000000 --out {out}"),
    # a room has no sample rate (IRs are simulated at 16 kHz), so the key is unknown
    # whatever its value
    "ism_room_sample_rate": (2, "ir ism room --room {room_sample_rate} --mic 0 --out {out}"),
    "ism_room_sample_rate_zero": (2, "ir ism room --room {room_sample_rate_zero} --mic 0 "
                                     "--out {out}"),
    "ism_room_sample_rate_negative": (2, "ir ism room --room {room_sample_rate_negative} --mic 0 "
                                         "--out {out}"),
    "ism_room_dimension_infinite": (3, "ir ism room --room {room_dimension_infinite} --mic 0 "
                                       "--out {out}"),
    # a float WAV far beyond full scale, where the float32 network would overflow
    "separate_amplitude_1e20": (2, "separate --input {loud} --weights {weights} "
                                   "--out-dir {out}"),
    "eval_nan_estimate": (2, "eval --est-dir {est_nan} --label-dir {est} --true-zone 1 "
                             "--report {out}"),
    "eval_label_rate_mismatch": (2, "eval --est-dir {est} --label-dir {labels_8k} "
                                    "--report {out}"),
    # every WAV is read at 16 kHz only, also when all the files agree on another rate
    "separate_rate_8k": (2, "separate --input {mix_8k} --weights {weights} --out-dir {out}"),
    "eval_estimate_8k": (2, "eval --est-dir {est_8k} --label-dir {est} --report {out}"),
    "eval_pair_8k": (2, "eval --est-dir {est_8k} --label-dir {est_8k} --report {out}"),
    "simulate_strategy_ir_8k": (2, "simulate --manifest {scene_ok} --out-dir {out} "
                                   "only --recorded-ir-dir {irs_8k}"),
    # a zone estimate or label is one channel; channel 0 of each 2-channel file
    # is the working mono one, so a reader of channel 0 alone would exit 0
    "eval_estimate_two_channels": (2, "eval --est-dir {est_stereo} --label-dir {est} "
                                      "--report {out}"),
    "eval_label_two_channels": (2, "eval --est-dir {est} --label-dir {labels_stereo} "
                                   "--report {out}"),
    # a seed is what np.random.default_rng takes: a non-negative integer
    "init_weights_seed_negative": (2, "init-weights --variant S --seed -1 --out {out}"),
    "bench_seed_negative": (2, "bench --variant S --seconds 0.1 --runs 1 --seed -1 "
                               "--report {out}"),
    "simulate_strategy_seed_negative": (2, "simulate --manifest {scene_ok} --out-dir {out} "
                                           "added --simulated-ir-dir {irs} "
                                           "--recorded-ir-dir {irs} --seed -1"),
    # above 1e6 the loading changes nothing but rounding (and 1e308 overflowed)
    "separate_loading_1e308": (2, "separate --input {mix} --weights {weights} "
                                  "--loading 1e308 --out-dir {out}"),
    "separate_loading_above_1e6": (2, "separate --input {mix} --weights {weights} "
                                      "--loading 1.5e6 --out-dir {out}"),
    # a one-sample sweep is sin(0) = 0, and 1e-9 s rounds to no sample at all
    "gen_ess_duration_1e-9": (3, "ir gen ess --duration 1e-9 --out {out}"),
    "gen_ess_one_sample": (3, "ir gen ess --duration 6.25e-5 --out {out} "
                              "--inverse-out {out}"),
    # the inverse filter cannot be written (its directory {out} is the excitation
    # file, not a directory), so the excitation at {out} is not left behind either
    "gen_ess_inverse_out_missing_dir": (2, "ir gen ess --duration 0.01 --out {out} "
                                           "--inverse-out {out}/inverse.wav"),
    # malformed WAV headers, and a data chunk cut short by 50 whole frames
    "separate_wav_block_align_zero": (2, "separate --input {wav_block_align_zero} "
                                         "--weights {weights} --out-dir {out}"),
    "separate_wav_data_tag_renamed": (2, "separate --input {wav_data_tag_renamed} "
                                         "--weights {weights} --out-dir {out}"),
    "separate_wav_cut_800": (2, "separate --input {wav_cut_800} --weights {weights} "
                                "--out-dir {out}"),
}


def _scene(speaker=None, background=None, transient=None, **top) -> dict:
    """The manifest `bad_input_files` writes as `scene_ok`, with fields replaced."""
    return {"zones": 4,
            "speakers": [{"zone": 2, "speech": "speech.wav",
                          "irs": [f"ir{m}.wav" for m in range(4)], **(speaker or {})}],
            "background": {"file": "noise.wav", "snr_db": 10.0, **(background or {})},
            "transients": [{"file": "click.wav", "snr_db": 0.0, "onset_seconds": 0.1,
                            **(transient or {})}],
            **top}


BAD_SCENES = {
    # malformed values: exit 2, not a traceback, a misread zone or a non-finite scene
    "zones_not_a_number": _scene(zones="four"),
    # a cabin has four zones: a manifest may leave `zones` out, or give the
    # integer 4 (a 2-zone scene would render 2 channels that no model separates)
    "zones_two": _scene(zones=2, speaker={"zone": 1, "irs": ["ir0.wav", "ir1.wav"]}),
    "zones_float": _scene(zones=4.0),
    "zone_not_a_number": _scene(speaker={"zone": "front"}),
    "zone_fraction": _scene(speaker={"zone": 1.9}),
    "zone_bool": _scene(speaker={"zone": True}),
    "speech_not_a_string": _scene(speaker={"speech": 5}),
    "gain_not_a_number": _scene(speaker={"gain": "loud"}),
    "gain_nan": _scene(speaker={"gain": math.nan}),
    "gain_inf": _scene(speaker={"gain": math.inf}),
    "gain_1e300": _scene(speaker={"gain": 1e300}),
    # finite in float64, but beyond what the float32 mixture.wav can hold
    "gain_1e300_no_noise": {"speakers": _scene(speaker={"gain": 1e300})["speakers"]},
    # an integer literal beyond float64's range
    "gain_integer_1e400": _scene(speaker={"gain": 10**400}),
    "snr_not_a_number": _scene(background={"snr_db": "x"}),
    "onset_not_a_number": _scene(transient={"onset_seconds": "soon"}),
    # the manifest's numbers are JSON numbers: a string or a bool holding one is refused
    "gain_string": _scene(speaker={"gain": "0.5"}),
    "gain_bool": _scene(speaker={"gain": True}),
    "snr_string": _scene(background={"snr_db": "5"}),
    "snr_bool": _scene(background={"snr_db": False}),
    "transient_snr_string": _scene(transient={"snr_db": "0"}),
    "onset_string": _scene(transient={"onset_seconds": "0.1"}),
    "onset_nan": _scene(transient={"onset_seconds": math.nan}),
    "onset_inf": _scene(transient={"onset_seconds": math.inf}),
    "sample_rate_not_a_number": _scene(sample_rate="fast"),
    "top_level_array": [_scene()],
    # each file a manifest names is read at 16 kHz only
    "speech_8k": _scene(speaker={"speech": "speech_8k.wav"}),
    "background_8k": _scene(background={"file": "noise_8k.wav"}),
    "transient_8k": _scene(transient={"file": "click_8k.wav"}),
    "ir_8k": _scene(speaker={"irs": ["ir0.wav", "ir1_8k.wav", "ir2.wav", "ir3.wav"]}),
    # speech and transients are one channel; channel 0 of each 2-channel file
    # is the working mono one
    "speech_two_channels": _scene(speaker={"speech": "speech_stereo.wav"}),
    "transient_two_channels": _scene(transient={"file": "click_stereo.wav"}),
    "all_8k": _scene(sample_rate=8000,
                     speaker={"speech": "speech_8k.wav",
                              "irs": [f"ir{m}_8k.wav" for m in range(4)]},
                     background={"file": "noise_8k.wav"}, transient={"file": "click_8k.wav"}),
}
BAD_INPUTS.update({
    f"simulate_{name}": (2, f"simulate --manifest {{scene_{name}}} --out-dir {{out}}")
    for name in BAD_SCENES})


def _saved(save, *args, **kwargs) -> bytes:
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


def _v1_container(w: ModelWeights) -> bytes:
    """The text-header container that earlier versions wrote and read."""
    header = ["CABINSEP-WEIGHTS v1", f"meta fingerprint {w.fingerprint}"]
    header += [f"tensor {name} float32 {'x'.join(map(str, t.shape))}"
               for name, t in w.tensors.items()]
    return "\n".join(header + ["DATA\n"]).encode() + b"".join(
        t.tobytes() for t in w.tensors.values())


def _text_member_archive(w: ModelWeights) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        archive.writestr("fingerprint.npy", _saved(np.save, np.array(w.fingerprint)))
        archive.writestr("notes.txt", "not an array")
    return buf.getvalue()


# malformed weight containers, each built from a valid container's bytes and tensors
BAD_CONTAINERS = {
    "bare_meta": lambda blob, w: b"CABINSEP-WEIGHTS v1\nmeta\nDATA\n",
    "dims_not_numbers": lambda blob, w: (b"CABINSEP-WEIGHTS v1\nmeta fingerprint -\n"
                                         b"tensor decoder.w float32 ax8x3x3\nDATA\n"),
    "empty": lambda blob, w: b"",
    "truncated": lambda blob, w: blob[:-64],
    "float64_member": lambda blob, w: _saved(
        np.savez, fingerprint=np.array(w.fingerprint),
        **{**w.tensors, "decoder.b": w["decoder.b"].astype(np.float64)}),
    "object_member": lambda blob, w: _saved(
        np.savez, fingerprint=np.array(w.fingerprint), **w.tensors,
        rogue=np.array([{}], dtype=object)),
    "no_fingerprint": lambda blob, w: _saved(np.savez, **w.tensors),
    "empty_fingerprint": lambda blob, w: _saved(np.savez, fingerprint=np.array(""),
                                                **w.tensors),
    "single_npy": lambda blob, w: _saved(np.save, w["decoder.w"]),
    "text_member": lambda blob, w: _text_member_archive(w),
    "v1": lambda blob, w: _v1_container(w),
    "nan_member": lambda blob, w: _saved(
        np.savez, fingerprint=np.array(w.fingerprint),
        **{**w.tensors, "head_speech.b": np.array([0, np.nan, 0, 0], np.float32)}),
    "inf_member": lambda blob, w: _saved(
        np.savez, fingerprint=np.array(w.fingerprint),
        **{**w.tensors, "block0.fullband.in_proj.w": w["block0.fullband.in_proj.w"] * np.inf}),
}
# well-formed, but its attention scores are too large for the softmax's shift
BAD_CONTAINERS["wq_x20"] = lambda blob, w: _saved(
    np.savez, fingerprint=np.array(w.fingerprint),
    **{**w.tensors, "block0.subband.layer0.att.wq": 20 * w["block0.subband.layer0.att.wq"]})
BAD_INPUTS.update({
    f"separate_weights_{name}": (2, f"separate --input {{mix}} --weights {{weights_{name}}} "
                                    "--out-dir {out}")
    for name in BAD_CONTAINERS})
# a one-channel input passes through the network unused, but the container is still read
BAD_INPUTS["separate_weights_nan_member_mono"] = (
    2, "separate --input {mono} --weights {weights_nan_member} --out-dir {out}")
# the network refuses that one when it is built, as weights that do not fit it
BAD_INPUTS["separate_weights_wq_x20"] = (
    3, "separate --input {mix} --weights {weights_wq_x20} --out-dir {out}")


@pytest.fixture(scope="module")
def bad_container_files(tmp_path_factory, weights_file):
    directory = tmp_path_factory.mktemp("bad_weights")
    blob, weights = weights_file.read_bytes(), ModelWeights.load(weights_file)
    files = {}
    for name, build in BAD_CONTAINERS.items():
        files[f"weights_{name}"] = directory / f"{name}.bin"
        files[f"weights_{name}"].write_bytes(build(blob, weights))
    return files


@pytest.fixture
def bad_input_files(tmp_path, rng, weights_file, bad_container_files):
    files = {"mix": tmp_path / "mix.wav", "out": tmp_path / "out", **bad_container_files}
    write_mixture(files["mix"], rng)
    blob = files["mix"].read_bytes()
    fmt, data = blob.index(b"fmt "), blob.index(b"data")
    for name, bad in {"wav_block_align_zero": blob[:fmt + 20] + bytes(2) + blob[fmt + 22:],
                      "wav_data_tag_renamed": blob[:data] + b"dat4" + blob[data + 4:],
                      "wav_cut_800": blob[:-800]}.items():
        files[name] = tmp_path / f"{name}.wav"
        files[name].write_bytes(bad)
    rooms = {"room_ok": json.dumps(ROOM),
             "room_invalid_json": "{",
             "room_missing_dimensions": json.dumps(
                 {k: v for k, v in ROOM.items() if k != "dimensions"}),
             "room_unknown_key": json.dumps({**ROOM, "absorption": 0.2}),
             "room_reflection_not_numbers": json.dumps({**ROOM, "reflection": ["a"] * 6}),
             "room_sample_rate": json.dumps({**ROOM, "sample_rate": FS}),
             "room_sample_rate_zero": json.dumps({**ROOM, "sample_rate": 0}),
             "room_sample_rate_negative": json.dumps({**ROOM, "sample_rate": -16000}),
             "room_dimension_infinite": json.dumps(
                 {**ROOM, "dimensions": [math.inf, 2.0, 1.5]})}
    for name, text in rooms.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text)
    # zone 2 is the quieter estimate, and one NaN sample must not make it the loudest
    estimates = rng.standard_normal((2, FS // 2)) * np.array([[0.5], [0.05]])
    for name, nan in (("est", False), ("est_nan", True)):
        files[name] = tmp_path / name
        files[name].mkdir()
        for z, wave in enumerate(estimates, start=1):
            if nan and z == 2:
                wave = wave.copy()
                wave[100] = np.nan
            write_wav(files[name] / f"zone{z}.wav", wave)
    for name, wav in (("est_stereo", "zone1.wav"), ("labels_stereo", "zone1_label.wav")):
        files[name] = tmp_path / name
        files[name].mkdir()
        write_wav(files[name] / wav, np.stack([estimates[0], estimates[1]]))
    (files["est_stereo"] / "zone2.wav").write_bytes((files["est"] / "zone2.wav").read_bytes())
    files["labels_8k"] = tmp_path / "labels_8k"
    files["labels_8k"].mkdir()
    wavfile.write(files["labels_8k"] / "zone1_label.wav", FS // 2,
                  estimates[0, ::2].astype(np.float32))
    files["mono"] = tmp_path / "mono.wav"
    write_mixture(files["mono"], rng, channels=1)
    files["loud"] = tmp_path / "loud.wav"
    write_wav(files["loud"], 1e20 * rng.standard_normal((4, FS // 2)))
    files["mls_8k"] = tmp_path / "mls_8k.wav"
    wavfile.write(files["mls_8k"], FS // 2,
                  MlsSpec(order=8).signal().astype(np.float32))
    files["mls_stereo"] = tmp_path / "mls_stereo.wav"
    mls = MlsSpec(order=8).signal()
    write_wav(files["mls_stereo"], np.stack([np.zeros_like(mls), mls]))
    files["mls"] = tmp_path / "mls.wav"
    write_wav(files["mls"], mls)
    files["weights"] = weights_file
    files["mix_8k"] = tmp_path / "mix_8k.wav"
    wavfile.write(files["mix_8k"], FS // 2, read_wav(files["mix"]).T.astype(np.float32))
    files["est_8k"] = tmp_path / "est_8k"
    files["est_8k"].mkdir()
    for z, wave in enumerate(estimates, start=1):
        wavfile.write(files["est_8k"] / f"zone{z}.wav", FS // 2, wave.astype(np.float32))
    scene = tmp_path / "scene"
    (scene / "irs_8k").mkdir(parents=True)
    (scene / "irs").mkdir()
    waves = {"speech": rng.standard_normal(4000) * 0.1,
             "noise": rng.standard_normal(2000) * 0.1,
             "click": rng.standard_normal(200) * 0.1}
    for m in range(4):
        waves[f"ir{m}"] = np.zeros(16)
        waves[f"ir{m}"][m + 1] = 1.0
        wavfile.write(scene / "irs_8k" / f"mic{m}.wav", FS // 2,
                      waves[f"ir{m}"].astype(np.float32))
        write_wav(scene / "irs" / f"mic{m}.wav", waves[f"ir{m}"])
    for name, wave in waves.items():
        write_wav(scene / f"{name}.wav", wave)
        wavfile.write(scene / f"{name}_8k.wav", FS // 2, wave.astype(np.float32))
        write_wav(scene / f"{name}_stereo.wav", np.stack([wave, wave[::-1]]))
    files["irs_8k"] = scene / "irs_8k"
    files["irs"] = scene / "irs"
    for name, doc in {"ok": _scene(), **BAD_SCENES}.items():
        files[f"scene_{name}"] = scene / f"{name}.json"
        files[f"scene_{name}"].write_text(json.dumps(doc))
    return files


def test_bad_input_fixtures_differ_from_working_inputs(bad_input_files):
    """The manifest the bad scenes vary renders, the estimates evaluate, the
    largest loading and the shortest sweep run, and each usage error's command
    runs without its foreign flags."""
    files = bad_input_files
    assert main(["simulate", "--manifest", str(files["scene_ok"]),
                 "--out-dir", str(files["out"] / "scene")]) == 0
    for argv in ("only --recorded-ir-dir {irs}", "simulated --simulated-ir-dir {irs}",
                 "mixed --simulated-ir-dir {irs} --recorded-ir-dir {irs}",
                 "added --simulated-ir-dir {irs} --recorded-ir-dir {irs} --seed 0"):
        assert main(["simulate", "--manifest", str(files["scene_ok"]),
                     "--out-dir", str(files["out"] / argv.split()[0])]
                    + [a.format(**files) for a in argv.split()]) == 0
    assert main(["separate", "--input", str(files["mix"]), "--weights", str(files["weights"]),
                 "--loading", "1e6", "--out-dir", str(files["out"] / "loaded")]) == 0
    assert main(["ir", "gen", "ess", "--duration", "1.25e-4",
                 "--out", str(files["out"] / "sweep.wav"),
                 "--inverse-out", str(files["out"] / "inverse.wav")]) == 0
    assert main(["eval", "--est-dir", str(files["est"]), "--label-dir", str(files["est"]),
                 "--report", str(files["out"] / "eval.json")]) == 0
    for argv in ("ir gen mls --order 4", "ir gen tsp --length 64",
                 "ir extract mls --order 8 --recording {mls}",
                 "ir ism room --room {room_ok} --mic 0", "ir ism cabin --source 1,1,1 --mic 0"):
        assert main([a.format(**files) for a in argv.split()]
                    + ["--out", str(files["out"] / "exc.wav")]) == 0


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_defined_exit_without_output(case, bad_input_files):
    expected, argv = BAD_INPUTS[case]
    assert main([a.format(**bad_input_files) for a in argv.split()]) == expected
    assert not bad_input_files["out"].exists()


# each `ir gen`/`ir extract` kind, `ir ism` room and `simulate` strategy
# declares only the flags it reads, so a flag of another kind, `--inverse-out`
# (the ESS inverse filter) under MLS or TSP, or a missing flag is an argparse
# usage error: exit 2 before anything is written
USAGE_ERRORS = {
    "gen_mls_inverse_out": "ir gen mls --order 4 --out {out} --inverse-out {out}",
    "gen_tsp_inverse_out": "ir gen tsp --length 64 --out {out} --inverse-out {out}",
    "gen_mls_stretch": "ir gen mls --order 4 --stretch 3 --out {out}",
    "gen_mls_tsp_and_ess_flags": "ir gen mls --order 4 --stretch 3 --f-start 100 "
                                 "--duration 9 --out {out}",
    "gen_tsp_order": "ir gen tsp --length 64 --order 9 --out {out}",
    "extract_mls_f_start": "ir extract mls --order 8 --recording {mls} --f-start 100 "
                           "--out {out}",
    "extract_without_kind": "ir extract --duration 1 --recording {mls} --out {out}",
    # a room file holds the whole room, and the cabin room needs its source
    "ism_room_with_preset": "ir ism room --room {room_ok} --preset cabin --mic 0 --out {out}",
    "ism_room_with_source": "ir ism room --room {room_ok} --source 1,1,1 --mic 0 --out {out}",
    "ism_room_with_reflection": "ir ism room --room {room_ok} --reflection 0.2 --mic 0 "
                                "--out {out}",
    "ism_room_with_max_order": "ir ism room --room {room_ok} --max-order 0 --mic 0 --out {out}",
    "ism_room_with_ir_length": "ir ism room --room {room_ok} --ir-length 64 --mic 0 --out {out}",
    "ism_cabin_without_source": "ir ism cabin --mic 0 --out {out}",
    # each strategy takes the IR sets it reads, and only `added` draws with a seed
    "simulate_simulated_ir_dir_without_strategy": "simulate --manifest {scene_ok} "
                                                  "--out-dir {out} --simulated-ir-dir {irs}",
    "simulate_recorded_ir_dir_without_strategy": "simulate --manifest {scene_ok} "
                                                 "--out-dir {out} --recorded-ir-dir {irs}",
    "simulate_seed_without_strategy": "simulate --manifest {scene_ok} --out-dir {out} --seed 5",
    "simulate_only_with_simulated_ir_dir": "simulate --manifest {scene_ok} --out-dir {out} "
                                           "only --recorded-ir-dir {irs} "
                                           "--simulated-ir-dir {irs}",
    "simulate_simulated_with_recorded_ir_dir": "simulate --manifest {scene_ok} --out-dir {out} "
                                               "simulated --simulated-ir-dir {irs} "
                                               "--recorded-ir-dir {irs}",
    "simulate_mixed_with_seed": "simulate --manifest {scene_ok} --out-dir {out} "
                                "mixed --simulated-ir-dir {irs} --recorded-ir-dir {irs} "
                                "--seed 0",
    "simulate_added_without_seed": "simulate --manifest {scene_ok} --out-dir {out} "
                                   "added --simulated-ir-dir {irs} --recorded-ir-dir {irs}",
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exit_2_without_output(case, bad_input_files):
    with pytest.raises(SystemExit) as exc:
        main([a.format(**bad_input_files) for a in USAGE_ERRORS[case].split()])
    assert exc.value.code == 2
    assert not bad_input_files["out"].exists()


# refused before the SNR factors square the speech, so numpy warns of no overflow
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["simulate_gain_1e300", "simulate_gain_1e300_no_noise"])
def test_huge_gain_refused_without_numpy_warnings(case, bad_input_files):
    _, argv = BAD_INPUTS[case]
    assert main([a.format(**bad_input_files) for a in argv.split()]) == 2


@pytest.mark.parametrize("case, wav", [
    ("simulate_speech_two_channels", "scene/speech_stereo.wav"),
    ("simulate_transient_two_channels", "scene/click_stereo.wav"),
    ("eval_estimate_two_channels", "est_stereo/zone1.wav"),
    ("eval_label_two_channels", "labels_stereo/zone1_label.wav"),
])
def test_multichannel_wav_error_names_file_and_channels(case, wav, bad_input_files, capsys):
    _, argv = BAD_INPUTS[case]
    assert main([a.format(**bad_input_files) for a in argv.split()]) == 2
    err = capsys.readouterr().err
    assert str(bad_input_files["mix"].parent / wav) in err
    assert "exactly one channel, got 2" in err


@pytest.mark.parametrize("zone", [0, 3])
def test_true_zone_error_names_the_zone_as_given(zone, bad_input_files, capsys):
    """--true-zone is 1-based, and the estimates hold zones 1 and 2."""
    files = bad_input_files
    assert main(["eval", "--est-dir", str(files["est"]), "--label-dir", str(files["est"]),
                 "--true-zone", str(zone), "--report", str(files["out"])]) == 2
    assert not files["out"].exists()
    assert f"--true-zone {zone} outside [1, 2]" in capsys.readouterr().err
