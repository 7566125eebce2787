#!/usr/bin/env python3
"""SHA-256 of every named output of a fixed, seeded run, printed as JSON.

Runs seeded inputs through the public API and `cabinsep.cli.main` in a
temporary directory: the S/M/L fingerprints and `init-weights` containers,
`separate` at the default and at a 1 s lookback, `simulate` without and with
each strategy, `eval` of the `separate` outputs against the scene labels,
`ir gen`, `ir extract` and `ir ism`, and four
`sample_cabin_scene` renders with their oracle masks, `separate_stream`
outputs and `forward` masks. A change is compared with its parent in one diff:

    PYTHONPATH=<parent>/src python3 scripts/output_digest.py > parent.json
    PYTHONPATH=<change>/src python3 scripts/output_digest.py > change.json
    diff parent.json change.json

Digests depend on the host's BLAS summation order, so none are committed.
A name, once given, keeps its meaning; the set may grow.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from cabinsep import augment
from cabinsep.cli import main as cli_main
from cabinsep.dsp import read_wav, write_wav
from cabinsep.model import forward, init_random, variant_config
from cabinsep.mvdr import separate_stream

# (strategy, flags): each `simulate` strategy with the IR sets it reads
STRATEGIES = (
    ("mixed", ["--simulated-ir-dir", "sim", "--recorded-ir-dir", "rec"]),
    ("added", ["--simulated-ir-dir", "sim", "--recorded-ir-dir", "rec", "--seed", 3]),
    ("only", ["--recorded-ir-dir", "rec"]),
    ("simulated", ["--simulated-ir-dir", "sim"]),
)
SCENE_ZONES = ([0, 2], [1, 3], [0], [0, 1, 2, 3])
# (name, kind, flags): each kind at its defaults and with every flag it takes
EXCITATIONS = (
    ("ess", "ess", []),
    ("ess_flags", "ess", ["--f-start", "50", "--f-end", "7000", "--duration", "0.5"]),
    ("mls", "mls", []),
    ("mls_flags", "mls", ["--order", "12"]),
    ("tsp", "tsp", []),
    ("tsp_flags", "tsp", ["--length", "8192"]),
    ("tsp_stretch", "tsp", ["--length", "8192", "--stretch", "1500"]),
)


def _array_digest(array) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str} {array.shape}\n".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"cabinsep {' '.join(map(str, argv))} exited {code}")


def _write_inputs(rng: np.random.Generator, seconds: float) -> None:
    """The 4-channel mixture, the scene sources and the manifest, in the working directory."""
    n = int(seconds * 16000)
    write_wav("mix.wav", 0.05 * rng.standard_normal((4, n)))
    envelope = np.abs(np.sin(np.linspace(0.0, 3.0 * np.pi, n)))
    write_wav("speech.wav", 0.3 * envelope * rng.standard_normal(n))
    write_wav("noise.wav", 0.1 * rng.standard_normal(n // 2))
    write_wav("click.wav", 0.2 * rng.standard_normal(160))
    Path("room.json").write_text(json.dumps({
        "dimensions": [2.8, 1.5, 1.2], "source": [1.1, 0.4, 0.9],
        "mics": [[1.05, 0.22, 1.08], [1.05, 1.28, 1.08], [2.05, 0.22, 1.08], [2.05, 1.28, 1.08]],
        "reflection": [0.5, 0.4, 0.3, 0.3, 0.2, 0.6], "max_order": 2, "ir_length": 512}))
    Path("scene.json").write_text(json.dumps({
        "speakers": [{"zone": 0, "speech": "speech.wav",
                      "irs": [f"sim/mic{m}.wav" for m in range(4)], "gain": 0.8}],
        "background": {"file": "noise.wav", "snr_db": 10.0},
        "transients": [{"file": "click.wav", "snr_db": 0.0, "onset_seconds": 0.1}]}))


def _ir_outputs(excitations) -> None:
    """`ir ism` into two IR sets, `ir gen` for each excitation, `ir extract` of each."""
    for m in range(4):
        _cli("ir", "ism", "cabin", "--source", "1.15,0.42,0.9", "--mic", m,
             "--max-order", 2, "--ir-length", 512, "--out", f"sim/mic{m}.wav")
        _cli("ir", "ism", "room", "--room", "room.json", "--mic", m, "--out", f"rec/mic{m}.wav")
    room_ir = read_wav("rec/mic0.wav")[0]
    for name, kind, flags in excitations:
        flags = [kind, *flags]
        inverse = ["--inverse-out", f"ir/{name}_inverse.wav"] if kind == "ess" else []
        _cli("ir", "gen", *flags, "--out", f"ir/{name}.wav", *inverse)
        write_wav(f"ir/{name}_rec.wav", np.convolve(read_wav(f"ir/{name}.wav")[0], room_ir))
        _cli("ir", "extract", *flags, "--recording", f"ir/{name}_rec.wav",
             "--ir-length", 256, "--out", f"ir/{name}_ir.wav")


def _cli_outputs(out: dict, variants, lookbacks) -> None:
    """`init-weights`, `separate`, `simulate` and `eval` through the command line."""
    pairs = []
    for variant in variants:
        out[f"fingerprint/{variant}"] = hashlib.sha256(
            variant_config(variant).fingerprint().encode()).hexdigest()
        _cli("init-weights", "--variant", variant, "--seed", 0, "--out", f"{variant}.bin")
        for lookback in lookbacks:
            extra = [] if lookback is None else ["--chunk-seconds", lookback]
            _cli("separate", "--input", "mix.wav", "--weights", f"{variant}.bin",
                 "--variant", variant, *extra, "--out-dir", f"sep/{variant}_{lookback}")
            pairs += ["--est-dir", f"sep/{variant}_{lookback}", "--label-dir", "scene/plain",
                      "--true-zone", 1]
    _cli("simulate", "--manifest", "scene.json", "--out-dir", "scene/plain")
    for strategy, flags in STRATEGIES:
        _cli("simulate", "--manifest", "scene.json", "--out-dir", f"scene/{strategy}",
             strategy, *flags)
    _cli("eval", *pairs, "--report", "eval.json")


def _scene_outputs(out: dict, scenes, seconds: float) -> None:
    """Seeded scene renders, their oracle masks, beamformer outputs and S masks."""
    cfg = variant_config("S")
    weights = init_random(cfg, 0)
    for seed, zones in enumerate(scenes):
        render = augment.sample_cabin_scene(np.random.default_rng(seed), zones,
                                            duration_seconds=seconds)
        spec, masks = augment.oracle_masks(render)
        net_masks = forward(spec, weights, cfg)
        for name, array in (("mixture", render.mixture), ("noise_label", render.noise_label),
                            ("zone_images", render.zone_images), ("spectrogram", spec),
                            ("oracle_speech", masks.speech), ("oracle_noise", masks.noise),
                            ("separate_stream", separate_stream(spec, masks)),
                            ("forward_speech", net_masks.speech),
                            ("forward_noise", net_masks.noise)):
            out[f"scene/{seed}/{name}"] = _array_digest(array)


def digests(quick: bool = False) -> dict[str, str]:
    """Name -> SHA-256 of every output; `quick` runs a reduced set for the smoke test."""
    variants, lookbacks = (("S",), (None,)) if quick else (("S", "M", "L"), (None, 1.0))
    seconds = 0.25 if quick else 1.0
    out: dict[str, str] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the reports free of the temporary name
        try:
            for sub in ("sim", "rec", "ir", "sep", "scene"):
                os.mkdir(sub)
            _write_inputs(np.random.default_rng(12), seconds)
            _ir_outputs(EXCITATIONS)
            _cli_outputs(out, variants, lookbacks)
            _scene_outputs(out, SCENE_ZONES[:1] if quick else SCENE_ZONES, seconds)
            for path in sorted(Path(".").rglob("*")):
                if path.is_file():
                    out[f"file/{path.as_posix()}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return dict(sorted(out.items()))


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    json.dump(digests(), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
