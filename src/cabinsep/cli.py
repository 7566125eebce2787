"""Command-line interface.

Subcommands: separate, simulate, ir (gen/extract/ism), eval, bench,
init-weights. Exit codes: 0 ok, 2 input error (`InvalidInput`, or a file
that cannot be read), 3 config/weights error (`InvalidConfig`).
Commands validate their inputs before writing any output file. `separate`
takes its model from `--variant` (and `--chunk-seconds`), and exits 3 when
the weight container was written for another architecture: other tensor
shapes, or a fingerprint that differs from the configuration's (the
attention lookback is not part of it).

The `simulate` and `ir` handlers import the IR lab and scene synthesis
themselves: both import scipy.signal, which `separate`, `eval`, `bench` and
`init-weights` never run, so those commands start without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE, StftConfig, _read_mono, read_wav, write_wav
from .errors import InvalidConfig, InvalidInput
from .metrics import (
    PositioningEntry,
    PositioningResult,
    rtf_benchmark,
    si_snr,
    zone_positioning,
)
from .model import (
    VARIANT_PRESETS,
    ModelWeights,
    count_macs,
    count_params,
    init_random,
    variant_config,
)
from .mvdr import MvdrConfig
from .pipeline import separate_waveform

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3

# longest `bench` input: the wave, its whole-file spectrograms and masks stay
# in memory, ≈4.9 MB per audio second, so 600 s peaks near 3 GB
_MAX_BENCH_SECONDS = 600.0


def _given(args, *names) -> dict:
    """The named flags the user gave, for a constructor that owns their defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------

def cmd_separate(args) -> int:
    wave = read_wav(args.input)
    cfg = variant_config(args.variant, **_given(args, "chunk_lookback_seconds"))
    if not args.weights and wave.shape[0] > 1:
        raise InvalidConfig("multichannel separation requires --weights")
    weights = ModelWeights.load(args.weights) if args.weights else None
    mvdr_cfg = MvdrConfig(**_given(args, "forgetting", "loading"))
    result = separate_waveform(wave, weights, cfg, mvdr_cfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for z in range(result.zones.shape[0]):
        name = f"zone{z + 1}.wav"
        write_wav(out_dir / name, result.zones[z])
        names.append(name)
    report = {
        "input": str(args.input),
        "zones": int(result.zones.shape[0]),
        "samples": int(result.zones.shape[1]),
        "outputs": names,
        "per_zone_rms": [float(np.sqrt(np.mean(result.zones[z] ** 2)))
                         for z in range(result.zones.shape[0])],
        "mvdr": asdict(mvdr_cfg),
    }
    (out_dir / "separate_report.json").write_text(json.dumps(report, indent=2))
    print(f"wrote {len(names)} zone files to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_ir_set(directory):
    """Per-microphone IR set from a directory of mic0.wav .. mic3.wav."""
    from . import irlab

    directory = Path(directory)
    irs = []
    for m in range(irlab.ZONES):
        path = directory / f"mic{m}.wav"
        if not path.exists():
            raise InvalidInput(f"IR set {directory} is missing {path.name}")
        irs.append(irlab.read_ir(path))
    return irs


def cmd_simulate(args) -> int:
    from . import augment, irlab

    if not args.strategy and (args.simulated_ir_dir or args.recorded_ir_dir):
        raise InvalidInput("the IR-set directories are read with --strategy only")
    manifest = augment.SceneManifest.from_json(Path(args.manifest).read_text())
    irs_by_zone = None
    if args.strategy:
        if args.seed is None:
            raise InvalidConfig("--strategy draws an IR assignment and requires --seed")
        # an IR set holds one source position, so it can render one speaker only
        if (count := len(manifest.speakers)) > 1:
            raise InvalidInput(f"--strategy renders one speaker, the manifest has {count}")
        simulated = _load_ir_set(args.simulated_ir_dir) if args.simulated_ir_dir else None
        recorded = _load_ir_set(args.recorded_ir_dir) if args.recorded_ir_dir else None
        rng = np.random.default_rng(args.seed)
        irs_by_zone = {
            entry.zone: irlab.mix_ir_sets(simulated, recorded, args.strategy,
                                          entry.zone, rng)
            for entry in manifest.speakers
        }
    render = augment.mix_scene(manifest, base_dir=Path(args.manifest).parent,
                               irs_by_zone=irs_by_zone)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(out_dir / "mixture.wav", render.mixture)
    for zone in render.occupied_zones:
        write_wav(out_dir / f"zone{zone + 1}_label.wav", render.speech_labels[zone])
    write_wav(out_dir / "noise_label.wav", render.noise_label)
    (out_dir / "scene_report.json").write_text(json.dumps({
        "manifest": str(args.manifest),
        "zones": irlab.ZONES,
        "occupied_zones": [z + 1 for z in render.occupied_zones],
        "samples": int(render.mixture.shape[1]),
    }, indent=2))
    print(f"rendered scene with zones {render.occupied_zones} to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ir
# ---------------------------------------------------------------------------

def _excitation_spec(args):
    from . import irlab

    return irlab.ExcitationSpec(**_given(args, "kind", "f_start", "f_end", "duration",
                                         "order", "length", "stretch"))


def cmd_ir_gen(args) -> int:
    from . import irlab

    if args.inverse_out and args.kind != "ess":
        raise InvalidInput("--inverse-out writes the ESS inverse filter; use it with --kind ess")
    spec = _excitation_spec(args)
    signal = irlab.gen_excitation(spec)
    write_wav(args.out, signal)
    if args.inverse_out:
        write_wav(args.inverse_out, irlab.inverse_filter_ess(spec))
    print(f"wrote {args.kind} excitation ({signal.shape[0]} samples) to {args.out}")
    return EXIT_OK


def cmd_ir_extract(args) -> int:
    from . import irlab

    spec = _excitation_spec(args)
    recording = _read_mono(args.recording, "a recording")
    ir = irlab.extract_ir(recording, spec, **_given(args, "ir_length"))
    irlab.write_ir(args.out, ir)
    print(f"extracted {ir.taps.size}-tap IR to {args.out}")
    return EXIT_OK


def cmd_ir_ism(args) -> int:
    from . import irlab

    if args.room:
        if given := _given(args, "preset", "source", "reflection", "max_order", "ir_length"):
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise InvalidInput(f"--room holds the whole room; {flags} cannot be given with it")
        try:
            room = irlab.RoomSpec(**json.loads(Path(args.room).read_text()))
        except (json.JSONDecodeError, TypeError) as exc:
            raise InvalidInput(f"{args.room}: not a RoomSpec JSON object ({exc})") from None
    elif args.preset == "cabin":
        if not args.source:
            raise InvalidInput("--preset cabin requires --source x,y,z")
        try:
            source = tuple(float(v) for v in args.source.split(","))
        except ValueError:
            raise InvalidInput(f"--source {args.source!r} is not x,y,z in meters") from None
        room = irlab.cabin_room(source,
                                **_given(args, "reflection", "max_order", "ir_length"))
    else:
        raise InvalidInput("provide --room FILE or --preset cabin")
    ir = irlab.simulate_ism(room, args.mic)
    irlab.write_ir(args.out, ir)
    print(f"simulated IR (mic {args.mic}, {room.ir_length} taps) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _eval_pair(est_dir: Path, label_dir: Path,
               true_zone: int | None) -> tuple[dict, PositioningEntry | None]:
    rows = []
    zones = []
    zone = 1
    while (est_dir / f"zone{zone}.wav").exists():
        est = _read_mono(est_dir / f"zone{zone}.wav", "a zone estimate")
        label_path = label_dir / f"zone{zone}_label.wav"
        if not label_path.exists():
            label_path = label_dir / f"zone{zone}.wav"
        zones.append(est)
        if label_path.exists():
            label = _read_mono(label_path, "a label")
            n = min(est.shape[0], label.shape[0])
            rows.append({"zone": zone, "si_snr_db": si_snr(est[:n], label[:n])})
        zone += 1
    if not zones:
        raise InvalidInput(f"no zone*.wav files found in {est_dir}")
    report = {"estimates": str(est_dir), "rows": rows}
    if rows:
        report["si_snr_mean_db"] = float(np.mean([r["si_snr_db"] for r in rows]))
    entry = None
    if true_zone is not None:
        if not 1 <= true_zone <= len(zones):
            raise InvalidInput(
                f"--true-zone {true_zone} outside [1, {len(zones)}], the zones of {est_dir}")
        length = min(z.shape[0] for z in zones)
        entry = zone_positioning(np.stack([z[:length] for z in zones]), true_zone - 1)
        report["positioning"] = {
            "true_zone": true_zone,
            "predicted_zone": None if entry.predicted_zone is None
            else entry.predicted_zone + 1,
        }
    return report, entry


def cmd_eval(args) -> int:
    est_dirs = [Path(p) for p in args.est_dir]
    label_dirs = [Path(p) for p in args.label_dir]
    if len(est_dirs) != len(label_dirs):
        raise InvalidInput("--est-dir and --label-dir must be given the same number of times")
    true_zones = args.true_zone or [None] * len(est_dirs)
    if len(true_zones) != len(est_dirs):
        raise InvalidInput("--true-zone must be given once per --est-dir (or not at all)")

    pairs = [_eval_pair(e, l, t) for e, l, t in zip(est_dirs, label_dirs, true_zones)]

    aggregate = {"utterances": [report for report, _ in pairs]}
    positioning = PositioningResult([entry for _, entry in pairs if entry is not None])
    if positioning.entries:
        aggregate["positioning_accuracy"] = positioning.accuracy
    text = json.dumps(aggregate, indent=2)
    if args.report:
        Path(args.report).write_text(text)
        print(f"wrote evaluation report to {args.report}")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    cfg = variant_config(args.variant, **_given(args, "chunk_lookback_seconds"))
    if args.seconds > _MAX_BENCH_SECONDS:
        raise InvalidInput(f"--seconds {args.seconds:g} exceeds {_MAX_BENCH_SECONDS:g}")
    macs = count_macs(cfg, seconds=args.seconds)  # rejects a bad length before the wave is built
    weights = init_random(cfg, args.seed)
    rng = np.random.default_rng(args.seed)
    samples = int(args.seconds * DEFAULT_SAMPLE_RATE)
    wave = rng.standard_normal((cfg.zones, samples)) * 0.05

    def run():
        separate_waveform(wave, weights, cfg)

    rtf = rtf_benchmark(run, args.seconds, **_given(args, "runs"))
    frames = -(-samples // StftConfig.hop)  # as analyze frames the wave
    report = {
        "variant": args.variant,
        "chunk_lookback_seconds": cfg.chunk_lookback_seconds,
        "lookback_frames": cfg.lookback_frames,
        "kv_cache_bytes": cfg.kv_cache_bytes(frames),
        "params": count_params(cfg),
        "gmacs_per_second": macs.gmacs_per_second,
        "mac_items": macs.items,
        **rtf.to_dict(),
    }
    text = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(text)
        print(f"wrote benchmark report to {args.report}")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# init-weights
# ---------------------------------------------------------------------------

def cmd_init_weights(args) -> int:
    cfg = variant_config(args.variant)
    weights = init_random(cfg, args.seed)
    weights.save(args.out)
    print(f"wrote {args.variant} weights (seed {args.seed}, "
          f"{count_params(cfg)} params) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cabinsep",
                                     description="Multi-zone in-cabin speech separation")
    sub = parser.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="separate a Z-channel mixture into zone files")
    sep.add_argument("--input", required=True)
    sep.add_argument("--weights")
    sep.add_argument("--out-dir", required=True)
    sep.add_argument("--variant", choices=tuple(VARIANT_PRESETS), default="S")
    sep.add_argument("--lambda", dest="forgetting", type=float,
                     help="covariance forgetting factor")
    sep.add_argument("--loading", type=float)
    sep.add_argument("--chunk-seconds", dest="chunk_lookback_seconds", type=float,
                     help="limit conformer attention lookback")
    sep.set_defaults(func=cmd_separate)

    sim = sub.add_parser("simulate", help="render a scene manifest to WAV files")
    sim.add_argument("--manifest", required=True)
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--strategy", choices=("mixed", "added", "only", "simulated"),
                     help="draw the one speaker's IR assignment from IR-set directories")
    sim.add_argument("--simulated-ir-dir", help="directory of mic0.wav..mic3.wav")
    sim.add_argument("--recorded-ir-dir", help="directory of mic0.wav..mic3.wav")
    sim.add_argument("--seed", type=int, help="required with --strategy")
    sim.set_defaults(func=cmd_simulate)

    ir = sub.add_parser("ir", help="impulse-response tools")
    ir_sub = ir.add_subparsers(dest="ir_command", required=True)

    def add_excitation_args(p):
        p.add_argument("--kind", choices=("ess", "mls", "tsp"), required=True)
        p.add_argument("--f-start", type=float)
        p.add_argument("--f-end", type=float)
        p.add_argument("--duration", type=float)
        p.add_argument("--order", type=int)
        p.add_argument("--length", type=int)
        p.add_argument("--stretch", type=int)

    gen = ir_sub.add_parser("gen", help="generate an excitation signal")
    add_excitation_args(gen)
    gen.add_argument("--out", required=True)
    gen.add_argument("--inverse-out", help="also write the ESS inverse filter")
    gen.set_defaults(func=cmd_ir_gen)

    ext = ir_sub.add_parser("extract", help="deconvolve a recorded excitation")
    add_excitation_args(ext)
    ext.add_argument("--recording", required=True)
    ext.add_argument("--out", required=True)
    ext.add_argument("--ir-length", type=int)
    ext.set_defaults(func=cmd_ir_extract)

    ism = ir_sub.add_parser("ism", help="simulate a shoebox impulse response")
    ism.add_argument("--room", help="RoomSpec JSON file")
    ism.add_argument("--preset", choices=("cabin",))
    ism.add_argument("--source", help="x,y,z meters (with --preset)")
    ism.add_argument("--reflection", type=float)
    ism.add_argument("--max-order", type=int)
    ism.add_argument("--ir-length", type=int)
    ism.add_argument("--mic", type=int, required=True)
    ism.add_argument("--out", required=True)
    ism.set_defaults(func=cmd_ir_ism)

    ev = sub.add_parser("eval", help="SI-SNR / positioning report")
    ev.add_argument("--est-dir", action="append", required=True)
    ev.add_argument("--label-dir", action="append", required=True)
    ev.add_argument("--true-zone", action="append", type=int,
                    help="1-based true zone, once per --est-dir")
    ev.add_argument("--report")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="RTF and MAC report for a variant")
    bench.add_argument("--variant", choices=tuple(VARIANT_PRESETS), required=True)
    bench.add_argument("--seconds", type=float, default=4.0)
    bench.add_argument("--runs", type=int)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--chunk-seconds", dest="chunk_lookback_seconds", type=float,
                       help="limit conformer attention lookback")
    bench.add_argument("--report")
    bench.set_defaults(func=cmd_bench)

    init = sub.add_parser("init-weights", help="write a random weight container")
    init.add_argument("--variant", choices=tuple(VARIANT_PRESETS), required=True)
    init.add_argument("--seed", type=int, required=True)
    init.add_argument("--out", required=True)
    init.set_defaults(func=cmd_init_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidInput, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
