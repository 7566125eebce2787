"""Command-line interface.

Subcommands: separate, simulate, ir (gen/extract/ism), eval, bench,
init-weights. The excitation kind of `ir gen`/`ir extract` (`ess`, `mls`,
`tsp`), the room of `ir ism` (`room`, `cabin`) and the optional IR-mixing
strategy of `simulate` (`mixed`, `added`, `only`, `simulated`) are
subcommands that declare only the flags they read, so a foreign or missing
flag is a usage error (exit 2). Exit codes: 0 ok, 2 input or usage error
(`InvalidInput`, or a file that cannot be read), 3 config/weights error
(`InvalidConfig`). Commands validate their inputs before writing any output
file. `separate` takes its model from `--variant` (and `--chunk-seconds`),
and exits 3 when the weight container was written for another
architecture: other tensor shapes, or a fingerprint that differs from the
configuration's (the attention lookback is not part of it).

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
# in memory, ≈3 MB per audio second, so 600 s peaks near 2 GB
_MAX_BENCH_SECONDS = 600.0


def _given(args, *names) -> dict:
    """The named flags the user gave, for a constructor that owns their defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _check_seed(seed: int | None) -> None:
    """Refuse a `--seed` that `np.random.default_rng` refuses: a negative one."""
    if seed is not None and seed < 0:
        raise InvalidInput(f"--seed {seed}: a seed is a non-negative integer")


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


# the IR sets `irlab.mix_ir_sets` reads for each strategy, and its help (written
# here so that parsing imports no scipy.signal; a test keeps them equal)
_STRATEGIES = {
    "mixed": (("simulated", "recorded"), "recorded IR at the speaker's mic, else simulated"),
    "added": (("simulated", "recorded"), "all recorded with probability 0.25, else simulated"),
    "only": (("recorded",), "all recorded"),
    "simulated": (("simulated",), "all simulated"),
}


def cmd_simulate(args) -> int:
    from . import augment, irlab

    _check_seed(args.seed)
    manifest = augment.SceneManifest.from_json(Path(args.manifest).read_text())
    irs_by_zone = None
    if args.strategy:
        # an IR set holds one source position, so it can render one speaker only
        if (count := len(manifest.speakers)) > 1:
            raise InvalidInput(f"a strategy renders one speaker, the manifest has {count}")
        sets = {name: _load_ir_set(getattr(args, f"{name}_ir_dir"))
                for name in _STRATEGIES[args.strategy][0]}
        rng = np.random.default_rng(args.seed)  # read by `added` only
        irs_by_zone = {
            entry.zone: irlab.mix_ir_sets(sets.get("simulated"), sets.get("recorded"),
                                          args.strategy, entry.zone, rng)
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

# the `ir gen`/`ir extract` subcommand of each excitation kind: its `irlab`
# spec class, help, and one flag per field of the class with the field's type
# (written here so that parsing imports no scipy.signal; a test keeps them equal)
_EXCITATIONS = {
    "ess": ("EssSpec", "exponential sine sweep",
            {"f_start": float, "f_end": float, "duration": float}),
    "mls": ("MlsSpec", "maximum-length sequence", {"order": int}),
    "tsp": ("TspSpec", "time-stretched pulse", {"length": int, "stretch": int}),
}


def _excitation_spec(args):
    """The spec of the chosen kind, from its flags given; the class owns the defaults."""
    from . import irlab

    spec_class, _, fields = _EXCITATIONS[args.kind]
    return getattr(irlab, spec_class)(**_given(args, *fields))


def cmd_ir_gen(args) -> int:
    spec = _excitation_spec(args)
    signal = spec.signal()
    write_wav(args.out, signal)
    if args.inverse_out:
        try:
            write_wav(args.inverse_out, spec.inverse_filter())
        except BaseException:
            Path(args.out).unlink()  # both files or neither
            raise
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

    if args.geometry == "room":
        try:
            room = irlab.RoomSpec(**json.loads(Path(args.room).read_text()))
        except (json.JSONDecodeError, TypeError) as exc:
            raise InvalidInput(f"{args.room}: not a RoomSpec JSON object ({exc})") from None
    else:
        try:
            source = tuple(float(v) for v in args.source.split(","))
        except ValueError:
            raise InvalidInput(f"--source {args.source!r} is not x,y,z in meters") from None
        room = irlab.cabin_room(source, **_given(args, "reflection", "max_order", "ir_length"))
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
    _check_seed(args.seed)
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
    _check_seed(args.seed)
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
    sim.set_defaults(func=cmd_simulate, seed=None)
    strategies = sim.add_subparsers(dest="strategy", help="draw the IRs from IR sets instead")
    for strategy, (sets, strategy_help) in _STRATEGIES.items():
        p = strategies.add_parser(strategy, help=strategy_help)
        for name in sets:
            p.add_argument(f"--{name}-ir-dir", required=True, help="mic0.wav..mic3.wav")
    strategies.choices["added"].add_argument("--seed", type=int, required=True)

    ir = sub.add_parser("ir", help="impulse-response tools")
    ir_sub = ir.add_subparsers(dest="ir_command", required=True)

    def add_kinds(command, help_text, func):
        """`ir <command> ess|mls|tsp`, each kind with one flag per field of its spec."""
        kinds = ir_sub.add_parser(command, help=help_text).add_subparsers(dest="kind",
                                                                          required=True)
        for kind, (_, kind_help, fields) in _EXCITATIONS.items():
            p = kinds.add_parser(kind, help=kind_help)
            for name, field_type in fields.items():
                p.add_argument("--" + name.replace("_", "-"), type=field_type)
            p.add_argument("--out", required=True)
            p.set_defaults(func=func)
        return kinds.choices

    gen = add_kinds("gen", "generate an excitation signal", cmd_ir_gen)
    for p in gen.values():
        p.set_defaults(inverse_out=None)  # a flag of `gen ess` only
    gen["ess"].add_argument("--inverse-out", help="also write the sweep's inverse filter")
    for p in add_kinds("extract", "deconvolve a recorded excitation", cmd_ir_extract).values():
        p.add_argument("--recording", required=True)
        p.add_argument("--ir-length", type=int)

    ism = ir_sub.add_parser("ism", help="simulate a shoebox impulse response")
    rooms = ism.add_subparsers(dest="geometry", required=True)
    rooms.add_parser("room", help="a RoomSpec JSON file").add_argument("--room", required=True)
    cabin = rooms.add_parser("cabin", help="the default cabin with a source position")
    cabin.add_argument("--source", required=True, help="x,y,z meters")
    cabin.add_argument("--reflection", type=float)
    cabin.add_argument("--max-order", type=int)
    cabin.add_argument("--ir-length", type=int)
    for p in rooms.choices.values():
        p.add_argument("--mic", type=int, required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_ir_ism)

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
