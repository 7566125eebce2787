#!/usr/bin/env python3
"""cabinsep benchmark: one workload per process, closed loop, single-threaded BLAS.

    python3 perfbench/run.py --workload stream_S --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the repository root; cabinsep is imported from ./src and nowhere
else. With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, and the spans are written to perfbench/out/. Every run also writes
its full report, with host facts and seed, to perfbench/out/. End-to-end
times are CPU time corrected for host contention (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
WORKLOAD_NAMES = ("stream_S", "utterance_SML", "oracle_scenes")
# Times are CPU seconds rescaled by this over hostprobe.py's mean kernel time
# during the interval. On the development host (Intel Xeon at 2.1 GHz, numpy
# 2.4.6) 1.0 ms makes the rescaled times match the wall times of quiet runs.
PROBE_REFERENCE_MS = 1.0


def pin_blas_threads() -> dict[str, str]:
    """Pin BLAS to one thread before numpy loads; refuse any other setting."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    in_effect = {var: os.environ[var] for var in BLAS_VARS}
    if any(value != "1" for value in in_effect.values()):
        sys.exit(f"perfbench: BLAS thread variables must all be 1, got {in_effect}")
    return in_effect


def host_facts(blas: dict[str, str]) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "loadavg_at_start": os.getloadavg(),
    }


def measure_setup(weight_paths: dict[str, str], lookbacks: dict[str, float | None]) -> list[dict]:
    """Fresh interpreters timing import + weight load + network/beamformer build."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + [
        f"{v}={weight_paths[v]}={'none' if lb is None else lb}" for v, lb in lookbacks.items()]
    probes = []
    for _ in range(SETUP_PROBES):
        begin = time.monotonic_ns()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        probes.append({**json.loads(done.stdout.strip().splitlines()[-1]),
                       "interval": (begin, time.monotonic_ns())})
        if Path(probes[-1]["cabinsep_file"]).resolve().parent.parent != SRC.resolve():
            sys.exit(f"perfbench: set-up probe imported {probes[-1]['cabinsep_file']}")
    return probes


class Contention:
    """Probe samples, by start time, to find how slow the host was during an interval."""

    PAD_NS = 250_000_000   # a 15 ms frame is judged by the probe samples of +-0.25 s

    def __init__(self, samples: list[list[int]]):
        import numpy as np

        pairs = np.array(sorted(samples), dtype=np.int64).reshape(-1, 2)
        self.starts = pairs[:, 0]
        self.cumulative_ms = np.concatenate([[0.0], np.cumsum(pairs[:, 1] / 1e6)])

    def scale(self, begin: int, end: int, pad: int = 0) -> float:
        """PROBE_REFERENCE_MS over the mean probe time of samples started in the interval."""
        lo, hi = self.starts.searchsorted([begin - pad, end + pad])
        if hi <= lo:
            sys.exit("perfbench: the contention probe took no samples during a timed pass")
        return PROBE_REFERENCE_MS * (hi - lo) / (self.cumulative_ms[hi] - self.cumulative_ms[lo])


def scaled_setup(probes: list[dict], contention: Contention) -> dict[str, float]:
    """Median over the set-up probes of each step's CPU seconds, rescaled for contention."""
    return {key: statistics.median(p[key] * contention.scale(*p["interval"]) for p in probes)
            for key in ("import_s", "weights_load_s", "build_s", "setup_s")}


def end_to_end(run, variants, setup: dict, contention: Contention) -> dict[str, float]:
    """End-to-end times: the caller's CPU time, rescaled for host contention."""
    import numpy as np
    from workloads import HOP_MS

    scaled = [(cpu * contention.scale(begin, end), variant)
              for begin, end, cpu, variant in run.pass_log]
    per_frame_ms = np.array([ms * contention.scale(begin, end, Contention.PAD_NS)
                             for ms, _, begin, end in run.frame_samples])
    frames = np.array([n for _, n, _, _ in run.frame_samples])
    run.count("stream.frames_over_hop", int(frames[per_frame_ms > HOP_MS].sum()))
    for v in {variant for _, variant in scaled} - {""}:
        run.report[f"rtf_{v}"] = (sum(cpu for cpu, variant in scaled if variant == v)
                                  / (run.audio_s / len(variants)))
    run.report["frame_samples"] = int(per_frame_ms.size)
    run.report["contention"] = {"probe_reference_ms": PROBE_REFERENCE_MS,
                                "scale": sum(cpu for cpu, _ in scaled) / run.cpu_s["untraced"],
                                "cpu_rtf": run.cpu_s["untraced"] / run.audio_s}
    return {
        "rtf": sum(cpu for cpu, _ in scaled) / run.audio_s,
        "frame_ms_p50": float(np.percentile(per_frame_ms, 50)),
        "frame_ms_p99": float(np.percentile(per_frame_ms, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }


def layer_metrics(run, variants, setup: dict) -> dict[str, float]:
    """Per-layer figures of a traced run, each defined (possibly 0) on every workload.

    Layer times are wall-clock self seconds per audio second, uncorrected
    for contention; with the benchmark's own spans they add up to the
    traced wall time per audio second. They read 0 where a workload does
    not call the layer.
    """
    from workloads import slope_per_minute

    tracer = run.tracer
    per_rtf = lambda name, prefix=None, audio=run.audio_s: tracer.self_seconds(name, prefix) / audio
    variant_audio = run.audio_s / max(len(variants), 1)
    model_s = tracer.self_seconds("model.step") + tracer.self_seconds("model.forward")
    macs = run.report.get("macs", {})
    slopes = [s for s in map(slope_per_minute, run.rss_series) if s is not None]
    return {
        "dsp.analyze_rtf": per_rtf("dsp.analyze"),
        "dsp.synthesize_rtf": per_rtf("dsp.synthesize"),
        "model.step_rtf": per_rtf("model.step"),
        **{f"model.forward_rtf.{v}": per_rtf("model.forward", f"{v}/", variant_audio)
           for v in "SML"},
        "mvdr.update_rtf": per_rtf("mvdr.update_covariances"),
        "mvdr.solve_rtf": per_rtf("mvdr.compute_weights"),
        "mvdr.apply_rtf": per_rtf("mvdr.apply_weights"),
        "mvdr.separate_stream_rtf": per_rtf("mvdr.separate_stream"),
        "augment.render_rtf": per_rtf("augment.sample_cabin_scene"),
        "augment.oracle_masks_rtf": per_rtf("augment.oracle_masks"),
        "model.frames": run.counters.get("model.frames", 0),
        "model.macs_per_frame": (statistics.mean(m["macs_per_frame_at_end"] for m in macs.values())
                                 if macs else 0.0),
        "model.gmacs_achieved": run.model_macs / model_s / 1e9 if model_s else 0.0,
        "mvdr.fallback_frames": run.counters.get("mvdr.fallback_frames", 0),
        "mvdr.degenerate_bins": run.counters.get("mvdr.degenerate_bins", 0),
        "stream.frames_over_hop": run.counters.get("stream.frames_over_hop", 0),
        "stream.rss_growth_mb_per_min": statistics.median(slopes) if slopes else 0.0,
        "setup.import_frac": setup["import_s"] / setup["setup_s"],
        "setup.weights_load_frac": setup["weights_load_s"] / setup["setup_s"],
        "setup.build_frac": setup["build_s"] / setup["setup_s"],
        "trace.overhead_frac": run.cpu_s["traced"] / run.cpu_s["untraced"] - 1.0,
        "checks.failed_frac": run.checks.failed / run.checks.attempted,
    }


def span_detail(tracer) -> dict[str, float]:
    """Per-call figures of a traced run, under the names ROADMAP and the README use."""
    import numpy as np

    detail = {}
    for key, name, pct, scale in (
        ("model.step_ms_p50", "model.step", 50, 1.0),
        ("model.step_ms_p99", "model.step", 99, 1.0),
        ("mvdr.update_ms_p50", "mvdr.update_covariances", 50, 1.0),
        ("mvdr.solve_ms_p50", "mvdr.compute_weights", 50, 1.0),
        ("mvdr.apply_ms_p50", "mvdr.apply_weights", 50, 1.0),
        ("mvdr.separate_stream_s", "mvdr.separate_stream", 50, 1e-3),
        ("augment.render_s", "augment.sample_cabin_scene", 50, 1e-3),
        ("augment.oracle_masks_s", "augment.oracle_masks", 50, 1e-3),
        ("dsp.analyze_s", "dsp.analyze", 50, 1e-3),
        ("dsp.synthesize_s", "dsp.synthesize", 50, 1e-3),
        ("model.weights_load_s", "model.weights_load", 50, 1e-3),
        ("model.build_s", "model.build", 50, 1e-3),
    ):
        durations = tracer.durations_ms(name)
        if durations:
            detail[key] = float(np.percentile(durations, pct)) * scale
    for v in "SML":
        calls = [(end - start) / 1e9 for name, start, end, _, unit in tracer.spans
                 if name == "model.forward" and str(unit).startswith(f"{v}/")]
        if calls:
            detail[f"model.forward_s.{v}"] = statistics.median(calls)
    return detail


def run_one(args, declared: dict[str, dict[str, str]]) -> int:
    blas = pin_blas_threads()
    if not (SRC / "cabinsep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cabinsep sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cabinsep

    if Path(cabinsep.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: imported cabinsep from {cabinsep.__file__}, not {SRC}")
    from cabinsep.model import init_random, variant_config

    import workloads

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the contention probe shares this CPU
    host = host_facts(blas)
    function, lookbacks = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    weight_paths = {v: str(OUT / f"weights-{v}-{args.seed}-{os.getpid()}.bin") for v in lookbacks}
    try:
        for v, path in weight_paths.items():
            init_random(variant_config(v), args.seed).save(path)
        probe = subprocess.Popen([sys.executable, str(HERE / "hostprobe.py"), str(cpu)],
                                 stdout=subprocess.PIPE, text=True)
        try:
            time.sleep(0.5)  # let the probe import numpy and start sampling
            setup_probes = measure_setup(weight_paths, lookbacks)
            run = workloads.Run(seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
                                weight_paths=weight_paths)
            function(run)
        finally:
            probe.send_signal(signal.SIGTERM)
            probe_out, _ = probe.communicate(timeout=60)
    finally:
        for path in weight_paths.values():
            Path(path).unlink(missing_ok=True)

    contention = Contention(json.loads(probe_out))
    setup = scaled_setup(setup_probes, contention)
    e2e = end_to_end(run, lookbacks, setup, contention)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "setup": setup,
        "audio_seconds": run.audio_s, "attempted": run.checks.attempted,
        "failed": run.checks.failed, "failed_frac": run.checks.failed / run.checks.attempted,
        "failures": sorted(set(run.checks.notes)),
        "end_to_end": e2e, **run.report,
    }
    if args.trace:
        report["per_layer"] = layer_metrics(run, lookbacks, setup)
        report["span_detail"] = span_detail(run.tracer)
        report["layer_self_seconds"] = run.tracer.layer_self_seconds()
        run.tracer.write(OUT / f"{tag}-spans.json")
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    section = "per_layer" if args.trace else "end_to_end"
    values = report[section]
    if set(values) != set(declared[section]):
        sys.exit(f"perfbench: {section} metrics {sorted(values)} do not match BENCHMARK.json "
                 f"{sorted(declared[section])}")
    print("host " + json.dumps(host))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
          f"audio_s {run.audio_s:.3f} checks {run.checks.attempted} failed {run.checks.failed}")
    print(f"  failed_frac {report['failed_frac']:.6g} frac")
    for key in ("rtf_S", "rtf_M", "rtf_L", "si_snr_gain_db"):
        if key in run.report:
            unit = "dB" if key == "si_snr_gain_db" else "ratio"
            print(f"  {key} {run.report[key]:.6g} {unit}")
    for key, macs in run.report.get("macs", {}).items():
        print(f"  model.gmacs_per_audio_second.{key} {macs['gmacs_per_audio_second']:.4g} "
              f"GMAC/s at {macs['audio_seconds']} s audio, lookback {macs['lookback_frames']} frames")
    for key, value in report.get("span_detail", {}).items():
        print(f"  {key} {value:.6g} {'ms' if '_ms_' in key else 's'}")
    for name, value in values.items():
        print(f"  {name} {value:.6g} {declared[section][name]}")
    print(json.dumps({
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {name: {"value": value, "unit": declared[section][name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload alone."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=600)
        status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {section: {m["name"]: m["unit"] for m in bench[section]}
                for section in ("end_to_end", "per_layer")}
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
