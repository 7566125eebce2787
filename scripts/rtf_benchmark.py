#!/usr/bin/env python3
"""Complexity report: RTF, GMACs, and parameter count for each model size."""

import argparse

import numpy as np

from cabinsep.dsp import DEFAULT_SAMPLE_RATE
from cabinsep.metrics import rtf_benchmark
from cabinsep.model import count_macs, count_params, init_random, variant_config
from cabinsep.pipeline import separate_waveform


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chunk-seconds", type=float, default=None)
    args = parser.parse_args()

    print(f"{'variant':8} {'params':>10} {'GMACs/s':>8} {'RTF med':>8} {'spread':>8}")
    for variant in "SML":
        cfg = variant_config(variant, chunk_lookback_seconds=args.chunk_seconds)
        weights = init_random(cfg, args.seed)
        rng = np.random.default_rng(args.seed)
        wave = rng.standard_normal((cfg.zones, int(args.seconds * DEFAULT_SAMPLE_RATE)))
        wave *= 0.05

        def run(wave=wave, weights=weights, cfg=cfg):
            separate_waveform(wave, weights, cfg)

        rtf = rtf_benchmark(run, args.seconds, runs=args.runs)
        macs = count_macs(cfg, seconds=args.seconds)
        print(f"{variant:8} {count_params(cfg):>10} {macs.gmacs_per_second:>8.3f} "
              f"{rtf.median:>8.3f} {rtf.spread:>8.3f}")


if __name__ == "__main__":
    main()
