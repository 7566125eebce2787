#!/usr/bin/env python3
"""Oracle-mask streaming MVDR experiment.

Renders seeded two-speaker cabin scenes, drives the streaming beamformer
with ideal-ratio masks, and reports the per-zone SI-SNR improvement over
the raw mixture at the reference microphone.
"""

import argparse

import numpy as np

from cabinsep import augment, dsp, metrics
from cabinsep.mvdr import MvdrConfig, separate_stream


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=20)
    parser.add_argument("--seed-base", type=int, default=4000)
    parser.add_argument("--snr-db", type=float, default=5.0)
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--zones", type=int, nargs=2, default=[0, 2],
                        help="0-based occupied zones")
    parser.add_argument("--lambda", dest="forgetting", type=float,
                        default=MvdrConfig.forgetting)
    parser.add_argument("--loading", type=float, default=MvdrConfig.loading)
    args = parser.parse_args()

    stft_cfg = dsp.StftConfig()
    mvdr_cfg = MvdrConfig(forgetting=args.forgetting, loading=args.loading)
    gains = []
    for i in range(args.scenes):
        rng = np.random.default_rng(args.seed_base + i)
        render = augment.sample_cabin_scene(
            rng, list(args.zones), duration_seconds=args.duration,
            background_snr_db=args.snr_db)
        spec, masks = augment.oracle_masks(render, stft_cfg)
        out = separate_stream(spec, masks, mvdr_cfg)
        zones = dsp.synthesize(out, stft_cfg, length=render.mixture.shape[1])
        for z in args.zones:
            label = render.speech_labels[z]
            before = metrics.si_snr(render.mixture[z], label)
            after = metrics.si_snr(zones[z], label)
            gains.append(after - before)
            print(f"scene {i:3d} zone {z + 1}: {before:7.2f} -> {after:7.2f} dB "
                  f"({after - before:+.2f})")
    gains = np.asarray(gains)
    print(f"\n{len(gains)} measurements | median {np.median(gains):+.2f} dB | "
          f"mean {gains.mean():+.2f} | min {gains.min():+.2f} | max {gains.max():+.2f}")


if __name__ == "__main__":
    main()
