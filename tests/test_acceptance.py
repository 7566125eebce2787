"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
measurements. Every tolerance is fixed here; nothing is calibrated at run
time.
"""

import time

import numpy as np

from cabinsep import augment, dsp, metrics, mvdr
from cabinsep.irlab import (
    EssSpec,
    MlsSpec,
    RoomSpec,
    TspSpec,
    boundary_position,
    extract_ir,
    mix_ir_sets,
    simulate_ism,
    ImpulseResponse,
)
from cabinsep.model import count_macs, forward, init_random, variant_config
from cabinsep.model.network import MaskPair
from cabinsep.mvdr import BeamformerState, compute_weights, separate_stream
from cabinsep.pipeline import separate_waveform
from scipy.signal import fftconvolve

from conftest import tac_frame_macs, tac_macs

FS = 16000


def report(line):
    print(f"\nACCEPTANCE {line}")


def run_oracle_separation(render, stft_cfg):
    spec, masks = augment.oracle_masks(render, stft_cfg)
    out = separate_stream(spec, masks)
    return dsp.synthesize(out, stft_cfg, length=render.mixture.shape[1])


def test_c01_stft_round_trip():
    start = time.perf_counter()
    cfg = dsp.StftConfig()  # hamming / 512 / 256
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4 * cfg.window_length, 6 * cfg.window_length))
        wave = rng.standard_normal((1, n))
        back = dsp.synthesize(dsp.analyze(wave, cfg), cfg, length=n)
        interior = slice(cfg.window_length, n - cfg.window_length)
        worst = max(worst, float(np.max(np.abs(back[:, interior] - wave[:, interior]))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    report(f"PASS [C1] STFT round trip: max interior error {worst:.2e} (< 1e-6), "
           f"{elapsed:.2f}s")


def test_c02_mvdr_distortionless_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    zones = 4
    worst = 0.0
    for _ in range(100):
        state = BeamformerState(zones=zones, bins=1, loading=0.0)
        d = rng.standard_normal(zones) + 1j * rng.standard_normal(zones)
        a = rng.standard_normal((zones, zones)) + 1j * rng.standard_normal((zones, zones))
        state.noise_cov[0, 0] = a @ np.conj(a.T) + 0.05 * np.eye(zones)
        state.speech_cov[0, 0] = np.outer(d, np.conj(d)) * rng.uniform(0.1, 10)
        w = compute_weights(state, 0)[0]
        worst = max(worst, abs(np.vdot(w, d) - d[0]) / abs(d[0]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    report(f"PASS [C2] MVDR distortionless: max |W^H d - d_ref| rel {worst:.2e} "
           f"(< 1e-6), {elapsed:.2f}s")


def test_c03_trace_normalization_invariance():
    rng = np.random.default_rng(300)
    zones, bins = 4, 3
    worst = 0.0
    for _ in range(100):
        state = BeamformerState(zones=zones, bins=bins)
        for _ in range(6):
            snap = rng.standard_normal((zones, bins)) + 1j * rng.standard_normal((zones, bins))
            mvdr.update_covariances(state, snap, rng.uniform(0, 1, (zones, bins)),
                                    rng.uniform(0, 1, (zones, bins)))
        base = compute_weights(state, 1)
        for c in (1e-3, 1e3):
            scaled = BeamformerState(zones=zones, bins=bins)
            scaled.speech_cov = state.speech_cov * c
            scaled.noise_cov = state.noise_cov.copy()
            w = compute_weights(scaled, 1)
            denom = np.maximum(np.abs(base), 1e-30)
            worst = max(worst, float(np.max(np.abs(w - base) / denom)))
    assert worst < 1e-8
    report(f"PASS [C3] trace-normalization invariance: max rel drift {worst:.2e} (< 1e-8)")


def test_c04_oracle_mask_end_to_end_gain():
    start = time.perf_counter()
    stft_cfg = dsp.StftConfig()
    improvements = []
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        render = augment.sample_cabin_scene(rng, [0, 2], background_snr_db=5.0)
        zones = run_oracle_separation(render, stft_cfg)
        for z in (0, 2):
            label = render.speech_labels[z]
            gain = (metrics.si_snr(zones[z], label)
                    - metrics.si_snr(render.mixture[z], label))
            improvements.append(gain)
    elapsed = time.perf_counter() - start
    median = float(np.median(improvements))
    assert median >= 5.0
    assert elapsed < 120.0
    report(f"PASS [C4] oracle-mask streaming MVDR: median SI-SNR gain "
           f"+{median:.2f} dB (>= 5.0), min +{min(improvements):.2f}, {elapsed:.1f}s")


def test_c05_causality_prefix_bit_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(500)
    frames = 30
    for variant in "SML":
        cfg = variant_config(variant)
        weights = init_random(cfg, seed=5)
        spec = (rng.standard_normal((cfg.zones, frames, cfg.bins))
                + 1j * rng.standard_normal((cfg.zones, frames, cfg.bins)))
        full = forward(spec, weights, cfg)
        out_full = separate_stream(spec, full)
        cuts = rng.integers(1, frames, size=10)
        for t in cuts:
            t = int(t)
            part = forward(spec[:, :t], weights, cfg)
            np.testing.assert_array_equal(part.speech, full.speech[:, :t])
            np.testing.assert_array_equal(part.noise, full.noise[:, :t])
            part_out = separate_stream(
                spec[:, :t], MaskPair(full.speech[:, :t], full.noise[:, :t]))
            np.testing.assert_array_equal(part_out, out_full[:, :t])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(f"PASS [C5] causality: 10 random truncations per variant bit-exact "
           f"(model + MVDR), {elapsed:.1f}s")


def test_c06_mac_accounting():
    cfg_s = variant_config("S")
    gmacs = count_macs(cfg_s, seconds=1.0).gmacs_per_second
    assert 0.2 <= gmacs <= 0.8

    # the TAC runs on frames 0, 2, 4, ...: 32 TAC frames at 64 frames and at 63
    cfg_l = variant_config("L")
    per_tac_frame = tac_frame_macs(cfg_l)
    even = count_macs(cfg_l, seconds=1.024)
    assert even.frames == 64 and tac_macs(even) == 32 * per_tac_frame
    odd = count_macs(cfg_l, seconds=1.0)
    assert odd.frames == 63 and tac_macs(odd) == 32 * per_tac_frame

    # the cut against a TAC on every frame
    reduction = odd.frames * per_tac_frame - tac_macs(odd)
    assert reduction > 0
    report(f"PASS [C6] MACs: S = {gmacs:.3f} GMACs/s in [0.2, 0.8]; time-skip "
           f"halves TAC exactly (even frames) and cuts L by {reduction/1e6:.2f} MMACs")


def test_c07_mask_shape_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(700)
    for variant in "SML":
        cfg = variant_config(variant)
        weights = init_random(cfg, seed=11)
        for frames in (1, 7, 100):
            spec = (rng.standard_normal((cfg.zones, frames, cfg.bins))
                    + 1j * rng.standard_normal((cfg.zones, frames, cfg.bins)))
            first = forward(spec, weights, cfg)
            again = forward(spec, weights, cfg)
            assert first.speech.shape == (cfg.zones, frames, cfg.bins)
            assert first.noise.shape == (cfg.zones, frames, cfg.bins)
            for m in (first.speech, first.noise):
                assert np.all(m >= 0.0) and np.all(m <= 1.0)
            np.testing.assert_array_equal(first.speech, again.speech)
            np.testing.assert_array_equal(first.noise, again.noise)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"PASS [C7] mask/shape suite: 3 variants x T in (1,7,100), masks in "
           f"[0,1], bit-identical reruns, {elapsed:.1f}s")


def test_c08_ir_round_trips():
    start = time.perf_counter()
    rng = np.random.default_rng(800)
    h_true = rng.standard_normal(128) * np.exp(-np.arange(128) / 30.0)

    def ncc(a, b):
        n = min(len(a), len(b))
        return float(np.dot(a[:n], b[:n])
                     / (np.linalg.norm(a[:n]) * np.linalg.norm(b[:n]) + 1e-30))

    correlations = {}
    for kind, spec in (("ess", EssSpec()),
                       ("mls", MlsSpec(order=14)),
                       ("tsp", TspSpec(length=16384))):
        recording = fftconvolve(spec.signal(), h_true)
        extracted = extract_ir(recording, spec, ir_length=128)
        correlations[kind] = ncc(extracted.taps, h_true)
        assert correlations[kind] > 0.99

    ess = EssSpec()
    recording = fftconvolve(ess.signal(), h_true)
    noise = rng.standard_normal(len(recording))
    noise *= np.sqrt(np.mean(recording**2) / np.mean(noise**2) / 10 ** (20 / 10))
    noisy_ncc = ncc(extract_ir(recording + noise, ess, ir_length=128).taps, h_true)
    assert noisy_ncc > 0.95

    worst_delay = 0.0
    for _ in range(100):
        dims = rng.uniform(2.0, 6.0, 3)
        src = tuple(rng.uniform(0.2, 0.8, 3) * dims)
        mic = tuple(rng.uniform(0.2, 0.8, 3) * dims)
        room = RoomSpec(dimensions=tuple(dims), source=src, mics=(mic,),
                        reflection=0.5, max_order=0, ir_length=4096)
        ir = simulate_ism(room, 0)
        expected = np.linalg.norm(np.subtract(src, mic)) / 343.0 * FS
        worst_delay = max(worst_delay, abs(np.argmax(np.abs(ir.taps)) - expected))
    assert worst_delay <= 0.5

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"PASS [C8] IR round trips: ncc ess={correlations['ess']:.4f} "
           f"mls={correlations['mls']:.4f} tsp={correlations['tsp']:.4f} (> 0.99), "
           f"noisy ess {noisy_ncc:.4f} (> 0.95); ISM delay err {worst_delay:.3f} "
           f"samples (<= 0.5), {elapsed:.1f}s")


def test_c09_augmentation_strategies():
    sim = [ImpulseResponse(np.ones(4)) for _ in range(4)]
    rec = [ImpulseResponse(np.ones(4)) for _ in range(4)]
    rng = np.random.default_rng(900)

    chosen = mix_ir_sets(sim, rec, "mixed", speaker_zone=2, rng=rng)
    assert [c is r for c, r in zip(chosen, rec)] == [False, False, True, False]
    assert [c is s for c, s in zip(chosen, sim)] == [True, True, False, True]

    draws = np.random.default_rng(901)
    fraction = sum(
        mix_ir_sets(sim, rec, "added", 0, draws)[0] is rec[0]
        for _ in range(10000)) / 10000
    assert 0.23 <= fraction <= 0.27

    scene_rng = np.random.default_rng(902)
    render = augment.sample_cabin_scene(scene_rng, [0, 3], duration_seconds=1.0,
                                        background_snr_db=5.0)
    residual = np.max(np.abs(
        render.mixture - render.zone_images.sum(axis=0) - render.noise_label))
    assert residual < 1e-6

    speech_ref = render.zone_images.sum(axis=0)[0]
    realized = 10 * np.log10(np.mean(speech_ref**2)
                             / np.mean(render.noise_label[0] ** 2))
    assert abs(realized - 5.0) < 1e-3
    report(f"PASS [C9] augmentation: mixed assignment exact; added fraction "
           f"{fraction:.4f} in [0.23, 0.27]; additivity residual {residual:.1e}; "
           f"realized SNR {realized:.4f} dB (target 5 +/- 1e-3)")


def test_c10_positioning_protocol():
    start = time.perf_counter()
    stft_cfg = dsp.StftConfig()
    standard = metrics.PositioningResult()
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        true_zone = int(rng.integers(0, 4))
        render = augment.sample_cabin_scene(rng, [true_zone], duration_seconds=2.5,
                                            background_snr_db=15.0)
        zones = run_oracle_separation(render, stft_cfg)
        standard.add(metrics.zone_positioning(zones, true_zone))
    assert standard.undecided_count == 0
    assert standard.accuracy == 1.0

    boundary = metrics.PositioningResult()
    for seed in range(10):
        rng = np.random.default_rng(8000 + seed)
        render = augment.sample_cabin_scene(
            rng, [0], duration_seconds=2.5, background_snr_db=15.0,
            source_positions={0: boundary_position(0, 1)})
        zones = run_oracle_separation(render, stft_cfg)
        boundary.add(metrics.zone_positioning(zones, 0, non_standard=True))
    elapsed = time.perf_counter() - start
    report(f"PASS [C10] positioning: standard-posture accuracy "
           f"{standard.accuracy:.2f} over 50 scenes (= 1.0 required); boundary "
           f"NSPA {boundary.nspa} reported, no threshold (untrained oracle "
           f"pipeline), {elapsed:.1f}s")


def test_c11_rtf_harness():
    start = time.perf_counter()
    seconds = 2.5  # long enough that timer jitter stays well below the S/M gap
    rng = np.random.default_rng(1100)
    medians = {}
    for variant in "SML":
        cfg = variant_config(variant)
        weights = init_random(cfg, seed=2)
        wave = rng.standard_normal((cfg.zones, int(seconds * FS))) * 0.05

        def run(wave=wave, weights=weights, cfg=cfg):
            separate_waveform(wave, weights, cfg)

        medians[variant] = metrics.rtf_benchmark(run, seconds, runs=5).median
    assert medians["S"] <= medians["M"] <= medians["L"]
    elapsed = time.perf_counter() - start
    report(f"PASS [C11] RTF (host, single stream): S={medians['S']:.2f} "
           f"M={medians['M']:.2f} L={medians['L']:.2f} monotone "
           f"(reference hardware RTF 0.21 reported-only), {elapsed:.1f}s")
