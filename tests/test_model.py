import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cabinsep
from cabinsep.dsp import StftConfig, analyze
from cabinsep.errors import InvalidConfig, InvalidInput
from cabinsep.features import compute_ipd, compute_lps, stack_real_imag
from cabinsep.model import (
    ModelConfig,
    ModelWeights,
    StreamingMaskNet,
    forward,
    count_macs,
    init_random,
    required_shapes,
    variant_config,
)
from cabinsep.model.network import (
    _CausalConv2d,
    _ConformerLayer,
    _EncoderStage,
    _FullBand,
    _KvCache,
    _SubBand,
    _Tac,
    _layer_norm,
    _score_bound,
    _sigmoid,
    _swish,
)
from conftest import CHANNEL_KINDS, bad_channel_wave, random_spectrogram, run_frames

BINS = ModelConfig.bins
# S masks (init_random seed 7) of random_spectrogram(default_rng(12), frames=12),
# written by the network when its sub-band stage still computed on (bins, width)
# arrays: every second bin, so that the archive stays under 100 kB, and the
# 4-frame lookback run from frame 4 on, where it departs from the unbounded one
GOLDEN_MASKS = Path(__file__).resolve().parent / "data" / "golden_masks_S.npz"


def encode(spec, weights, cfg):
    """Encoder stage over a whole (Z, T, F) spectrogram -> (C, T, F) embedding."""
    stage = _EncoderStage(weights, cfg)
    return run_frames(stage.step, stack_real_imag(spec), compute_lps(spec), compute_ipd(spec))


def record_tac_frames(net):
    """Wrap each block's TAC step; return per-block lists of the frames it ran on."""
    frames = []
    for _, tac, _ in net.blocks:
        seen, inner = [], tac.step

        def step(x, seen=seen, inner=inner):
            seen.append(net.frame_index)
            return inner(x)

        tac.step = step
        frames.append(seen)
    return frames


def forward_frames(net, spec):
    """Step `net` over a (Z, T, F) spectrogram; return the (Z, T, F) speech masks."""
    return run_frames(lambda frame: net.step(frame)[0], spec)


def chronological_attend(self, x):
    """Reference `_ConformerLayer._attend`: an append-only (S, F, heads, dh)
    history, sliced to the lookback and read in frame order, computed on the
    (F, H) transpose of the layer's (H, F) input. The layer holds its output
    bias as a column."""
    if not hasattr(self, "past"):
        self.past = ([], [])
    n_bins = x.shape[1]
    u = _layer_norm(x, *self.ln["ln_att"]).T
    q = (u @ self.wq.T + self.bq).reshape(n_bins, self.heads, self.head_dim)
    self.past[0].append((u @ self.wk.T + self.bk).reshape(n_bins, self.heads, self.head_dim))
    self.past[1].append((u @ self.wv.T + self.bv).reshape(n_bins, self.heads, self.head_dim))
    span = self.k_cache.lookback or len(self.past[0])
    keys = np.stack(self.past[0][-span:])
    values = np.stack(self.past[1][-span:])
    scores = np.einsum("fhd,sfhd->fhs", q, keys) * self.scale
    scores -= scores.max(axis=-1, keepdims=True)
    att = np.exp(scores)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = np.einsum("fhs,sfhd->fhd", att, values).reshape(n_bins, -1)
    return (ctx @ self.wo.T + self.bo.T).T


def list_conv_module(self, x):
    """Reference `_ConformerLayer._conv_module`: past GLU outputs in a list
    rebuilt every frame, computed on the (F, H) transpose of the layer's
    (H, F) input. The layer holds its biases as columns."""
    if not hasattr(self, "history"):
        self.history = [np.zeros((x.shape[1], self.dw[0].shape[0]), np.float32)
                        for _ in range(self.dw[0].shape[1] - 1)]
    u = _layer_norm(x, *self.ln["ln_conv"]).T
    w1, b1 = self.pw1
    gates = u @ w1.T + b1.T
    half = gates.shape[-1] // 2
    glu = gates[:, :half] * _sigmoid(gates[:, half:])
    dw_w, dw_b = self.dw
    taps = self.history + [glu]
    conv = sum(taps[k] * dw_w[:, k] for k in range(dw_w.shape[1])) + dw_b.T
    self.history = taps[1:]
    w2, b2 = self.pw2
    return (_swish(conv) @ w2.T + b2.T).T


class TestConfig:
    def test_variant_presets(self):
        s = variant_config("S")
        assert (s.n_full_sub, s.tac_compression, s.conformer_layers) == (1, 4, 4)
        m = variant_config("M")
        assert (m.n_full_sub, m.tac_compression, m.conformer_layers) == (2, 4, 2)
        lv = variant_config("L")
        assert (lv.n_full_sub, lv.tac_compression, lv.conformer_layers) == (3, 2, 2)

    def test_default_is_s(self):
        assert ModelConfig() == variant_config("S")

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown variant"):
            ModelConfig(variant="XL")
        with pytest.raises(InvalidConfig, match="unknown variant"):
            variant_config("XL")

    def test_replacing_the_variant_gives_its_preset(self):
        m = replace(variant_config("S"), variant="M")
        assert (m.n_full_sub, m.tac_compression, m.conformer_layers) == (2, 4, 2)
        assert m.fingerprint() == variant_config("M").fingerprint() == "73850f46b0e65cf9"

    def test_widths_follow_from_the_variant_only(self):
        with pytest.raises(TypeError):
            ModelConfig(n_full_sub=2)
        with pytest.raises(ValueError):
            replace(variant_config("S"), conformer_layers=2)

    def test_time_skip_is_not_settable(self):
        assert ModelConfig.time_skip is True
        with pytest.raises(TypeError):
            ModelConfig(time_skip=False)
        with pytest.raises(TypeError):
            variant_config("L", time_skip=False)

    def test_bins_are_not_settable(self):
        with pytest.raises(TypeError):
            ModelConfig(bins=33)
        with pytest.raises(TypeError):
            replace(variant_config("S"), bins=33)

    def test_framing_equals_the_stfts(self):
        assert ModelConfig.bins == StftConfig.bins
        assert ModelConfig.hop_seconds * StftConfig.sample_rate == StftConfig.hop

    # each id names the offending fields as `name = value`
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"chunk_lookback_seconds": math.inf}, id="chunk_lookback_seconds = inf"),
        pytest.param({"chunk_lookback_seconds": 600.001}, id="chunk_lookback_seconds = 600.001"),
        pytest.param({"chunk_lookback_seconds": 1e300}, id="chunk_lookback_seconds = 1e300"),
    ])
    def test_malformed_value_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            ModelConfig(**kwargs)

    def test_lookback_frames(self):
        cfg = variant_config("L", chunk_lookback_seconds=2.0)
        assert cfg.lookback_frames == 125
        assert variant_config("L").lookback_frames is None

    def test_lookback_bound_is_inclusive(self):
        assert variant_config("S", chunk_lookback_seconds=600.0).lookback_frames == 37500

    @pytest.mark.parametrize("seconds", [-1.0, 0.0, 0.01])
    def test_lookback_under_one_hop_rejected(self, seconds):
        with pytest.raises(InvalidConfig):
            variant_config("S", chunk_lookback_seconds=seconds)

    def test_fingerprint_ignores_lookback_only(self):
        cfg = variant_config("S")
        for seconds in (0.5, 1.0, 12.0):
            assert variant_config("S", chunk_lookback_seconds=seconds).fingerprint() \
                == cfg.fingerprint()

    # every weight container saved so far carries one of these; those written
    # when `time_skip` was a field and set to False are refused, shapes and all
    @pytest.mark.parametrize("variant, time_skip, expected", [
        ("S", True, "2d7d2eeb300f2520"),
        ("M", True, "73850f46b0e65cf9"),
        ("L", True, "35c0cd6d054a1029"),
        ("S", False, "d0641f4fdc0cf90a"),
        ("M", False, "5ea4f89ba15922b0"),
        ("L", False, "bce72bfa531fcadf"),
    ])
    def test_fingerprint_pinned(self, variant, time_skip, expected):
        cfg = variant_config(variant)
        if time_skip:
            assert cfg.fingerprint() == expected
        else:
            with pytest.raises(InvalidConfig, match="fingerprint"):
                ModelWeights(init_random(cfg, seed=0).tensors, expected).validate(cfg)

    def test_only_the_variant_values_are_fields(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "n_full_sub", "tac_compression", "conformer_layers",
            "chunk_lookback_seconds", "variant"]
        assert [f.name for f in fields(ModelConfig) if f.init] == [
            "chunk_lookback_seconds", "variant"]
        cfg = variant_config("S")
        assert (cfg.zones, cfg.bins, cfg.embed_channels, cfg.encoder_channels,
                cfg.fullband_hidden, cfg.subband_hidden, cfg.attn_heads, cfg.ff_dim,
                cfg.hop_seconds, cfg.lps_floor, cfg.ipd_pair) == (
                    4, 257, 24, 8, 96, 16, 4, 8, 0.016, 1e-10, (0, 1))


class TestWeights:
    def test_init_deterministic(self, small_cfg):
        a = init_random(small_cfg, seed=3)
        b = init_random(small_cfg, seed=3)
        for name in a.tensors:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self, small_cfg):
        a = init_random(small_cfg, seed=3)
        b = init_random(small_cfg, seed=4)
        assert any(not np.array_equal(a[n], b[n]) for n in a.tensors)

    def test_shapes_match_requirements(self, small_cfg, small_weights):
        shapes = required_shapes(small_cfg)
        assert set(shapes) == set(small_weights.tensors)
        for name, shape in shapes.items():
            assert small_weights[name].shape == shape
        small_weights.validate(small_cfg)

    def test_container_round_trip_bit_exact(self, tmp_path, small_cfg, small_weights):
        path = tmp_path / "w.bin"
        small_weights.save(path)
        loaded = ModelWeights.load(path)
        assert loaded.fingerprint == small_weights.fingerprint
        for name in small_weights.tensors:
            np.testing.assert_array_equal(loaded[name], small_weights[name])
        path2 = tmp_path / "w2.bin"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_validate_rejects_missing_and_extra(self, small_cfg, small_weights):
        broken = ModelWeights(dict(small_weights.tensors), small_weights.fingerprint)
        del broken.tensors["decoder.w"]
        with pytest.raises(InvalidConfig):
            broken.validate(small_cfg)
        extra = ModelWeights({**small_weights.tensors, "rogue": np.zeros(3, np.float32)},
                             small_weights.fingerprint)
        with pytest.raises(InvalidConfig):
            extra.validate(small_cfg)

    def test_validate_rejects_bad_shape(self, small_cfg, small_weights):
        broken = ModelWeights(dict(small_weights.tensors), small_weights.fingerprint)
        broken.tensors["decoder.b"] = np.zeros(5, np.float32)
        with pytest.raises(InvalidConfig):
            broken.validate(small_cfg)

    def test_validate_checks_fingerprint(self, small_cfg, small_weights):
        # same shapes, other architecture: S's tensors as a container written
        # when `time_skip` could be False; and no fingerprint at all
        for fingerprint in ("d0641f4fdc0cf90a", ""):
            with pytest.raises(InvalidConfig, match="fingerprint"):
                ModelWeights(small_weights.tensors, fingerprint).validate(small_cfg)
        small_weights.validate(replace(small_cfg, chunk_lookback_seconds=1.0))

    def test_empty_fingerprint_container_rejected(self, tmp_path, small_weights):
        path = tmp_path / "w.bin"
        ModelWeights(small_weights.tensors, "").save(path)
        with pytest.raises(InvalidInput, match="no fingerprint"):
            ModelWeights.load(path)

    def test_non_finite_container_rejected(self, tmp_path, small_weights):
        path = tmp_path / "w.bin"
        for bad in (np.nan, np.inf):
            broken = ModelWeights(dict(small_weights.tensors), small_weights.fingerprint)
            broken.tensors["head_speech.b"] = np.array([0, bad, 0, 0], np.float32)
            broken.save(path)
            with pytest.raises(InvalidInput, match="head_speech.b"):
                ModelWeights.load(path)

    def test_truncated_container_rejected(self, tmp_path, small_cfg, small_weights):
        path = tmp_path / "w.bin"
        small_weights.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-64])
        with pytest.raises(InvalidInput):
            ModelWeights.load(path)


class TestEncode:
    def test_output_shape(self, rng, small_cfg, small_weights):
        emb = encode(random_spectrogram(rng, frames=9), small_weights, small_cfg)
        assert emb.shape == (small_cfg.embed_channels, 9, BINS)

    def test_zero_inputs_zero_biases_give_zero(self, small_cfg, small_weights):
        zeroed = ModelWeights({
            name: (np.zeros_like(t) if name.endswith(".b") else t)
            for name, t in small_weights.tensors.items()
        }, small_weights.fingerprint)
        z = np.zeros((4, 5, BINS))
        stage = _EncoderStage(zeroed, small_cfg)
        emb = run_frames(stage.step, np.zeros((8, 5, BINS)), z, z[:2])
        np.testing.assert_array_equal(emb, 0.0)

    def test_causal_in_time(self, rng, small_cfg, small_weights):
        spec = random_spectrogram(rng, frames=10)
        base = encode(spec, small_weights, small_cfg)
        t = 6
        spec2 = spec.copy()
        spec2[:, t:, :] += random_spectrogram(rng, frames=10 - t)
        emb2 = encode(spec2, small_weights, small_cfg)
        np.testing.assert_array_equal(base[:, :t, :], emb2[:, :t, :])
        assert not np.array_equal(base[:, t:, :], emb2[:, t:, :])

    def test_shape_mismatch_rejected(self, rng, small_cfg, small_weights):
        # frames reach the encoder only through StreamingMaskNet.step
        net = StreamingMaskNet(small_weights, small_cfg)
        spec = random_spectrogram(rng, frames=1)
        for frame in (spec[:3, 0], spec[:, 0, :-1], spec):
            with pytest.raises(InvalidInput):
                net.step(frame)


class TestTimeSkip:
    """The network runs TAC on frames 0, 2, 4, ... and skips the rest."""

    def test_even_start(self, rng):
        cfg = ModelConfig(variant="M")
        for frames in (7, 8):
            net = StreamingMaskNet(init_random(cfg, seed=2), cfg)
            calls = record_tac_frames(net)
            forward_frames(net, random_spectrogram(rng, frames=frames))
            assert calls == [list(range(0, frames, 2))] * 2

    def test_shape_preserved_for_all_lengths(self, rng, small_cfg, small_weights):
        total = 40
        net = StreamingMaskNet(small_weights, small_cfg)
        (calls,) = record_tac_frames(net)
        masks = forward_frames(net, random_spectrogram(rng, frames=total))
        assert masks.shape == (small_cfg.zones, total, BINS)
        for frames in range(1, total + 1):
            ran = sum(1 for t in calls if t < frames)
            assert ran == int(np.ceil(frames / 2))

    def test_merge_places_processed_frames(self, rng, small_cfg, small_weights):
        # the sub-band stage sees TAC's output on selected frames and the
        # full-band output on skipped ones
        net = StreamingMaskNet(small_weights, small_cfg)
        fullband, tac, subband = net.blocks[0]
        seen = {"fullband": [], "tac": [], "subband": []}
        for name, stage in (("fullband", fullband), ("tac", tac), ("subband", subband)):
            def step(x, inner=stage.step, out=seen[name]):
                y = inner(x)
                out.append((net.frame_index, x, y))
                return y
            stage.step = step
        forward_frames(net, random_spectrogram(rng, frames=6))
        tac_out = {t: y for t, _, y in seen["tac"]}
        assert sorted(tac_out) == [0, 2, 4]
        for (t, _, fb_out), (_, sub_in, _) in zip(seen["fullband"], seen["subband"]):
            np.testing.assert_array_equal(sub_in, tac_out.get(t, fb_out))

    def test_merge_round_trip_is_identity(self, rng, small_cfg, small_weights):
        # with TAC replaced by the identity, which frames it runs on changes
        # nothing: a net started at an odd frame index runs it on the others
        spec = random_spectrogram(rng, frames=7)
        outs = []
        for start in (0, 1):
            net = StreamingMaskNet(small_weights, small_cfg)
            net.frame_index = start
            net.blocks[0][1].step = lambda x: x
            outs.append(forward_frames(net, spec))
        np.testing.assert_array_equal(outs[0], outs[1])

    # the TAC schedule and its MAC items do not depend on the attention lookback
    @pytest.mark.parametrize("bounded", [True, False])
    @pytest.mark.parametrize("first_tac_frame", [0])
    @pytest.mark.parametrize("frames", [1, 2, 7, 64])
    def test_tac_calls_match_mac_count(self, rng, bounded, first_tac_frame, frames):
        cfg = ModelConfig(variant="M", chunk_lookback_seconds=(
            2 * ModelConfig.hop_seconds if bounded else None))
        net = StreamingMaskNet(init_random(cfg, seed=2), cfg)
        calls = record_tac_frames(net)
        forward_frames(net, random_spectrogram(rng, frames=frames))
        expected = list(range(first_tac_frame, frames, 2))
        assert calls == [expected] * len(calls)
        report = count_macs(cfg, seconds=(frames - 0.5) * cfg.hop_seconds)
        c = cfg.embed_channels
        per_call = cfg.bins * c * (c // cfg.tac_compression)
        assert report.frames == frames
        for i, block_calls in enumerate(calls):
            assert len(block_calls) * per_call == report.items[f"block{i}.tac.linear_a"]


class TestCausalConv:
    def test_matches_per_tap_padding_reference(self, rng):
        # reference: pad every past frame separately and gather the
        # (kt, kf, in, F) patches tap by tap; the product must be bit-identical
        out_ch, in_ch, kt, kf, frames = 3, 2, 3, 3, 6
        w = rng.standard_normal((out_ch, in_ch, kt, kf)).astype(np.float32)
        b = rng.standard_normal(out_ch).astype(np.float32)
        x = rng.standard_normal((in_ch, frames, BINS)).astype(np.float32)
        conv = _CausalConv2d(w, b, BINS)
        w_mat = w.transpose(0, 2, 3, 1).reshape(out_ch, -1)
        history = np.concatenate([np.zeros((in_ch, kt - 1, BINS), np.float32), x],
                                 axis=1)
        for t in range(frames):
            patches = np.empty((kt, kf, in_ch, BINS), np.float32)
            for dt in range(kt):
                padded = np.pad(history[:, t + dt], ((0, 0), (kf // 2, kf // 2)))
                for df in range(kf):
                    patches[dt, df] = padded[:, df : df + BINS]
            expected = w_mat @ patches.reshape(-1, BINS) + b[:, None]
            np.testing.assert_array_equal(conv.step(x[:, t]), expected)


class TestTac:
    def test_channel_plan_for_default_compression(self, small_cfg, small_weights):
        # C=24, d=4: the container carries 24->6 compressions and a 12->24 restore
        assert small_weights["block0.tac.linear_a.w"].shape == (6, 24)
        assert small_weights["block0.tac.linear_c.w"].shape == (24, 12)
        emb = np.ones((24, 5, BINS))
        out = run_frames(_Tac(small_weights, "block0.tac").step, emb)
        assert out.shape == emb.shape

    def test_zero_input_zero_biases(self, small_cfg, small_weights):
        zeroed = ModelWeights({
            name: (np.zeros_like(t) if ".tac." in name and name.endswith(".b") else t)
            for name, t in small_weights.tensors.items()
        }, small_weights.fingerprint)
        out = run_frames(_Tac(zeroed, "block0.tac").step, np.zeros((24, 3, BINS)))
        np.testing.assert_array_equal(out, 0.0)

    def test_channel_mean_branch_closed_form(self, small_cfg, small_weights):
        # Linear_A zeroed; Linear_B picks channels 0..5; Linear_C reads only the
        # pooled half. Constant-over-channel input c > 0 must come out as c.
        tensors = dict(small_weights.tensors)
        comp = 6
        tensors["block0.tac.linear_a.w"] = np.zeros((comp, 24), np.float32)
        tensors["block0.tac.linear_a.b"] = np.zeros(comp, np.float32)
        wb = np.zeros((comp, 24), np.float32)
        wb[np.arange(comp), np.arange(comp)] = 1.0
        tensors["block0.tac.linear_b.w"] = wb
        tensors["block0.tac.linear_b.b"] = np.zeros(comp, np.float32)
        wc = np.zeros((24, 2 * comp), np.float32)
        wc[:, comp] = 1.0  # read the first pooled channel
        tensors["block0.tac.linear_c.w"] = wc
        tensors["block0.tac.linear_c.b"] = np.zeros(24, np.float32)
        crafted = ModelWeights(tensors, small_weights.fingerprint)
        c = 0.37
        emb = np.full((24, 4, BINS), c)
        out = run_frames(_Tac(crafted, "block0.tac").step, emb)
        np.testing.assert_allclose(out, c, atol=1e-12)


def full_band(emb, weights):
    return run_frames(_FullBand(weights, "block0.fullband").step, emb)


class TestFullBand:
    def test_shape_preserved(self, rng, small_weights):
        emb = rng.standard_normal((24, 7, BINS))
        assert full_band(emb, small_weights).shape == emb.shape

    def test_zero_weights_identity(self, rng, small_weights):
        tensors = {
            name: (np.zeros_like(t) if ".fullband." in name else t)
            for name, t in small_weights.tensors.items()
        }
        emb = rng.standard_normal((24, 5, BINS))
        weights = ModelWeights(tensors, small_weights.fingerprint)
        np.testing.assert_array_equal(full_band(emb, weights), emb)

    def test_causal(self, rng, small_weights):
        emb = rng.standard_normal((24, 8, BINS))
        base = full_band(emb, small_weights)
        bumped = emb.copy()
        bumped[:, 5:, :] += 1.0
        out = full_band(bumped, small_weights)
        np.testing.assert_array_equal(base[:, :5], out[:, :5])


def sub_band(emb, weights, cfg):
    return run_frames(_SubBand(weights, "block0.subband", cfg).step, emb)


class TestSubbandConformer:
    def test_shape_preserved(self, rng, small_cfg, small_weights):
        emb = rng.standard_normal((24, 6, BINS))
        assert sub_band(emb, small_weights, small_cfg).shape == emb.shape

    def test_causal(self, rng, small_cfg, small_weights):
        emb = rng.standard_normal((24, 9, BINS))
        base = sub_band(emb, small_weights, small_cfg)
        bumped = emb.copy()
        bumped[:, 6:, :] -= 2.0
        out = sub_band(bumped, small_weights, small_cfg)
        np.testing.assert_array_equal(base[:, :6], out[:, :6])
        assert not np.array_equal(base[:, 6:], out[:, 6:])

    def test_chunked_equals_unchunked_when_window_not_binding(self, rng, small_cfg,
                                                              small_weights):
        emb = rng.standard_normal((24, 6, BINS))
        base = sub_band(emb, small_weights, small_cfg)
        # lookback of 10 frames > T=6: identical output
        chunked_cfg = replace(small_cfg, chunk_lookback_seconds=10 * 0.016)
        np.testing.assert_array_equal(base, sub_band(emb, small_weights, chunked_cfg))

    def test_chunking_changes_long_sequences(self, rng, small_cfg, small_weights):
        emb = rng.standard_normal((24, 12, BINS))
        base = sub_band(emb, small_weights, small_cfg)
        chunked_cfg = replace(small_cfg, chunk_lookback_seconds=4 * 0.016)
        out = sub_band(emb, small_weights, chunked_cfg)
        np.testing.assert_array_equal(base[:, :4], out[:, :4])
        assert not np.array_equal(base[:, 4:], out[:, 4:])


class TestKvRing:
    def test_bounded_ring_keeps_lookback_slots(self, rng, small_cfg, small_weights):
        lookback = 5
        cfg = replace(small_cfg, chunk_lookback_seconds=lookback * small_cfg.hop_seconds)
        assert cfg.lookback_frames == lookback
        net = StreamingMaskNet(small_weights, cfg)
        caches = [cache for _, _, subband in net.blocks for layer in subband.layers
                  for cache in (layer.k_cache, layer.v_cache)]
        nbytes = [cache.buf.nbytes for cache in caches]
        forward_frames(net, random_spectrogram(rng, frames=3 * lookback))
        for cache, before in zip(caches, nbytes):
            assert cache.buf.shape[0] == lookback
            assert cache.view().shape[0] == lookback
            assert cache.buf.nbytes == before

    def test_slot_holds_frame_modulo_lookback(self, rng):
        lookback = 5
        cache = _KvCache(2, 6, lookback)
        frames = rng.standard_normal((3 * lookback + 2, 2, 6)).astype(np.float32)
        for frame in frames:
            cache.append(frame)
        for n in range(len(frames) - lookback, len(frames)):
            np.testing.assert_array_equal(cache.view()[n % lookback], frames[n])

    @pytest.mark.parametrize("lookback", [None, 1, 4, 7])
    def test_matches_chronological_reference(self, rng, small_cfg, small_weights,
                                             monkeypatch, lookback):
        seconds = None if lookback is None else lookback * small_cfg.hop_seconds
        cfg = replace(small_cfg, chunk_lookback_seconds=seconds)
        spec = random_spectrogram(rng, frames=23)
        ring = forward(spec, small_weights, cfg)
        monkeypatch.setattr(_ConformerLayer, "_attend", chronological_attend)
        reference = forward(spec, small_weights, cfg)
        # two float32 summation orders: ~450 ulps at 1.0, as 1e-13 was in float64
        np.testing.assert_allclose(ring.speech, reference.speech, rtol=0, atol=5e-5)
        np.testing.assert_allclose(ring.noise, reference.noise, rtol=0, atol=5e-5)

    def test_unbounded_growth_keeps_every_frame(self, rng):
        cache = _KvCache(2, 6, None)
        frames = rng.standard_normal((100, 2, 6)).astype(np.float32)
        capacities = set()
        for n, frame in enumerate(frames, start=1):
            cache.append(frame)
            capacities.add(cache.buf.shape[0])
            assert cache.view().shape[0] == n
        assert len(capacities) >= 5  # 16, 20, 25, 31, ... slots
        np.testing.assert_array_equal(cache.view(), frames)


def normalised_probes(rng, width):
    """Vectors of norm sqrt(width), the most a layer norm's output reaches
    before its gain and bias: random directions, sign patterns, signed one-hots."""
    probes = np.concatenate([rng.standard_normal((200, width)),
                             rng.choice([-1.0, 1.0], size=(200, width)),
                             np.eye(width), -np.eye(width)])
    return probes / np.linalg.norm(probes, axis=1, keepdims=True) * np.sqrt(width)


class TestSoftmaxShift:
    @pytest.mark.parametrize("variant", ["S", "M", "L"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_shift_bounds_every_score(self, rng, variant, seed):
        cfg = ModelConfig(variant=variant)
        net = StreamingMaskNet(init_random(cfg, seed), cfg)
        layers = [layer for _, _, subband in net.blocks for layer in subband.layers]
        assert len(layers) == cfg.n_full_sub * cfg.conformer_layers
        for layer in layers:
            gain, bias = layer.ln["ln_att"]
            width = gain.size
            probes = [normalised_probes(rng, width)]
            # and the directions each head's query and key projections stretch most
            for w in (layer.wq, layer.wk):
                for w_head in w.reshape(layer.heads, -1, width):
                    top = np.linalg.svd(w_head)[2][0]
                    probes.append(np.sqrt(width) * np.stack([top, -top]))
            u = np.concatenate(probes).astype(np.float32) * gain + bias
            q = (u @ layer.wq.T + layer.bq).reshape(-1, layer.heads, layer.head_dim)
            k = (u @ layer.wk.T + layer.bk).reshape(-1, layer.heads, layer.head_dim)
            scores = np.abs(np.einsum("ahd,bhd->hab", q * layer.scale, k))
            bound = _score_bound(gain, bias, layer.wq, layer.bq, layer.wk, layer.bk,
                                 layer.heads) * layer.scale
            assert np.all(scores.max(axis=(1, 2)) <= bound)

    def test_scaled_query_weights_refused(self, small_cfg):
        weights = init_random(small_cfg, seed=0)
        name = "block0.subband.layer0.att.wq"
        tensors = {**weights.tensors, name: 20 * weights[name]}
        with pytest.raises(InvalidConfig, match="block0.subband.layer0.att"):
            StreamingMaskNet(ModelWeights(tensors, weights.fingerprint), small_cfg)

    @pytest.mark.parametrize("kind", sorted(CHANNEL_KINDS))
    def test_masks_finite_for_every_channel_kind(self, small_cfg, small_weights, kind):
        spec = analyze(bad_channel_wave([kind] * 4, seed=0, samples=4000))
        masks = forward(spec, small_weights, small_cfg)
        assert np.isfinite(masks.speech).all() and np.isfinite(masks.noise).all()


    def test_unshifted_softmax_finite_just_under_the_bound(self, small_cfg, small_weights):
        # grow one layer's query weights until its margined bound is 39.9, as
        # the layer computes it; the bound is affine in the factor, per head
        layer = "block0.subband.layer0"
        ln = (small_weights[f"{layer}.ln_att.g"], small_weights[f"{layer}.ln_att.b"])
        wq, bq = small_weights[f"{layer}.att.wq"], small_weights[f"{layer}.att.bq"]
        wk, bk = small_weights[f"{layer}.att.wk"], small_weights[f"{layer}.att.bk"]
        scale = np.float32(1.0 / np.sqrt(small_cfg.subband_hidden // small_cfg.attn_heads))
        margined = lambda c: (_score_bound(*ln, c * wq, bq, wk, bk, small_cfg.attn_heads)
                              * scale * (1 + 1e-3) + 1e-3)
        at0, at1 = margined(0.0), margined(1.0)
        factor = np.float32(((39.9 - at0) / (at1 - at0)).min())
        assert 39.8 < margined(factor).max() < 40.0
        tensors = {**small_weights.tensors, f"{layer}.att.wq": factor * wq}
        weights = ModelWeights(tensors, small_weights.fingerprint)
        assert small_cfg.lookback_frames is None
        for kind in sorted(CHANNEL_KINDS):
            spec = analyze(bad_channel_wave([kind] * 4, seed=0, samples=201 * 256))
            assert spec.shape[1] >= 200
            with np.errstate(over="raise", under="raise", invalid="raise"):
                masks = forward(spec, weights, small_cfg)
            assert np.isfinite(masks.speech).all() and np.isfinite(masks.noise).all()


class TestGoldenMasks:
    @pytest.mark.parametrize("lookback", [None, 4])
    def test_forward_matches_archive(self, small_cfg, small_weights, lookback):
        seconds = None if lookback is None else lookback * small_cfg.hop_seconds
        spec = random_spectrogram(np.random.default_rng(12), frames=12)
        masks = forward(spec, small_weights, replace(small_cfg, chunk_lookback_seconds=seconds))
        golden = np.load(GOLDEN_MASKS)
        for kind in ("speech", "noise"):
            got = getattr(masks, kind)[..., ::2]
            expected = golden[f"unbounded_{kind}"]
            if lookback is not None:
                expected = np.concatenate([expected[:, :lookback], golden[f"lookback4_{kind}"]],
                                          axis=1)
            assert got.shape == expected.shape == (4, 12, (BINS + 1) // 2)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)


class TestConformerConv:
    def test_window_matches_list_history_reference(self, rng, small_cfg, small_weights,
                                                   monkeypatch):
        emb = rng.standard_normal((24, 9, BINS)).astype(np.float32)
        window = sub_band(emb, small_weights, small_cfg)
        monkeypatch.setattr(_ConformerLayer, "_conv_module", list_conv_module)
        np.testing.assert_array_equal(window, sub_band(emb, small_weights, small_cfg))


# zero, the smallest and largest gate arguments, past float32 exp's overflow
# at 88.72, and the largest finite float32
SIGMOID_PROBES = np.array([0.0, 1e-8, 1.0, 10.0, 88.7, 1e4, np.finfo(np.float32).max],
                          np.float32)


def logistic64(x):
    """The float64 logistic through exp(-|x|), which cannot overflow."""
    x = x.astype(np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestSigmoid:
    def test_finite_non_decreasing_and_within_one_float32_step(self):
        x = np.sort(np.concatenate([-SIGMOID_PROBES, SIGMOID_PROBES,
                                    np.linspace(-100, 100, 400_001, dtype=np.float32)]))
        with np.errstate(all="raise"):
            y = _sigmoid(x)
        assert y.dtype == np.float32
        assert np.isfinite(y).all() and (y >= 0).all() and (y <= 1).all()
        assert (np.diff(y) >= 0).all()
        np.testing.assert_allclose(y, logistic64(x), rtol=0, atol=2.0**-23)


# Steps the mask network and runs the beamformer in a fresh interpreter, then
# prints every scipy module loaded: both use numpy alone.
_FRESH_NETWORK_RUN = """
import sys
import numpy as np
import cabinsep.model, cabinsep.mvdr
from cabinsep.model import MaskPair, StreamingMaskNet, init_random, variant_config
cfg = variant_config("S")
net = StreamingMaskNet(init_random(cfg, 7), cfg)
rng = np.random.default_rng(0)
spec = rng.standard_normal((4, 3, cfg.bins)) + 1j * rng.standard_normal((4, 3, cfg.bins))
steps = [net.step(spec[:, t]) for t in range(3)]
masks = MaskPair(*(np.stack(kind, axis=1) for kind in zip(*steps)))
out = cabinsep.mvdr.separate_stream(spec, masks)
assert out.shape == spec.shape and np.isfinite(out).all()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_network_and_mvdr_import_no_scipy():
    src = str(Path(cabinsep.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    result = subprocess.run([sys.executable, "-c", _FRESH_NETWORK_RUN],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def layer_norm_reference(x, gain, bias):
    """Layer norm of each column of a (width, bins) array, in float64 through
    np.mean and np.var."""
    x = x.astype(np.float64)
    return ((x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + 1e-5)
            * gain[:, None] + bias[:, None])


class TestLayerNorm:
    # a "row" is one bin's vector of `width` features, a column of the
    # (width, bins) input; 16 is the preset width; 1/24 is not exact in float32
    @pytest.mark.parametrize("width", [16, 24])
    def test_matches_float64_var_reference(self, rng, width):
        x = rng.standard_normal((width, 257)).astype(np.float32)
        gain = rng.uniform(0.5, 1.5, width).astype(np.float32)
        bias = rng.standard_normal(width).astype(np.float32)
        out = _layer_norm(x, gain, bias)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, layer_norm_reference(x, gain, bias), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("width", [16, 24])
    def test_rows_offset_by_1e3(self, rng, width):
        # the float32 means carry ~1e-4 of a unit row spread at this offset
        x = (rng.standard_normal((width, 257)) + 1e3).astype(np.float32)
        gain = rng.uniform(0.5, 1.5, width).astype(np.float32)
        bias = rng.standard_normal(width).astype(np.float32)
        np.testing.assert_allclose(_layer_norm(x, gain, bias), layer_norm_reference(x, gain, bias),
                                   rtol=0, atol=1e-3)

    def test_constant_row_gives_exactly_bias(self, rng):
        # constants with few significant bits, so that every partial sum of
        # the mean is exact in any summation order
        rows = np.array([0.0, 3.0, -7.25, 1000.5, 2.0**-20], np.float32)
        x = np.repeat(rows[None, :], 16, axis=0)
        gain = rng.uniform(0.5, 1.5, 16).astype(np.float32)
        bias = rng.standard_normal(16).astype(np.float32)
        np.testing.assert_array_equal(_layer_norm(x, gain, bias), np.tile(bias[:, None], (1, 5)))


class TestFloat32:
    def test_network_computes_in_float32_on_the_container_arrays(self, rng, small_cfg,
                                                                  small_weights):
        assert small_cfg.lookback_frames is None  # the KV caches grow
        net = StreamingMaskNet(small_weights, small_cfg)
        for t in range(40):
            masks = net.step(random_spectrogram(rng, frames=1)[:, 0])
            assert [m.dtype for m in masks] == [np.float32, np.float32]
        (fullband, tac, subband), = net.blocks
        caches = [c for layer in subband.layers for c in (layer.k_cache, layer.v_cache)]
        assert all(c.buf.shape[0] > 16 for c in caches)  # grew past the initial slots
        state = [c.buf for c in caches] + [layer.conv_window for layer in subband.layers]
        state += [conv.window for pair in net.encoder.convs.values() for conv in pair]
        state += [net.decoder.window, fullband.lstm.h, fullband.lstm.c]
        assert [a.dtype for a in state] == [np.float32] * len(state)
        # one matrix per stage is the container's own array, not a copy; the
        # conv kernels are re-laid out as matrices, so those are copies
        held = {
            "merge.w": net.encoder.merge_w,
            "block0.fullband.in_proj.w": fullband.w_in,
            "block0.fullband.lstm.w_hh": fullband.lstm.w_hh,
            "block0.tac.linear_a.w": tac.wa,
            "block0.subband.conv_in.w": subband.w_in,
            "block0.subband.layer0.att.wq": subband.layers[0].wq,
            "head_speech.w": net.w_speech,
        }
        for name, array in held.items():
            assert np.shares_memory(array, small_weights[name]), name

    def test_forward_masks_are_float32(self, rng, small_cfg, small_weights):
        masks = forward(random_spectrogram(rng, frames=3), small_weights, small_cfg)
        assert masks.speech.dtype == masks.noise.dtype == np.float32


class TestForward:
    def test_masks_bounded_and_shaped(self, rng, small_cfg, small_weights):
        spec = random_spectrogram(rng, frames=11)
        masks = forward(spec, small_weights, small_cfg)
        assert masks.speech.shape == (4, 11, BINS)
        assert masks.noise.shape == (4, 11, BINS)
        for m in (masks.speech, masks.noise):
            assert np.all(m >= 0.0) and np.all(m <= 1.0)

    def test_deterministic(self, rng, small_cfg, small_weights):
        spec = random_spectrogram(rng, frames=6)
        a = forward(spec, small_weights, small_cfg)
        b = forward(spec, small_weights, small_cfg)
        np.testing.assert_array_equal(a.speech, b.speech)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_streaming_equivalence_bit_exact(self, rng, small_cfg, small_weights):
        spec = random_spectrogram(rng, frames=9)
        batch = forward(spec, small_weights, small_cfg)
        net = StreamingMaskNet(small_weights, small_cfg)
        for t in range(spec.shape[1]):
            s, n = net.step(spec[:, t, :])
            np.testing.assert_array_equal(batch.speech[:, t, :], s)
            np.testing.assert_array_equal(batch.noise[:, t, :], n)

    def test_streaming_equivalence_ten_seconds(self, rng, small_cfg, small_weights):
        # 10 s of audio at the 16 ms hop = 625 frames, one call vs stateful steps
        frames = 625
        spec = random_spectrogram(rng, frames=frames, scale=0.3)
        batch = forward(spec, small_weights, small_cfg)
        net = StreamingMaskNet(small_weights, small_cfg)
        for t in range(frames):
            s, n = net.step(spec[:, t, :])
            assert np.array_equal(batch.speech[:, t, :], s)
            assert np.array_equal(batch.noise[:, t, :], n)

    def test_prefix_runs_bit_exact(self, rng, small_cfg, small_weights):
        spec = random_spectrogram(rng, frames=12)
        full = forward(spec, small_weights, small_cfg)
        for t in (1, 5, 11):
            part = forward(spec[:, :t, :], small_weights, small_cfg)
            np.testing.assert_array_equal(part.speech, full.speech[:, :t, :])
            np.testing.assert_array_equal(part.noise, full.noise[:, :t, :])

    def test_end_to_end_causality_under_future_perturbation(self, rng, small_cfg,
                                                            small_weights):
        spec = random_spectrogram(rng, frames=10)
        base = forward(spec, small_weights, small_cfg)
        for _ in range(20):
            t = int(rng.integers(1, 10))
            other = spec.copy()
            other[:, t:, :] += random_spectrogram(rng, frames=10 - t)
            out = forward(other, small_weights, small_cfg)
            np.testing.assert_array_equal(base.speech[:, :t, :], out.speech[:, :t, :])
            np.testing.assert_array_equal(base.noise[:, :t, :], out.noise[:, :t, :])

    def test_wrong_weights_rejected(self, rng, small_cfg):
        other_cfg = ModelConfig(variant="M")
        wrong = init_random(other_cfg, seed=0)
        with pytest.raises(InvalidConfig):
            forward(random_spectrogram(rng, frames=3), wrong, small_cfg)

    def test_single_frame(self, rng, small_cfg, small_weights):
        masks = forward(random_spectrogram(rng, frames=1), small_weights, small_cfg)
        assert masks.speech.shape[1] == 1

    def test_interleaved_streams_share_weights_independently(self, rng, small_cfg,
                                                             small_weights):
        # two concurrent streams over the same (read-only) weights must behave
        # exactly like two isolated runs
        spec_a = random_spectrogram(rng, frames=6)
        spec_b = random_spectrogram(rng, frames=6)
        solo_a = forward(spec_a, small_weights, small_cfg)
        solo_b = forward(spec_b, small_weights, small_cfg)
        net_a = StreamingMaskNet(small_weights, small_cfg)
        net_b = StreamingMaskNet(small_weights, small_cfg)
        for t in range(6):
            sa, _ = net_a.step(spec_a[:, t, :])
            sb, _ = net_b.step(spec_b[:, t, :])
            np.testing.assert_array_equal(sa, solo_a.speech[:, t, :])
            np.testing.assert_array_equal(sb, solo_b.speech[:, t, :])

    def test_non_finite_frame_rejected_without_touching_state(self, rng, small_cfg,
                                                              small_weights):
        spec = random_spectrogram(rng, frames=6)
        net = StreamingMaskNet(small_weights, small_cfg)
        clean = StreamingMaskNet(small_weights, small_cfg)
        for t in range(3):
            net.step(spec[:, t])
            clean.step(spec[:, t])
        for bad in (np.nan, np.inf, -np.inf, complex(1.0, np.nan)):
            poisoned = spec[:, 3].copy()
            poisoned[2, 5] = bad
            with pytest.raises(InvalidInput):
                net.step(poisoned)
        for t in range(3, 6):
            for got, expected in zip(net.step(spec[:, t]), clean.step(spec[:, t])):
                np.testing.assert_array_equal(got, expected)

    @settings(max_examples=8, deadline=None)
    @given(frames=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_mask_range_property(self, small_cfg, small_weights, frames, seed):
        r = np.random.default_rng(seed)
        spec = random_spectrogram(r, frames=frames, scale=float(r.uniform(0.01, 10)))
        masks = forward(spec, small_weights, small_cfg)
        assert np.all(masks.speech >= 0) and np.all(masks.speech <= 1)
        assert np.all(masks.noise >= 0) and np.all(masks.noise <= 1)
