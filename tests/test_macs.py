import numpy as np
import pytest
from dataclasses import replace

from cabinsep.model import count_macs, count_params, required_shapes, variant_config
from conftest import tac_frame_macs, tac_macs


class TestMacCounter:
    def test_small_variant_in_band(self):
        report = count_macs(variant_config("S"), seconds=1.0)
        assert 0.2 <= report.gmacs_per_second <= 0.8

    def test_monotone_across_variants(self):
        g = [count_macs(variant_config(v), seconds=1.0).gmacs_per_second
             for v in "SML"]
        assert g[0] < g[1] < g[2]

    def test_time_skip_halves_tac_exactly_on_even_frames(self):
        cfg = variant_config("L")
        report = count_macs(cfg, seconds=1.024)  # 64 frames at 62.5 frames/s
        assert report.frames == 64
        assert tac_macs(report) == 32 * tac_frame_macs(cfg)

    def test_time_skip_odd_frame_remainder(self):
        cfg = variant_config("L")
        report = count_macs(cfg, seconds=1.0)  # 63 frames: the TAC runs on 0, 2, ..., 62
        assert report.frames == 63
        assert tac_macs(report) == 32 * tac_frame_macs(cfg)

    def test_time_skip_reduction_strictly_positive(self):
        # against a TAC on every frame, the cut is the 31 skipped frames' worth
        cfg = variant_config("L")
        report = count_macs(cfg, seconds=1.0)
        every_frame_tac = report.frames * tac_frame_macs(cfg)
        assert every_frame_tac - tac_macs(report) == 31 * tac_frame_macs(cfg) > 0

    def test_lookback_caps_attention_cost(self):
        cfg = variant_config("S")
        chunked = replace(cfg, chunk_lookback_seconds=2.0)
        long_full = count_macs(cfg, seconds=10.0)
        long_chunked = count_macs(chunked, seconds=10.0)
        assert long_chunked.total < long_full.total
        short_full = count_macs(cfg, seconds=1.0)
        short_chunked = count_macs(chunked, seconds=1.0)  # 63 frames < 125 lookback
        assert short_full.total == short_chunked.total

    def test_itemization_covers_every_block(self):
        cfg = variant_config("M")
        items = count_macs(cfg, seconds=1.0).items
        for i in range(cfg.n_full_sub):
            assert f"block{i}.tac.linear_a" in items
            assert f"block{i}.subband.attention" in items
        assert all(v >= 0 for v in items.values())


class TestPinnedCounts:
    """Totals and item keys as counted before the items came from the weight map."""

    @pytest.mark.parametrize("variant, one_second, twelve_seconds_1s_lookback", [
        ("S", 383199696, 5238973664),
        ("M", 479624400, 6386005664),
        ("L", 699581808, 9339998496),
    ])
    def test_totals(self, variant, one_second, twelve_seconds_1s_lookback):
        cfg = variant_config(variant)
        assert count_macs(cfg, seconds=1.0).total == one_second
        bounded = replace(cfg, chunk_lookback_seconds=1.0)
        assert count_macs(bounded, seconds=12.0).total == twelve_seconds_1s_lookback

    def test_total_without_time_skip(self):
        # as counted when a config could run the TAC on every frame: 64 frames
        # of L, with the 32 skipped TAC frames' worth added back
        cfg = variant_config("L")
        assert count_macs(cfg, seconds=1.024).total + 32 * tac_frame_macs(cfg) == 740236288

    def test_small_variant_item_keys(self):
        items = count_macs(variant_config("S"), seconds=1.0).items
        assert list(items) == [
            "enc_spec.conv1", "enc_spec.conv2", "enc_lps.conv1", "enc_lps.conv2",
            "enc_ipd.conv1", "enc_ipd.conv2", "merge",
            "block0.fullband.in_proj", "block0.fullband.lstm", "block0.fullband.out_proj",
            "block0.tac.linear_a", "block0.tac.linear_b", "block0.tac.linear_c",
            "block0.subband.conv_in", "block0.subband.layers", "block0.subband.attention",
            "block0.subband.proj_out", "decoder", "head_speech", "head_noise",
        ]
        assert all(type(v) is int for v in items.values())


class TestParamCounter:
    def test_small_variant_in_band(self):
        assert 0.5e6 <= count_params(variant_config("S")) <= 2.2e6

    def test_matches_tensor_sizes(self):
        cfg = variant_config("M")
        total = sum(int(np.prod(s)) for s in required_shapes(cfg).values())
        assert count_params(cfg) == total

    def test_monotone_across_variants(self):
        p = [count_params(variant_config(v)) for v in "SML"]
        assert p[0] < p[1] < p[2]
