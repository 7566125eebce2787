import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cabinsep.errors import InvalidInput
from cabinsep.metrics import (
    PositioningEntry,
    PositioningResult,
    rtf_benchmark,
    si_snr,
    zone_positioning,
)

FS = 16000


class TestSiSnr:
    def test_identical_clamps_high(self, rng):
        x = rng.standard_normal(500)
        assert si_snr(x, x) == 60.0

    def test_scaled_estimate_also_clamps(self, rng):
        x = rng.standard_normal(500)
        assert si_snr(3.7 * x, x) == 60.0

    def test_orthogonal_clamps_low(self):
        t = np.zeros(100)
        t[0] = 1.0
        e = np.zeros(100)
        e[1] = 1.0
        assert si_snr(e, t) == -60.0

    def test_silent_target_rejected(self, rng):
        with pytest.raises(InvalidInput):
            si_snr(rng.standard_normal(10), np.zeros(10))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInput):
            si_snr(rng.standard_normal(10), rng.standard_normal(11))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), c=st.floats(0.001, 1000))
    def test_scale_invariance_both_sides(self, seed, c):
        r = np.random.default_rng(seed)
        t = r.standard_normal(256)
        e = t + 0.3 * r.standard_normal(256)
        base = si_snr(e, t)
        assert si_snr(c * e, t) == pytest.approx(base, abs=1e-9)
        assert si_snr(e, c * t) == pytest.approx(base, abs=1e-9)

    def test_known_value_by_construction(self, rng):
        t = rng.standard_normal(1000)
        t /= np.linalg.norm(t)
        noise = rng.standard_normal(1000)
        noise -= np.dot(noise, t) * t        # orthogonal residual
        noise *= 0.1 / np.linalg.norm(noise)  # -> ratio 1/0.01 = 20 dB
        assert si_snr(t + noise, t) == pytest.approx(20.0, abs=1e-9)


class TestPositioning:
    def test_energy_argmax(self, rng):
        outs = np.zeros((4, 1000))
        outs[2] = rng.standard_normal(1000)
        entry = zone_positioning(outs, true_zone=2)
        assert entry.predicted_zone == 2 and entry.correct and entry.decided

    def test_tie_breaks_to_lowest_zone(self):
        outs = np.ones((3, 100))
        assert zone_positioning(outs, true_zone=1).predicted_zone == 0

    def test_all_silent_is_undecided(self):
        entry = zone_positioning(np.zeros((4, 100)), true_zone=0)
        assert not entry.decided
        result = PositioningResult()
        result.add(entry)
        assert result.accuracy is None
        assert result.undecided_count == 1

    def test_gain_invariance(self, rng):
        outs = rng.standard_normal((4, 500))
        a = zone_positioning(outs, 1).predicted_zone
        b = zone_positioning(outs * 7.3, 1).predicted_zone
        assert a == b

    def test_aggregates_and_nspa(self):
        result = PositioningResult()
        result.add(PositioningEntry(0, 0, non_standard=False))
        result.add(PositioningEntry(1, 1, non_standard=True))
        result.add(PositioningEntry(2, 0, non_standard=True))
        assert result.accuracy == pytest.approx(2 / 3)
        assert result.nspa == pytest.approx(1 / 2)
        doc = result.to_dict()
        assert doc["utterances"] == 3

    def test_bad_shapes_rejected(self, rng):
        with pytest.raises(InvalidInput):
            zone_positioning(rng.standard_normal(100), 0)
        with pytest.raises(InvalidInput):
            zone_positioning(rng.standard_normal((2, 100)), 5)


class TestRtf:
    def test_reports_positive_rtf_and_runs(self):
        calls = []

        def work():
            calls.append(1)
            time.sleep(0.002)

        report = rtf_benchmark(work, audio_seconds=1.0, runs=5)
        assert len(calls) == 6
        assert len(report.rtfs) == 5
        assert report.median > 0
        assert report.spread >= 0
        assert report.to_dict()["rtf_median"] == report.median

    def test_invalid_args_rejected(self):
        with pytest.raises(InvalidInput):
            rtf_benchmark(lambda: None, audio_seconds=0.0)
        with pytest.raises(InvalidInput):
            rtf_benchmark(lambda: None, audio_seconds=1.0, runs=0)

    def test_doubling_audio_length_keeps_rtf_steady(self):
        # steady-state property: with bounded attention lookback, per-second
        # cost is constant, so RTF moves < 20% when the audio doubles
        from cabinsep.model import init_random, variant_config
        from cabinsep.pipeline import separate_waveform

        cfg = variant_config("S", chunk_lookback_seconds=0.5)
        weights = init_random(cfg, 0)
        rng = np.random.default_rng(0)

        def make_run(seconds):
            wave = rng.standard_normal((4, int(seconds * FS))) * 0.05
            return lambda: separate_waveform(wave, weights, cfg)

        short = rtf_benchmark(make_run(0.8), 0.8, runs=3).median
        long = rtf_benchmark(make_run(1.6), 1.6, runs=3).median
        assert abs(long - short) / short < 0.2


class TestBlasPinning:
    def test_timed_calls_run_on_one_blas_thread_and_setting_is_restored(self):
        from cabinsep.metrics import _openblas

        lib = _openblas()
        original = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        before = lib.scipy_openblas_get_num_threads64_()
        seen = []
        try:
            report = rtf_benchmark(
                lambda: seen.append(lib.scipy_openblas_get_num_threads64_()),
                audio_seconds=1.0, runs=3)
            after = lib.scipy_openblas_get_num_threads64_()
        finally:
            lib.scipy_openblas_set_num_threads64_(original)
        assert seen == [1] * 4
        assert report.blas_threads == 1
        assert report.to_dict()["blas_threads"] == 1
        assert after == before

    def test_setting_restored_when_the_callable_raises(self):
        from cabinsep.metrics import _openblas

        lib = _openblas()
        before = lib.scipy_openblas_get_num_threads64_()

        def fail():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            rtf_benchmark(fail, audio_seconds=1.0)
        assert lib.scipy_openblas_get_num_threads64_() == before

    def test_missing_library_fails_loudly(self, monkeypatch, tmp_path):
        import cabinsep.metrics as metrics

        monkeypatch.setattr(metrics.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        with pytest.raises(RuntimeError, match="openblas"):
            rtf_benchmark(lambda: None, audio_seconds=1.0)
