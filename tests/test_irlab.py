import json
import math

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import fftconvolve, hilbert

from cabinsep.augment import render_reverberant
from cabinsep.dsp import write_wav
from cabinsep.errors import InvalidConfig, InvalidInput
from cabinsep.irlab import (
    CABIN_DIMENSIONS,
    CABIN_MICS,
    CABIN_SEATS,
    ExcitationSpec,
    ImpulseResponse,
    RoomSpec,
    _wrap_periodic,
    boundary_position,
    cabin_room,
    extract_ir,
    gen_excitation,
    inverse_filter_ess,
    mix_ir_sets,
    read_ir,
    seat_position,
    simulate_ism,
    simulate_ism_all,
    write_ir,
)
from cabinsep.model import ModelConfig

FS = 16000
C = 343.0


def ncc(a, b):
    n = min(len(a), len(b))
    a, b = np.asarray(a)[:n], np.asarray(b)[:n]
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-30))


@pytest.fixture(scope="module")
def test_ir():
    r = np.random.default_rng(0)
    return r.standard_normal(128) * np.exp(-np.arange(128) / 30.0)


def direct_convolve(x, h):
    """Independent O(N*M) oracle for linear convolution."""
    out = np.zeros(len(x) + len(h) - 1)
    for m, tap in enumerate(h):
        out[m : m + len(x)] += tap * x
    return out


def convolve(x, taps):
    """Convolve a waveform with one IR the way scenes are rendered."""
    return render_reverberant(x, [ImpulseResponse(taps)])[0]


class TestConvolve:
    def test_unit_impulse_identity(self, rng):
        s = rng.standard_normal(300)
        np.testing.assert_allclose(convolve(s, np.array([1.0]))[:300], s, atol=1e-12)

    def test_shifted_impulse_delays(self, rng):
        s = rng.standard_normal(200)
        h = np.zeros(8)
        h[5] = 1.0
        out = convolve(s, h)
        np.testing.assert_allclose(out[5 : 5 + 200], s, atol=1e-9)
        assert np.max(np.abs(out[:5])) < 1e-12

    def test_matches_direct_sum_on_100_random_cases(self, rng):
        for _ in range(100):
            x = rng.standard_normal(1024)
            h = rng.standard_normal(128)
            got = convolve(x, h)
            want = direct_convolve(x, h)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_empty_operands_rejected(self):
        with pytest.raises(InvalidInput):
            convolve(np.array([]), np.array([1.0]))
        with pytest.raises(InvalidInput):
            convolve(np.array([1.0]), np.array([]))

    def test_multichannel_convolution(self, rng):
        x = rng.standard_normal(256)
        irs = [ImpulseResponse(rng.standard_normal(n)) for n in (16, 8, 4)]
        out = render_reverberant(x, irs)
        assert out.shape == (3, 271)
        np.testing.assert_allclose(out[1, :263], direct_convolve(x, irs[1].taps), atol=1e-9)
        assert not out[1, 263:].any()


class TestIsm:
    def test_integer_delay_exact_pulse(self):
        dist = C * 48 / FS  # exactly 48 samples of delay
        room = RoomSpec(dimensions=(2.8, 1.5, 1.2), source=(0.5, 0.75, 0.6),
                        mics=((0.5 + dist, 0.75, 0.6),), reflection=0.0,
                        max_order=0, ir_length=256)
        ir = simulate_ism(room, 0)
        np.testing.assert_allclose(ir.taps[48], 1.0 / (4 * np.pi * dist), atol=1e-12)
        assert np.max(np.abs(np.delete(ir.taps, 48))) < 1e-12

    def test_direct_path_delay_within_half_sample(self):
        r = np.random.default_rng(42)
        for _ in range(100):
            dims = r.uniform(2.0, 6.0, 3)
            src = tuple(r.uniform(0.2, 0.8, 3) * dims)
            mic = tuple(r.uniform(0.2, 0.8, 3) * dims)
            room = RoomSpec(dimensions=tuple(dims), source=src, mics=(mic,),
                            reflection=0.5, max_order=0, ir_length=4096)
            ir = simulate_ism(room, 0)
            expected = np.linalg.norm(np.subtract(src, mic)) / C * FS
            assert abs(np.argmax(np.abs(ir.taps)) - expected) <= 0.5

    def test_zero_reflection_single_arrival(self):
        room = cabin_room((1.2, 0.5, 0.9), reflection=0.0, max_order=3)
        ir = simulate_ism(room, 0)
        peak = np.argmax(np.abs(ir.taps))
        outside = np.abs(np.concatenate([ir.taps[: max(peak - 9, 0)],
                                         ir.taps[peak + 9:]]))
        assert np.max(outside) < 1e-12

    def test_doubling_distance_halves_amplitude(self):
        d1 = C * 32 / FS
        base = dict(dimensions=(6.0, 3.0, 3.0), reflection=0.0, max_order=0,
                    ir_length=512)
        near = simulate_ism(RoomSpec(source=(1.0, 1.5, 1.5),
                                     mics=((1.0 + d1, 1.5, 1.5),), **base), 0)
        far = simulate_ism(RoomSpec(source=(1.0, 1.5, 1.5),
                                    mics=((1.0 + 2 * d1, 1.5, 1.5),), **base), 0)
        ratio = np.max(np.abs(near.taps)) / np.max(np.abs(far.taps))
        np.testing.assert_allclose(ratio, 2.0, rtol=1e-6)

    def test_energy_monotone_in_reflection(self):
        energies = []
        for beta in np.linspace(0.0, 0.9, 8):
            room = RoomSpec(dimensions=(2.8, 1.5, 1.2), source=(1.2, 0.5, 0.9),
                            mics=((2.0, 1.0, 1.0),), reflection=float(beta),
                            max_order=3, ir_length=2048)
            ir = simulate_ism(room, 0)
            energies.append(np.sum(ir.taps**2))
        assert np.all(np.diff(energies) >= -1e-15)

    def test_positions_outside_room_rejected(self):
        with pytest.raises(InvalidInput):
            RoomSpec(dimensions=(2.0, 2.0, 2.0), source=(2.5, 1.0, 1.0),
                     mics=((1.0, 1.0, 1.0),))
        with pytest.raises(InvalidInput):
            cabin_room((0.0, 0.5, 0.5))

    def test_cabin_preset_geometry(self):
        room = cabin_room(seat_position(2))
        assert len(room.mics) == 4
        ir_all = simulate_ism_all(cabin_room(seat_position(2), max_order=0,
                                             ir_length=512))
        # own-zone mic receives the strongest direct path
        peaks = [np.max(np.abs(ir.taps)) for ir in ir_all]
        assert int(np.argmax(peaks)) == 2

    def test_max_order_bounded(self):
        cabin_room(CABIN_SEATS[0], max_order=20)
        for order in (-1, 21, 10**6):
            with pytest.raises(InvalidConfig, match="max_order"):
                cabin_room(CABIN_SEATS[0], max_order=order)

    def test_dimensions_finite_positive_and_bounded(self):
        room = dict(source=(0.5, 0.5, 0.5), mics=((0.6, 0.6, 0.6),))
        RoomSpec(dimensions=(100.0, 100.0, 100.0), **room)
        for bad in (math.inf, math.nan, 100.5, 1e308, 0.0, -3.0):
            with pytest.raises(InvalidConfig, match="dimensions"):
                RoomSpec(dimensions=(bad, 2.0, 1.5), **room)

    def test_cabin_has_one_mic_and_seat_per_model_zone(self):
        assert len(CABIN_MICS) == len(CABIN_SEATS) == ModelConfig.zones

    @pytest.mark.parametrize("zone", [-1, 4])
    def test_seat_position_zone_out_of_range_rejected(self, zone):
        with pytest.raises(InvalidInput, match="outside"):
            seat_position(zone)

    @pytest.mark.parametrize("zone_a, zone_b", [(-1, 0), (4, 0), (0, -1), (0, 4)])
    def test_boundary_position_zone_out_of_range_rejected(self, zone_a, zone_b):
        with pytest.raises(InvalidInput, match="outside"):
            boundary_position(zone_a, zone_b)

    def test_boundary_position_is_midpoint(self):
        mid = boundary_position(0, 1)
        np.testing.assert_allclose(
            mid, 0.5 * (np.array(CABIN_SEATS[0]) + np.array(CABIN_SEATS[1])))


def loop_ism(room: RoomSpec, mic: int) -> np.ndarray:
    """The image-source lattice as six nested loops with one sinc per image.

    This is how `simulate_ism` was written before it enumerated the lattice
    as arrays; its taps are the reference the array code must equal bit for bit.
    """
    dims = np.asarray(room.dimensions)
    source = np.asarray(room.source)
    mic_pos = np.asarray(room.mics[mic])
    betas = room.reflection_pairs()
    order = room.max_order
    fs = FS
    taps = np.zeros(room.ir_length)

    def add_arrival(delay_samples, amplitude):
        n = taps.shape[0]
        center = int(math.floor(delay_samples))
        lo = max(center - 8 + 1, 0)
        hi = min(center + 8, n - 1)
        if hi < lo:
            return
        offsets = np.arange(lo, hi + 1) - delay_samples
        window = 0.5 * (1.0 + np.cos(np.pi * offsets / 8))
        window[np.abs(offsets) > 8] = 0.0
        taps[lo : hi + 1] += amplitude * np.sinc(offsets) * window

    grid = range(-order, order + 1)
    for p0 in (0, 1):
        for p1 in (0, 1):
            for p2 in (0, 1):
                p = np.array([p0, p1, p2])
                for r0 in grid:
                    for r1 in grid:
                        for r2 in grid:
                            r = np.array([r0, r1, r2])
                            near_hits = np.abs(r + p)
                            far_hits = np.abs(r)
                            if near_hits.sum() + far_hits.sum() > order:
                                continue
                            image = (1 - 2 * p) * source + 2 * r * dims
                            dist = float(np.linalg.norm(image - mic_pos))
                            if dist <= 0.0:
                                continue
                            gain = float(
                                np.prod(betas[0] ** near_hits) * np.prod(betas[1] ** far_hits)
                            ) / (4.0 * np.pi * dist)
                            add_arrival(dist / C * fs, gain)
    return taps


SHOEBOX = dict(dimensions=(4.0, 3.0, 2.5), source=(1.3, 0.7, 1.1),
               mics=((2.9, 2.2, 1.6), (0.4, 2.7, 0.3)), ir_length=4096)


class TestIsmMatchesLoop:
    @pytest.mark.parametrize("position", [*CABIN_SEATS, boundary_position(0, 2)])
    def test_cabin_preset(self, position):
        room = cabin_room(position)
        for m in range(len(room.mics)):
            assert np.array_equal(simulate_ism(room, m).taps, loop_ism(room, m))

    @pytest.mark.parametrize("reflection", [0.6, (0.1, 0.9, 0.35, 0.0, 0.7, 0.5)])
    @pytest.mark.parametrize("max_order", range(6))
    def test_orders_and_reflections(self, max_order, reflection):
        room = RoomSpec(**SHOEBOX, reflection=reflection, max_order=max_order)
        for m in range(len(room.mics)):
            assert np.array_equal(simulate_ism(room, m).taps, loop_ism(room, m))

    @pytest.mark.parametrize("ir_length", [1, 9, 20, 40])
    def test_short_ir_clips_and_drops_sincs(self, ir_length):
        # the direct path lands near tap 13 at mic 0: at 9 and 20 taps its sinc
        # is clipped, and later arrivals fall wholly past the end
        room = cabin_room(CABIN_SEATS[0], ir_length=ir_length)
        direct = np.linalg.norm(np.subtract(CABIN_SEATS[0], CABIN_MICS[0])) / C * FS
        assert 8 < direct < 20
        for m in range(len(room.mics)):
            assert np.array_equal(simulate_ism(room, m).taps, loop_ism(room, m))

    def test_source_on_a_microphone_skips_its_direct_path(self):
        room = RoomSpec(dimensions=CABIN_DIMENSIONS,
                        source=CABIN_MICS[1], mics=CABIN_MICS, max_order=2)
        for m in range(len(room.mics)):
            assert np.array_equal(simulate_ism(room, m).taps, loop_ism(room, m))


class TestEss:
    def test_unit_envelope(self):
        sweep = gen_excitation(ExcitationSpec(kind="ess"))
        assert np.max(np.abs(sweep)) <= 1.0 + 1e-12

    def test_self_deconvolution_pulse_quality(self):
        spec = ExcitationSpec(kind="ess")
        sweep = gen_excitation(spec)
        pulse = fftconvolve(sweep, inverse_filter_ess(spec))
        freqs = np.fft.rfftfreq(len(pulse), 1.0 / FS)
        band = (freqs >= 2 * spec.f_start) & (freqs <= 0.9 * spec.f_end)
        banded = np.fft.irfft(np.where(band, np.fft.rfft(pulse), 0), len(pulse))
        peak = np.argmax(np.abs(banded))
        exclude = np.ones(len(banded), bool)
        exclude[max(0, peak - 160): peak + 160] = False
        psr_db = 20 * np.log10(np.abs(banded[peak]) / np.max(np.abs(banded[exclude])))
        assert psr_db > 40.0

    def test_instantaneous_frequency_extrapolates_to_f_start(self):
        # phase-derivative oracle: the sweep frequency is exactly exponential,
        # so a log-linear fit away from the edges recovers f(0)
        spec = ExcitationSpec(kind="ess")
        sweep = gen_excitation(spec)
        phase = np.unwrap(np.angle(hilbert(sweep)))
        inst = np.diff(phase) * FS / (2 * np.pi)
        lo, hi = int(0.5 * FS), int(1.5 * FS)
        t = np.arange(lo, hi) / FS
        good = inst[lo:hi] > 0
        slope, intercept = np.polyfit(t[good], np.log(inst[lo:hi][good]), 1)
        f0 = np.exp(intercept)
        assert abs(f0 - spec.f_start) / spec.f_start < 0.01

    def test_invalid_band_rejected(self):
        with pytest.raises(InvalidConfig):
            ExcitationSpec(kind="ess", f_start=100.0, f_end=50.0)
        with pytest.raises(InvalidConfig):
            ExcitationSpec(kind="ess", f_end=9000.0)


class TestMls:
    def test_length(self):
        assert len(gen_excitation(ExcitationSpec(kind="mls", order=4))) == 15

    def test_circular_autocorrelation(self):
        for order in (4, 8, 11):
            seq = gen_excitation(ExcitationSpec(kind="mls", order=order))
            n = len(seq)
            spectrum = np.fft.rfft(seq)
            autocorr = np.fft.irfft(spectrum * np.conj(spectrum), n)
            np.testing.assert_allclose(autocorr[0], n, atol=1e-6)
            np.testing.assert_allclose(autocorr[1:], -1.0, atol=1e-6)

    def test_balance(self):
        for order in (4, 9, 14):
            seq = gen_excitation(ExcitationSpec(kind="mls", order=order))
            assert abs(int(np.sum(seq == 1.0)) - int(np.sum(seq == -1.0))) == 1

    def test_values_are_pm1(self):
        seq = gen_excitation(ExcitationSpec(kind="mls", order=6))
        assert set(np.unique(seq)) == {-1.0, 1.0}

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidConfig):
            ExcitationSpec(kind="mls", order=1)


class TestTsp:
    def test_flat_magnitude(self):
        signal = gen_excitation(ExcitationSpec(kind="tsp", length=4096))
        mags = np.abs(np.fft.rfft(signal))
        np.testing.assert_allclose(mags, 1.0, atol=1e-6)

    def test_circular_inverse_gives_unit_impulse(self):
        n = 4096
        signal = gen_excitation(ExcitationSpec(kind="tsp", length=n))
        spec = np.fft.rfft(signal)
        pulse = np.fft.irfft(spec * np.conj(spec), n)
        np.testing.assert_allclose(pulse[0], 1.0, atol=1e-6)
        assert np.max(np.abs(pulse[1:])) < 1e-6

    def test_real_valued(self):
        signal = gen_excitation(ExcitationSpec(kind="tsp", length=2048, stretch=300))
        assert signal.dtype == np.float64
        assert np.max(np.abs(signal)) > 0

    def test_invalid_length_rejected(self):
        with pytest.raises(InvalidConfig):
            ExcitationSpec(kind="tsp", length=4095)

    def test_stretch_defaults_to_a_quarter_of_the_length(self):
        spec = ExcitationSpec(kind="tsp", length=2048)
        assert spec.stretch == 512
        assert spec == ExcitationSpec(kind="tsp", length=2048, stretch=512)
        np.testing.assert_array_equal(
            gen_excitation(spec), gen_excitation(ExcitationSpec(kind="tsp", length=2048,
                                                                stretch=512)))


class TestExtraction:
    @pytest.mark.parametrize("spec", [
        ExcitationSpec(kind="ess"),
        ExcitationSpec(kind="mls", order=14),
        ExcitationSpec(kind="tsp", length=16384),
    ], ids=["ess", "mls", "tsp"])
    def test_round_trip_recovers_ir(self, spec, test_ir):
        recording = fftconvolve(gen_excitation(spec), test_ir)
        extracted = extract_ir(recording, spec, ir_length=128)
        assert ncc(extracted.taps, test_ir) > 0.99

    def test_ess_round_trip_with_noise(self, test_ir):
        spec = ExcitationSpec(kind="ess")
        recording = fftconvolve(gen_excitation(spec), test_ir)
        r = np.random.default_rng(5)
        noise = r.standard_normal(len(recording))
        noise *= np.sqrt(np.mean(recording**2) / np.mean(noise**2) / 10**(20 / 10))
        extracted = extract_ir(recording + noise, spec, ir_length=128)
        assert ncc(extracted.taps, test_ir) > 0.95

    def test_excitation_itself_gives_delta(self):
        spec = ExcitationSpec(kind="tsp", length=4096)
        extracted = extract_ir(gen_excitation(spec), spec, ir_length=64)
        assert extracted.taps[0] > 100 * np.max(np.abs(extracted.taps[1:]) + 1e-12)

    def test_delay_alignment(self, test_ir):
        spec = ExcitationSpec(kind="mls", order=13)
        delayed = np.concatenate([np.zeros(17), [1.0]])
        recording = fftconvolve(gen_excitation(spec), delayed)
        extracted = extract_ir(recording, spec, ir_length=64)
        assert np.argmax(np.abs(extracted.taps)) == 17

    def test_short_recording_rejected(self):
        spec = ExcitationSpec(kind="mls", order=10)
        with pytest.raises(InvalidInput):
            extract_ir(np.zeros(100), spec)


@pytest.mark.parametrize("period", [3, 4, 7, 15, 50, 16383, 16384])
def test_wrap_periodic_equals_loop(rng, period):
    signal = rng.standard_normal(3 * period + period // 2)
    expected = np.zeros(period)
    for start in range(0, signal.shape[0], period):
        chunk = signal[start : start + period]
        expected[: chunk.shape[0]] += chunk
    np.testing.assert_array_equal(_wrap_periodic(signal, period), expected)


class TestMixStrategies:
    @pytest.fixture
    def sets(self):
        sim = [ImpulseResponse(np.ones(4)) for _ in range(4)]
        rec = [ImpulseResponse(np.ones(4)) for _ in range(4)]
        return sim, rec

    def test_mixed_assigns_recorded_to_speaker_zone(self, sets):
        sim, rec = sets
        rng = np.random.default_rng(0)
        chosen = mix_ir_sets(sim, rec, "mixed", speaker_zone=2, rng=rng)
        assert [c is r for c, r in zip(chosen, rec)] == [False, False, True, False]
        assert [c is s for c, s in zip(chosen, sim)] == [True, True, False, True]

    def test_added_fraction(self, sets):
        sim, rec = sets
        rng = np.random.default_rng(123)
        hits = sum(
            mix_ir_sets(sim, rec, "added", 0, rng)[0] is rec[0]
            for _ in range(10000))
        assert 0.23 <= hits / 10000 <= 0.27

    def test_only_recorded(self, sets):
        sim, rec = sets
        chosen = mix_ir_sets(sim, rec, "only", 1, np.random.default_rng(0))
        assert all(c is r for c, r in zip(chosen, rec))

    def test_simulated_strategy(self, sets):
        sim, rec = sets
        chosen = mix_ir_sets(sim, None, "simulated", 1, np.random.default_rng(0))
        assert all(c is s for c, s in zip(chosen, sim))

    def test_deterministic_given_seed(self, sets):
        sim, rec = sets
        a = [mix_ir_sets(sim, rec, "added", 0, np.random.default_rng(9))[0] is rec[0]
             for _ in range(50)]
        b = [mix_ir_sets(sim, rec, "added", 0, np.random.default_rng(9))[0] is rec[0]
             for _ in range(50)]
        # one draw per fresh generator: deterministic
        assert a == b

    def test_missing_sets_rejected(self, sets):
        sim, rec = sets
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInput):
            mix_ir_sets(sim, None, "mixed", 0, rng)
        with pytest.raises(InvalidInput):
            mix_ir_sets(None, rec, "simulated", 0, rng)
        with pytest.raises(InvalidInput):
            mix_ir_sets(sim, rec, "bogus", 0, rng)

    @pytest.mark.parametrize("strategy", ["mixed", "added"])
    def test_set_of_other_size_rejected(self, sets, strategy):
        sim, rec = sets
        with pytest.raises(InvalidInput, match="recorded IR set holds 2 IRs, expected 4"):
            mix_ir_sets(sim, rec[:2], strategy, 0, np.random.default_rng(0))
        with pytest.raises(InvalidInput, match="simulated IR set holds 5 IRs, expected 4"):
            mix_ir_sets(sim + sim[:1], rec, strategy, 0, np.random.default_rng(0))


class TestIrFiles:
    def test_round_trip_with_metadata(self, tmp_path):
        ir = ImpulseResponse(np.linspace(-0.5, 0.5, 64))
        path = tmp_path / "ir.wav"
        write_ir(path, ir)
        back = read_ir(path)
        np.testing.assert_allclose(back.taps, ir.taps, atol=1e-7)
        assert [p.name for p in tmp_path.iterdir()] == ["ir.wav"]

    def test_rate_comes_from_the_wav_header(self, tmp_path):
        path = tmp_path / "ir.wav"
        write_ir(path, ImpulseResponse(np.ones(8)))
        # a stray sidecar with another rate, as older versions wrote one
        (tmp_path / "ir.wav.json").write_text(json.dumps({"sample_rate": 8000}))
        np.testing.assert_array_equal(read_ir(path).taps, np.ones(8))
        wavfile.write(path, FS // 2, np.ones(8, np.float32))
        (tmp_path / "ir.wav.json").write_text(json.dumps({"sample_rate": FS}))
        with pytest.raises(InvalidInput, match="ir.wav: sample rate 8000 Hz"):
            read_ir(path)

    @pytest.mark.parametrize("channels", [2, 4])
    def test_multichannel_wav_rejected(self, tmp_path, channels):
        path = tmp_path / "ir.wav"
        write_wav(path, np.ones((channels, 8)))
        with pytest.raises(InvalidInput, match="one channel"):
            read_ir(path)


def test_lengths_above_two_to_the_24_rejected():
    limit = 2**24
    ExcitationSpec(kind="ess", duration=limit / FS)
    ExcitationSpec(kind="tsp", length=limit)
    cabin_room(CABIN_SEATS[0], ir_length=limit)
    with pytest.raises(InvalidConfig):
        ExcitationSpec(kind="ess", duration=(limit + 1) / FS)
    with pytest.raises(InvalidConfig):
        ExcitationSpec(kind="tsp", length=limit + 2)
    with pytest.raises(InvalidConfig):
        cabin_room(CABIN_SEATS[0], ir_length=limit + 1)
    spec = ExcitationSpec(kind="mls", order=4)
    with pytest.raises(InvalidInput):
        extract_ir(gen_excitation(spec), spec, ir_length=limit + 1)
