import numpy as np
import pytest
from scipy.signal import fftconvolve, hilbert

from cabinsep.errors import InvalidConfig, InvalidInput
from cabinsep.irlab import (
    CABIN_SEATS,
    ExcitationSpec,
    ImpulseResponse,
    RoomSpec,
    boundary_position,
    cabin_room,
    extract_ir,
    gen_ess,
    gen_excitation,
    gen_mls,
    gen_tsp,
    inverse_filter_ess,
    mix_ir_sets,
    read_ir,
    seat_position,
    simulate_ism,
    simulate_ism_all,
    write_ir,
)

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

    def test_boundary_position_is_midpoint(self):
        mid = boundary_position(0, 1)
        np.testing.assert_allclose(
            mid, 0.5 * (np.array(CABIN_SEATS[0]) + np.array(CABIN_SEATS[1])))


class TestEss:
    def test_unit_envelope(self):
        sweep = gen_ess(ExcitationSpec(kind="ess"))
        assert np.max(np.abs(sweep)) <= 1.0 + 1e-12

    def test_self_deconvolution_pulse_quality(self):
        spec = ExcitationSpec(kind="ess")
        sweep = gen_ess(spec)
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
        sweep = gen_ess(spec)
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
        assert len(gen_mls(4)) == 15

    def test_circular_autocorrelation(self):
        for order in (4, 8, 11):
            seq = gen_mls(order)
            n = len(seq)
            spectrum = np.fft.rfft(seq)
            autocorr = np.fft.irfft(spectrum * np.conj(spectrum), n)
            np.testing.assert_allclose(autocorr[0], n, atol=1e-6)
            np.testing.assert_allclose(autocorr[1:], -1.0, atol=1e-6)

    def test_balance(self):
        for order in (4, 9, 14):
            seq = gen_mls(order)
            assert abs(int(np.sum(seq == 1.0)) - int(np.sum(seq == -1.0))) == 1

    def test_values_are_pm1(self):
        seq = gen_mls(6)
        assert set(np.unique(seq)) == {-1.0, 1.0}

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidConfig):
            gen_mls(1)


class TestTsp:
    def test_flat_magnitude(self):
        signal = gen_tsp(4096)
        mags = np.abs(np.fft.rfft(signal))
        np.testing.assert_allclose(mags, 1.0, atol=1e-6)

    def test_circular_inverse_gives_unit_impulse(self):
        n = 4096
        signal = gen_tsp(n)
        spec = np.fft.rfft(signal)
        pulse = np.fft.irfft(spec * np.conj(spec), n)
        np.testing.assert_allclose(pulse[0], 1.0, atol=1e-6)
        assert np.max(np.abs(pulse[1:])) < 1e-6

    def test_real_valued(self):
        signal = gen_tsp(2048, stretch=300)
        assert signal.dtype == np.float64
        assert np.max(np.abs(signal)) > 0

    def test_invalid_length_rejected(self):
        with pytest.raises(InvalidConfig):
            ExcitationSpec(kind="tsp", length=4095)


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
        recording = fftconvolve(gen_ess(spec), test_ir)
        r = np.random.default_rng(5)
        noise = r.standard_normal(len(recording))
        noise *= np.sqrt(np.mean(recording**2) / np.mean(noise**2) / 10**(20 / 10))
        extracted = extract_ir(recording + noise, spec, ir_length=128)
        assert ncc(extracted.taps, test_ir) > 0.95

    def test_excitation_itself_gives_delta(self):
        spec = ExcitationSpec(kind="tsp", length=4096)
        extracted = extract_ir(gen_tsp(4096), spec, ir_length=64)
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


class TestMixStrategies:
    @pytest.fixture
    def sets(self):
        sim = [ImpulseResponse(np.ones(4), origin="simulated") for _ in range(4)]
        rec = [ImpulseResponse(np.ones(4), origin="recorded") for _ in range(4)]
        return sim, rec

    def test_mixed_assigns_recorded_to_speaker_zone(self, sets):
        sim, rec = sets
        rng = np.random.default_rng(0)
        chosen = mix_ir_sets(sim, rec, "mixed", speaker_zone=2, rng=rng)
        assert [ir.origin for ir in chosen] == [
            "simulated", "simulated", "recorded", "simulated"]

    def test_added_fraction(self, sets):
        sim, rec = sets
        rng = np.random.default_rng(123)
        hits = sum(
            mix_ir_sets(sim, rec, "added", 0, rng)[0].origin == "recorded"
            for _ in range(10000))
        assert 0.23 <= hits / 10000 <= 0.27

    def test_only_recorded(self, sets):
        sim, rec = sets
        chosen = mix_ir_sets(sim, rec, "only", 1, np.random.default_rng(0))
        assert all(ir.origin == "recorded" for ir in chosen)

    def test_simulated_strategy(self, sets):
        sim, rec = sets
        chosen = mix_ir_sets(sim, None, "simulated", 1, np.random.default_rng(0))
        assert all(ir.origin == "simulated" for ir in chosen)

    def test_deterministic_given_seed(self, sets):
        sim, rec = sets
        a = [mix_ir_sets(sim, rec, "added", 0, np.random.default_rng(9))[0].origin
             for _ in range(50)]
        b = [mix_ir_sets(sim, rec, "added", 0, np.random.default_rng(9))[0].origin
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


class TestIrFiles:
    def test_round_trip_with_metadata(self, tmp_path):
        ir = ImpulseResponse(np.linspace(-0.5, 0.5, 64), origin="simulated",
                             zone=3, source_position=(1.0, 2.0, 0.5),
                             mic_position=(0.5, 0.5, 1.0))
        path = tmp_path / "ir.wav"
        write_ir(path, ir)
        back = read_ir(path)
        np.testing.assert_allclose(back.taps, ir.taps, atol=1e-7)
        assert back.origin == "simulated"
        assert back.zone == 3
        assert back.source_position == (1.0, 2.0, 0.5)
