import dataclasses
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile
from scipy.signal import get_window

from cabinsep.dsp import (
    StftConfig,
    analyze,
    read_wav,
    synthesize,
    write_wav,
)
from cabinsep.errors import InvalidConfig, InvalidInput

FS = 16000


class TestConfig:
    def test_defaults_match_expected_framing(self):
        cfg = StftConfig()
        assert dataclasses.fields(StftConfig) == ()
        assert (cfg.fft_size, cfg.window_length, cfg.hop) == (512, 512, 256)
        assert (cfg.bins, cfg.sample_rate) == (257, FS)

    @pytest.mark.parametrize("kwargs", [
        dict(fft_size=64),
        dict(fft_size=512),                 # not even the one framing's own value
        dict(sample_rate=8000),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(TypeError):
            StftConfig(**kwargs)

    def test_window_equals_scipy_periodic_hamming(self):
        np.testing.assert_array_equal(StftConfig().window(),
                                      get_window("hamming", 512, fftbins=True))


class TestAnalyze:
    def test_framing_contract(self, rng):
        spec = analyze(rng.standard_normal((1, 4096)))
        assert spec.shape == (1, 16, 257)

    def test_zero_input_zero_spectrogram(self):
        spec = analyze(np.zeros((2, 1000)))
        assert np.all(spec == 0)

    def test_cosine_peaks_at_expected_bin(self):
        # 1 kHz at fft 512 / 16 kHz lands on bin 32
        t = np.arange(4096) / FS
        spec = analyze(np.cos(2 * np.pi * 1000.0 * t))
        mags = np.abs(spec[0])
        assert np.all(np.argmax(mags, axis=1) == 32)

    def test_matches_direct_dft_of_one_windowed_frame(self, rng):
        # oracle: explicit DFT-matrix transform of the windowed frame
        cfg = StftConfig()
        x = rng.standard_normal(4096)
        frame_idx = 5
        frame = x[frame_idx * cfg.hop : frame_idx * cfg.hop + cfg.window_length]
        windowed = frame * cfg.window()
        n = np.arange(cfg.fft_size)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(cfg.bins), n) / cfg.fft_size)
        padded = np.zeros(cfg.fft_size)
        padded[: cfg.window_length] = windowed
        expected = dft @ padded
        got = analyze(x, cfg)[0, frame_idx]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @pytest.mark.parametrize("fft_size, window_length, hop", [(512, 512, 256)])
    @pytest.mark.parametrize("n", [1, 400, 16001])
    def test_frames_equal_explicit_slices(self, rng, fft_size, window_length, hop, n):
        # reference: each frame cut from the zero-padded signal by slicing
        cfg = StftConfig()
        x = rng.standard_normal((2, n))
        frames = -(-n // hop)  # the last frame may run past the signal
        padded = np.zeros((2, (frames - 1) * hop + window_length))
        padded[:, :n] = x
        segments = np.stack([padded[:, t * hop : t * hop + window_length]
                             for t in range(frames)], axis=1)
        expected = np.fft.rfft(segments * cfg.window(), n=fft_size, axis=-1)
        np.testing.assert_array_equal(analyze(x, cfg), expected)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInput):
            analyze(np.zeros((1, 0)))

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**31))
    def test_linearity(self, a, b, seed):
        r = np.random.default_rng(seed)
        w1, w2 = r.standard_normal((2, 2000))
        left = analyze(a * w1 + b * w2)
        right = a * analyze(w1) + b * analyze(w2)
        np.testing.assert_allclose(left, right, atol=1e-6)

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 1000, 40000, 192000])
    def test_equals_the_whole_array_transform(self, rng, channels, n):
        # reference: every channel padded, windowed and transformed in one array
        cfg = StftConfig()
        x = rng.standard_normal((channels, n))
        frames = -(-n // cfg.hop)
        padded = np.zeros((channels, (frames - 1) * cfg.hop + cfg.window_length))
        padded[:, :n] = x
        segments = sliding_window_view(padded, cfg.window_length, axis=-1)[:, ::cfg.hop]
        expected = np.fft.rfft(segments * cfg.window(), axis=-1)
        got = analyze(x, cfg)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_parseval_per_frame(self, rng):
        cfg = StftConfig()
        x = rng.standard_normal(4096)
        spec = analyze(x, cfg)[0]
        frame = x[2 * cfg.hop : 2 * cfg.hop + cfg.window_length] * cfg.window()
        time_energy = np.sum(frame**2)
        mags2 = np.abs(spec[2]) ** 2
        spec_energy = (mags2[0] + 2 * np.sum(mags2[1:-1]) + mags2[-1]) / cfg.fft_size
        np.testing.assert_allclose(time_energy, spec_energy, rtol=1e-6)


def overlap_add_loop(spec, cfg, length=None):
    """Reference iSTFT: one frame at a time into the output and the window norm."""
    window = cfg.window()
    segments = np.fft.irfft(spec, n=cfg.fft_size, axis=-1) * window
    n_chan, frames, _ = spec.shape
    out = np.zeros((n_chan, (frames - 1) * cfg.hop + cfg.window_length))
    norm = np.zeros(out.shape[1])
    for t in range(frames):
        start = t * cfg.hop
        out[:, start : start + cfg.window_length] += segments[:, t]
        norm[start : start + cfg.window_length] += window * window
    out /= np.maximum(norm, 1e-8)
    if length is not None:
        out = out[:, :length] if length <= out.shape[1] else np.pad(
            out, ((0, 0), (0, length - out.shape[1])))
    return out


class TestSynthesize:
    def test_round_trip_interior(self, rng):
        w = rng.standard_normal((3, 6000))
        out = synthesize(analyze(w), length=6000)
        region = slice(512, 6000 - 512)
        assert np.max(np.abs(out[:, region] - w[:, region])) < 1e-6

    def test_round_trip_is_exact_everywhere(self, rng):
        # end-only zero padding + squared-window OLA: exact on the whole signal
        w = rng.standard_normal((1, 5000))
        out = synthesize(analyze(w), length=5000)
        assert np.max(np.abs(out - w)) < 1e-9

    def test_zero_spectrogram_zero_waveform(self):
        out = synthesize(np.zeros((1, 4, 257), dtype=complex))
        assert np.all(out == 0)

    def test_single_frame_is_windowed_normalized_frame(self, rng):
        # closed form: one frame reduces to irfft(S) * w / w^2 = irfft(S) / w
        cfg = StftConfig()
        x = rng.standard_normal(cfg.window_length)
        spec = np.fft.rfft(x * cfg.window(), n=cfg.fft_size)[None, None, :]
        out = synthesize(spec, cfg)
        np.testing.assert_allclose(out[0, : cfg.window_length], x, atol=1e-9)

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(InvalidConfig):
            synthesize(np.zeros((1, 4, 100), dtype=complex))

    def test_dc_nyquist_imag_dropped(self, rng):
        spec = rng.standard_normal((1, 3, 257)) + 1j * rng.standard_normal((1, 3, 257))
        cleaned = spec.copy()
        cleaned[..., 0] = cleaned[..., 0].real
        cleaned[..., -1] = cleaned[..., -1].real
        np.testing.assert_array_equal(synthesize(spec), synthesize(cleaned))

    @settings(max_examples=60, deadline=None)
    @given(channels=st.integers(1, 4), frames=st.integers(0, 60), log_scale=st.floats(-8, 3),
           length=st.none() | st.integers(1, 40000), seed=st.integers(0, 2**31))
    def test_equals_frame_loop_bit_for_bit(self, channels, frames, log_scale, length, seed):
        cfg = StftConfig()
        r = np.random.default_rng(seed)
        shape = (channels, frames, cfg.bins)
        spec = 10.0 ** log_scale * (r.standard_normal(shape) + 1j * r.standard_normal(shape))
        got = synthesize(spec, cfg, length=length)
        want = overlap_add_loop(spec, cfg, length=length)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def whole_array_synthesize(spec, cfg, length=None):
    """Reference iSTFT: every channel inverse-transformed and overlap-added at once."""
    window = cfg.window()
    segments = np.fft.irfft(spec, n=cfg.fft_size, axis=-1) * window
    n_chan, frames, _ = spec.shape
    hop = cfg.hop
    blocks = np.zeros((n_chan, frames + 1, hop))
    blocks[:, :frames] += segments[..., :hop]
    blocks[:, 1:] += segments[..., hop:]
    norm = np.zeros((frames + 1, hop))
    norm[:frames] += (window * window)[:hop]
    norm[1:] += (window * window)[hop:]
    blocks /= np.maximum(norm, 1e-8)
    out = blocks.reshape(n_chan, -1)
    if length is not None:
        out = out[:, :length] if length <= out.shape[1] else np.pad(
            out, ((0, 0), (0, length - out.shape[1])))
    return out


@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 1000, 40000, 192000])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_synthesize_equals_the_whole_array_transform(rng, channels, n, dtype):
    cfg = StftConfig()
    spec = analyze(rng.standard_normal((channels, n)), cfg).astype(dtype)
    for length in (None, n, n + 300):
        got = synthesize(spec, cfg, length=length)
        expected = whole_array_synthesize(spec, cfg, length=length)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def wav_bytes(data) -> tuple[bytes, int]:
    """A 16 kHz WAV file's bytes as scipy writes `data`, and its header length."""
    buf = io.BytesIO()
    wavfile.write(buf, FS, data)
    return buf.getvalue(), len(buf.getvalue()) - data.nbytes


class TestWavIO:
    def test_float32_round_trip(self, tmp_path, rng):
        wave = rng.uniform(-0.9, 0.9, size=(4, 1000))
        path = tmp_path / "multi.wav"
        write_wav(path, wave)
        back = read_wav(path)
        assert wavfile.read(path)[0] == FS
        assert back.shape == (4, 1000)
        np.testing.assert_allclose(back, wave, atol=1e-7)

    @pytest.mark.parametrize("dtype, full_scale", [(np.int16, 32768), (np.int32, 2**31)])
    def test_pcm_input_read_to_unit_range(self, tmp_path, rng, dtype, full_scale):
        pcm = rng.integers(-full_scale, full_scale, size=(500, 2), dtype=np.int64).astype(dtype)
        path = tmp_path / "pcm.wav"
        wavfile.write(path, FS, pcm)
        back = read_wav(path)
        assert wavfile.read(path)[0] == FS
        np.testing.assert_array_equal(back, pcm.T / full_scale)

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_other_rates_rejected_naming_file_and_rate(self, tmp_path, rate):
        path = tmp_path / "other.wav"
        wavfile.write(path, rate, np.zeros(100, np.float32))
        with pytest.raises(InvalidInput, match=f"other.wav: sample rate {rate} Hz"):
            read_wav(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            read_wav(tmp_path / "nope.wav")

    @pytest.mark.parametrize("cut", [
        800,      # 50 whole frames of 4 float32 channels
        806,      # inside a frame, at a sample boundary
        801,      # inside a sample
    ])
    def test_cut_data_chunk_refused_naming_bytes(self, tmp_path, rng, cut):
        blob, _ = wav_bytes(rng.standard_normal((1600, 4)).astype(np.float32))
        path = tmp_path / "cut.wav"
        path.write_bytes(blob[:-cut])
        with pytest.raises(InvalidInput, match=f"cut.wav: cut short: a header gives 25600 "
                                               f"more bytes, the file holds {25600 - cut}"):
            read_wav(path)

    @pytest.mark.parametrize("field, tag, offset, value", [
        ("block_align", b"fmt ", 20, struct.pack("<H", 0)),
        ("channels", b"fmt ", 10, struct.pack("<H", 0)),
        ("data_tag", b"data", 0, b"dat4"),
        ("fmt_tag", b"fmt ", 0, b"fmx "),
    ], ids=["block_align", "channels", "data_tag", "fmt_tag"])
    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    def test_malformed_header_field_refused_naming_file(self, tmp_path, field, tag, offset,
                                                        value):
        # `offset` counts from the chunk's tag; a float file also holds a fact chunk
        blob, _ = wav_bytes(np.zeros((100, 4), np.float32))
        offset += blob.index(tag)
        blob = blob[:offset] + value + blob[offset + len(value):]
        path = tmp_path / f"{field}.wav"
        path.write_bytes(blob)
        with pytest.raises(InvalidInput, match=f"{field}.wav"):
            read_wav(path)

    def test_unknown_chunks_still_read(self, tmp_path, rng):
        # a valid file with a chunk scipy skips reads as the bare file does
        data = rng.integers(-2**15, 2**15, size=(300, 2)).astype(np.int16)
        blob, _ = wav_bytes(data)
        blob += b"LIST" + struct.pack("<I", 6) + b"INFOab"
        blob += b"bext" + struct.pack("<I", 3) + b"xyz\0"  # odd size, then its pad byte
        blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
        path = tmp_path / "chunks.wav"
        path.write_bytes(blob)
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            wave = read_wav(path)
        np.testing.assert_array_equal(wave, data.T / 32768.0)

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    def test_mutated_headers_give_invalid_input_or_a_finite_array(self, tmp_path):
        # a seeded fuzz of header bytes, biased to the values that break sizes
        # and counts, with one file in four also cut at a random length;
        # about 0.4 s
        rng = np.random.default_rng(0)
        bases = [wav_bytes(np.full((40, 4), 0.25, np.float32)),
                 wav_bytes(np.full((40, 2), 1000, np.int16))]
        special = [0x00, 0x01, 0x7F, 0x80, 0xFF]
        path = tmp_path / "mutated.wav"
        outcomes = {"refused": 0, "read": 0}
        for i in range(3000):
            base, header = bases[i % 2]
            blob = bytearray(base)
            for _ in range(rng.integers(1, 4)):
                pos = rng.integers(header)
                blob[pos] = special[rng.integers(5)] if rng.random() < 0.5 else rng.integers(256)
            if rng.random() < 0.25:
                blob = blob[:rng.integers(len(blob))]
            path.write_bytes(blob)
            try:
                wave = read_wav(path)
            except InvalidInput:
                outcomes["refused"] += 1
                continue
            outcomes["read"] += 1
            assert wave.dtype == np.float64 and wave.ndim == 2
            assert np.isfinite(wave).all()
        assert min(outcomes.values()) > 100, outcomes
