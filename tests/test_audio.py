import struct

import numpy as np
import pytest

from lidkit.audio import (
    EmptyPayloadError,
    MalformedWavError,
    UnsupportedCodecError,
    decode_wav,
    encode_wav,
)
from tests.conftest import peak_bytes, wav_bytes


def test_zero_sample_maps_to_zero():
    clip = decode_wav(wav_bytes([0, 0, 0, 0]))
    assert np.all(clip.samples == 0.0)


def test_full_scale_negative_maps_to_minus_one():
    clip = decode_wav(wav_bytes([-32768]))
    assert clip.samples[0] == -1.0


def test_positive_scaling():
    clip = decode_wav(wav_bytes([16384]))
    assert clip.samples[0] == pytest.approx(0.5)


def test_stereo_averaged_to_mono():
    clip = decode_wav(wav_bytes(np.array([[1000, -1000]]), n_channels=2))
    assert clip.samples[0] == 0.0


def test_sample_rate_from_header():
    clip = decode_wav(wav_bytes([0, 0], sample_rate=8000))
    assert clip.sample_rate == 8000


def test_malformed_header_rejected():
    with pytest.raises(MalformedWavError):
        decode_wav(b"OggS" + b"\x00" * 40)
    with pytest.raises(MalformedWavError):
        decode_wav(b"RIFF\x00\x00\x00\x00WAVE")  # no chunks at all


def test_non_pcm_rejected():
    with pytest.raises(UnsupportedCodecError):
        decode_wav(wav_bytes([0, 0], audio_format=3))


def test_zero_length_payload_rejected():
    data = wav_bytes([], n_channels=1)
    with pytest.raises(EmptyPayloadError):
        decode_wav(data)


def test_long_clip_truncated_to_max_duration():
    sr = 1000
    clip = decode_wav(wav_bytes([100] * (21 * sr), sample_rate=sr))
    assert len(clip.samples) == 20 * sr
    assert clip.duration == pytest.approx(20.0)


@pytest.mark.parametrize("n_channels", [1, 2])
def test_truncated_samples_equal_the_whole_payload_formula(n_channels):
    # the kept samples are the channel mean of the first 20 s, scaled as the whole payload would be
    sr = 1000
    raw = np.random.default_rng(n_channels).integers(-32768, 32768, size=(21 * sr + 7, n_channels))
    clip = decode_wav(wav_bytes(raw, sample_rate=sr, n_channels=n_channels))
    want = (raw.astype("<i2").mean(axis=1) / 32768.0)[: 20 * sr].astype(np.float32)
    assert np.array_equal(clip.samples, want)


def test_long_file_converts_only_the_kept_samples():
    # ten minutes of 16 kHz mono: the whole payload in float64 peaked at 5.1x the file's bytes
    raw = np.random.default_rng(0).integers(-32768, 32768, size=600 * 16000)
    data = wav_bytes(raw)
    assert len(decode_wav(data).samples) == 20 * 16000
    assert peak_bytes(lambda: decode_wav(data)) < 2 * len(data)


def test_samples_bounded_and_finite():
    rng = np.random.default_rng(0)
    raw = rng.integers(-32768, 32768, size=500)
    clip = decode_wav(wav_bytes(raw))
    assert np.all(np.isfinite(clip.samples))
    assert np.all(np.abs(clip.samples) <= 1.0)
    assert clip.samples.dtype == np.float32


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(1)
    samples = rng.uniform(-0.9, 0.9, size=200).astype(np.float32)
    clip = decode_wav(encode_wav(samples, 16000))
    assert np.max(np.abs(clip.samples - samples)) < 1.0 / 32768


# the base GUID of the KSDATAFORMAT_SUBTYPE_* sub-formats; the first 4 bytes carry the format tag
SUBTYPE_TAIL = bytes.fromhex("00001000800000aa00389b71")


def extensible_wav(samples, sub_format=1, n_channels=1, fmt_len=40):
    """A WAVE_FORMAT_EXTENSIBLE file: 16-bit samples, the fmt chunk cut to fmt_len bytes."""
    body = np.asarray(samples).astype("<i2").tobytes()
    guid = struct.pack("<I", sub_format) + SUBTYPE_TAIL
    fmt = struct.pack("<HHIIHHHHI16s", 0xFFFE, n_channels, 16000, 16000 * 2 * n_channels, 2 * n_channels, 16,
                      22, 16, 0x4 if n_channels == 1 else 0x3, guid)[:fmt_len]
    fmt += b"\x00" * (len(fmt) & 1)  # the word-alignment pad, not counted in the chunk length
    chunks = b"fmt " + struct.pack("<I", fmt_len) + fmt + b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_extensible_pcm_decodes_like_plain_pcm():
    raw = np.array([[0, 1000], [-32768, 32767], [16384, -16384]])
    for n_channels, samples in ((1, raw[:, 0]), (2, raw)):
        clip = decode_wav(extensible_wav(samples, n_channels=n_channels))
        plain = decode_wav(wav_bytes(samples, n_channels=n_channels))
        assert clip.sample_rate == plain.sample_rate
        assert clip.samples.tobytes() == plain.samples.tobytes()


@pytest.mark.parametrize("sub_format", [3, 0x10001, 0xFFFE])
def test_extensible_non_pcm_rejected(sub_format):
    with pytest.raises(UnsupportedCodecError):
        decode_wav(extensible_wav([0, 0], sub_format=sub_format))


@pytest.mark.parametrize("fmt_len", [16, 18, 39])
def test_extensible_short_fmt_chunk_rejected(fmt_len):
    with pytest.raises(MalformedWavError):
        decode_wav(extensible_wav([0, 0], fmt_len=fmt_len))
