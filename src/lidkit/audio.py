"""RIFF/WAVE decoding to normalized float samples."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAX_DURATION_S = 20.0  # longer clips are truncated, not rejected
WAVE_FORMAT_PCM = 1
WAVE_FORMAT_EXTENSIBLE = 0xFFFE


class WavError(Exception):
    """Base class for WAV decoding failures."""


class MalformedWavError(WavError):
    """Header or chunk structure is not a valid RIFF/WAVE container."""


class UnsupportedCodecError(WavError):
    """The container is valid but not 16-bit integer PCM."""


class EmptyPayloadError(WavError):
    """The data chunk holds zero samples."""


@dataclass(frozen=True)
class AudioClip:
    """Mono audio, float32 samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    id: str = ""

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def decode_wav(data: bytes, clip_id: str = "") -> AudioClip:
    """Decode a 16-bit PCM RIFF/WAVE byte string.

    PCM may be tagged plainly (1) or as WAVE_FORMAT_EXTENSIBLE with the PCM
    sub-format.  Multichannel audio is averaged to mono; samples are scaled by 1/32768.
    Clips longer than ``MAX_DURATION_S`` seconds are truncated.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("not a RIFF/WAVE container")

    fmt = None
    payload = None
    pos = 12
    view = memoryview(data)  # chunk bodies are read in place, not copied
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedWavError("fmt chunk truncated")
            fmt = list(struct.unpack_from("<HHIIHH", body, 0))
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                if len(body) < 40:
                    raise MalformedWavError("extensible fmt chunk truncated")
                fmt[0] = struct.unpack_from("<I", body, 24)[0]  # the sub-format GUID starts with the format tag
        elif chunk_id == b"data":
            if len(body) < chunk_len:
                raise MalformedWavError("data chunk truncated")
            payload = body
        pos += 8 + chunk_len + (chunk_len & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedWavError("missing fmt chunk")
    audio_format, n_channels, sample_rate, _, _, bits_per_sample = fmt
    if audio_format != WAVE_FORMAT_PCM or bits_per_sample != 16:
        raise UnsupportedCodecError(
            f"only 16-bit PCM supported (format={audio_format}, bits={bits_per_sample})"
        )
    if n_channels < 1 or sample_rate < 1:
        raise MalformedWavError("invalid channel count or sample rate")
    if payload is None:
        raise MalformedWavError("missing data chunk")
    if len(payload) < 2 * n_channels:
        raise EmptyPayloadError("data chunk holds no samples")

    # frames past MAX_DURATION_S are cut before any of them is converted
    n_frames = min(len(payload) // (2 * n_channels), int(MAX_DURATION_S * sample_rate))
    raw = np.frombuffer(payload, dtype="<i2", count=n_frames * n_channels)
    samples = raw.reshape(n_frames, n_channels).mean(axis=1) / 32768.0
    return AudioClip(samples=samples.astype(np.float32), sample_rate=sample_rate, id=clip_id)


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """Encode mono float samples in [-1, 1] as 16-bit PCM WAV (test/demo helper)."""
    pcm = np.clip(np.asarray(samples, dtype=np.float64) * 32768.0, -32768, 32767)
    body = pcm.astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(body),
        b"WAVE",
        b"fmt ",
        16,
        1,
        1,
        sample_rate,
        sample_rate * 2,
        2,
        16,
        b"data",
        len(body),
    )
    return header + body
