"""Log mel-filterbank (MFSC) feature extraction."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lidkit.audio import AudioClip


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    frame_length: float = 0.025
    frame_hop: float = 0.010
    fft_size: int = 512
    n_mels: int = 40
    f_min: float = 20.0
    f_max: float = 7600.0
    preemphasis: float = 0.97
    log_floor: float = 1e-10

    def __post_init__(self):
        if not 0 < self.sample_rate < 2**32:  # decode_wav reads the rate as a uint32
            raise FeatureError("sample_rate must be in [1, 2**32)")
        for name in ("frame_length", "frame_hop"):
            seconds = getattr(self, name)
            span = seconds * self.sample_rate
            if not (math.isfinite(span) and round(span) >= 1):
                raise FeatureError(f"{name} must be at least one sample long and a finite number of samples, "
                                   f"got {seconds!r}")
        if self.fft_size & (self.fft_size - 1):
            raise FeatureError("fft_size must be a power of two")
        if self.fft_size < self.win_samples:
            raise FeatureError("fft_size smaller than the analysis window")
        if not (0 < self.f_min < self.f_max <= self.sample_rate / 2):
            raise FeatureError("need 0 < f_min < f_max <= Nyquist")
        if not 1 <= self.n_mels <= self.fft_size // 2 + 1:  # each filter needs a frequency bin
            raise FeatureError(f"n_mels must be in [1, fft_size // 2 + 1 = {self.fft_size // 2 + 1}]")
        if not (0.0 <= self.preemphasis < 1.0):
            raise FeatureError("preemphasis must be in [0, 1)")
        if self.log_floor <= 0:
            raise FeatureError("log_floor must be positive")

    @property
    def win_samples(self) -> int:
        return int(round(self.frame_length * self.sample_rate))

    @property
    def hop_samples(self) -> int:
        return int(round(self.frame_hop * self.sample_rate))


@dataclass(frozen=True)
class FeatureMap:
    """T x F matrix of log mel energies for one utterance."""

    data: np.ndarray
    id: str = ""

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular mel filters: n_mels x (fft_size/2 + 1), HTK mel spacing."""
    n_bins = config.fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * config.sample_rate / config.fft_size
    corners = mel_to_hz(np.linspace(hz_to_mel(config.f_min), hz_to_mel(config.f_max), config.n_mels + 2))

    fb = np.zeros((config.n_mels, n_bins), dtype=np.float64)
    for m in range(config.n_mels):
        lo, center, hi = corners[m], corners[m + 1], corners[m + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        if not np.any(fb[m] > 0):
            raise FeatureError(
                f"mel filter {m} is empty: n_mels={config.n_mels} too large for fft_size={config.fft_size}"
            )
    return fb.astype(np.float32)


def filter_centers_hz(config: FeatureConfig) -> np.ndarray:
    corners = mel_to_hz(np.linspace(hz_to_mel(config.f_min), hz_to_mel(config.f_max), config.n_mels + 2))
    return corners[1:-1]


def frame_count(n_samples: int, config: FeatureConfig) -> int:
    win, hop = config.win_samples, config.hop_samples
    if n_samples < win:
        return 1
    return 1 + (n_samples - win) // hop


@functools.lru_cache(maxsize=8)
def _analysis_tables(config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Hamming window and the float64 mel filterbank of ``config``, built once and read-only."""
    window = np.hamming(config.win_samples)
    fb = mel_filterbank(config).astype(np.float64)
    window.flags.writeable = fb.flags.writeable = False
    return window, fb


_CHUNK_FRAMES = 256


def _preemphasize(x: np.ndarray, p: float) -> np.ndarray:
    """y[0] = x[0], y[t] = x[t] - p * x[t-1], in one new buffer; x is not written.

    Each step rounds as ``concatenate([x[:1], x[1:] - p * x[:-1]])`` does,
    without its two temporaries.  x may be the caller's own float64 samples.
    """
    y = np.empty_like(x)
    y[0] = x[0]
    np.multiply(x[:-1], p, out=y[1:])
    np.subtract(x[1:], y[1:], out=y[1:])
    return y


def compute_mfsc(clip: AudioClip, config: FeatureConfig) -> FeatureMap:
    """Pre-emphasis -> framing -> Hamming window -> power spectrum -> mel -> log.

    Deterministic and pure: identical input bytes give a bit-identical map.
    The float64 frames, spectrum and power exist for ``_CHUNK_FRAMES``
    frames at a time, each chunk's log mel energies written into one
    float32 output, so a long clip's transient is a chunk's, not the
    clip's.  Chunks give the whole-clip result bit for bit: each frame's
    ``rfft`` is independent of the others, and the mel GEMM's rows do
    not depend on how many rows it multiplies, which BLAS does not
    promise, so a test pins it across lengths that end below, on and
    inside a chunk boundary.
    """
    if clip.sample_rate != config.sample_rate:
        raise FeatureError(
            f"sample rate mismatch: clip {clip.sample_rate} Hz vs config {config.sample_rate} Hz"
        )
    if len(clip.samples) == 0:
        raise FeatureError("empty clip")

    x = np.asarray(clip.samples, dtype=np.float64)
    if config.preemphasis > 0:
        x = _preemphasize(x, config.preemphasis)

    win, hop = config.win_samples, config.hop_samples
    n_frames = frame_count(len(x), config)
    if len(x) < win:
        x = np.pad(x, (0, win - len(x)))

    window, fb = _analysis_tables(config)
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop][:n_frames]
    feats = np.empty((n_frames, config.n_mels), dtype=np.float32)
    for start in range(0, n_frames, _CHUNK_FRAMES):
        chunk = slice(start, start + _CHUNK_FRAMES)
        power = np.abs(np.fft.rfft(frames[chunk] * window, n=config.fft_size, axis=1)) ** 2
        feats[chunk] = np.log(power @ fb.T + config.log_floor)
    return FeatureMap(data=feats, id=clip.id)
