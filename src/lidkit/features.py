"""Log mel-filterbank (MFSC) feature extraction."""

from __future__ import annotations

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
        if self.fft_size & (self.fft_size - 1):
            raise FeatureError("fft_size must be a power of two")
        if self.fft_size < int(round(self.frame_length * self.sample_rate)):
            raise FeatureError("fft_size smaller than the analysis window")
        if not (0 < self.f_min < self.f_max <= self.sample_rate / 2):
            raise FeatureError("need 0 < f_min < f_max <= Nyquist")
        if self.n_mels < 1:
            raise FeatureError("n_mels must be >= 1")
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
    frame_hop: float
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


def compute_mfsc(clip: AudioClip, config: FeatureConfig) -> FeatureMap:
    """Pre-emphasis -> framing -> Hamming window -> power spectrum -> mel -> log.

    Deterministic and pure: identical input bytes give a bit-identical map.
    """
    if clip.sample_rate != config.sample_rate:
        raise FeatureError(
            f"sample rate mismatch: clip {clip.sample_rate} Hz vs config {config.sample_rate} Hz"
        )
    if len(clip.samples) == 0:
        raise FeatureError("empty clip")

    x = np.asarray(clip.samples, dtype=np.float64)
    if config.preemphasis > 0:
        x = np.concatenate([x[:1], x[1:] - config.preemphasis * x[:-1]])

    win, hop = config.win_samples, config.hop_samples
    n_frames = frame_count(len(x), config)
    if len(x) < win:
        x = np.pad(x, (0, win - len(x)))

    window = np.hamming(win)
    frames = np.stack([x[t * hop : t * hop + win] for t in range(n_frames)])
    spectrum = np.fft.rfft(frames * window, n=config.fft_size, axis=1)
    power = np.abs(spectrum) ** 2

    fb = mel_filterbank(config).astype(np.float64)
    feats = np.log(power @ fb.T + config.log_floor)
    return FeatureMap(data=feats.astype(np.float32), frame_hop=config.frame_hop, id=clip.id)
