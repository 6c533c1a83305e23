"""Synthetic corpora with class-distinct spectral band patterns.

Used by the learning smoke test and the demos: each class is a mixture of
sines in a band of its own plus light broadband noise, so a working
pipeline separates the classes quickly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lidkit.audio import AudioClip, encode_wav

CLASS_BANDS_HZ = [(300.0, 600.0), (1200.0, 1800.0), (3000.0, 4200.0), (5000.0, 6500.0)]


def make_clip(class_idx: int, rng: np.random.Generator, sample_rate: int = 16000, duration: float = 1.0,
              clip_id: str = "") -> AudioClip:
    lo, hi = CLASS_BANDS_HZ[class_idx % len(CLASS_BANDS_HZ)]
    n = int(sample_rate * duration)
    t = np.arange(n) / sample_rate
    signal = np.zeros(n)
    for _ in range(3):
        freq = rng.uniform(lo, hi)
        phase = rng.uniform(0, 2 * np.pi)
        signal += np.sin(2 * np.pi * freq * t + phase)
    signal /= 3.0
    signal += 0.02 * rng.standard_normal(n)
    signal = np.clip(signal, -1.0, 1.0)
    return AudioClip(samples=signal.astype(np.float32), sample_rate=sample_rate, id=clip_id)


def make_corpus(n_classes: int = 3, clips_per_class: int = 10, seed: int = 0) -> list[tuple[AudioClip, str]]:
    """Returns 1 s, 16 kHz (clip, label) pairs with labels ``band0``..``band{n-1}``."""
    rng = np.random.default_rng(seed)
    corpus = []
    for c in range(n_classes):
        for i in range(clips_per_class):
            clip = make_clip(c, rng, clip_id=f"band{c}_{i:03d}")
            corpus.append((clip, f"band{c}"))
    return corpus


def write_corpus_wavs(corpus, out_dir: str | Path) -> list[dict]:
    """Write WAV files plus manifest records for CLI-level tests and demos."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for clip, label in corpus:
        path = out / f"{clip.id}.wav"
        path.write_bytes(encode_wav(clip.samples, clip.sample_rate))
        records.append({"audio_filepath": str(path), "label": label})
    return records
