"""SpecAugment-style frequency and time masking on feature maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidkit.features import FeatureMap


@dataclass(frozen=True)
class AugmentConfig:
    freq_mask_width: int = 15
    n_freq_masks: int = 2
    time_mask_width: int = 25
    n_time_masks: int = 2
    mask_value: float = 0.0
    enabled: bool = True

    def __post_init__(self):
        if self.freq_mask_width < 0 or self.time_mask_width < 0:
            raise ValueError("mask widths must be nonnegative")
        if self.n_freq_masks < 0 or self.n_time_masks < 0:
            raise ValueError("mask counts must be nonnegative")


def apply_specaugment(fm: FeatureMap, cfg: AugmentConfig, rng: np.random.Generator) -> FeatureMap:
    """Mask random frequency bands and time spans; input is never mutated.

    Each mask draws a width uniformly from {0..max_width} and a start
    uniformly over the positions where the mask fits.  Deterministic given
    the generator state.
    """
    data = fm.data.copy()
    t, f = data.shape
    if cfg.enabled:
        for _ in range(cfg.n_freq_masks):
            width = int(rng.integers(0, min(cfg.freq_mask_width, f) + 1))
            start = int(rng.integers(0, f - width + 1))
            data[:, start : start + width] = cfg.mask_value
        for _ in range(cfg.n_time_masks):
            width = int(rng.integers(0, min(cfg.time_mask_width, t) + 1))
            start = int(rng.integers(0, t - width + 1))
            data[start : start + width, :] = cfg.mask_value
    return FeatureMap(data=data, id=fm.id)
