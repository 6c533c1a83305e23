import numpy as np
import pytest
from scipy import stats

from lidkit.augment import AugmentConfig, apply_specaugment
from lidkit.features import FeatureMap


def make_fm(t=50, f=40, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMap(data=rng.standard_normal((t, f)).astype(np.float32), id="u")


def test_disabled_is_bit_identical():
    fm = make_fm()
    out = apply_specaugment(fm, AugmentConfig(enabled=False), np.random.default_rng(0))
    assert np.array_equal(out.data, fm.data)


def test_zero_widths_are_bit_identical():
    fm = make_fm()
    cfg = AugmentConfig(freq_mask_width=0, time_mask_width=0)
    out = apply_specaugment(fm, cfg, np.random.default_rng(0))
    assert np.array_equal(out.data, fm.data)


def test_input_not_mutated():
    fm = make_fm()
    before = fm.data.copy()
    apply_specaugment(fm, AugmentConfig(), np.random.default_rng(1))
    assert np.array_equal(fm.data, before)


def test_seeded_determinism():
    fm = make_fm()
    cfg = AugmentConfig(n_freq_masks=1, n_time_masks=0)
    a = apply_specaugment(fm, cfg, np.random.default_rng(42))
    b = apply_specaugment(fm, cfg, np.random.default_rng(42))
    assert np.array_equal(a.data, b.data)


def test_unmasked_entries_bit_identical():
    fm = make_fm(seed=3)
    cfg = AugmentConfig(mask_value=np.float32(1234.5))
    out = apply_specaugment(fm, cfg, np.random.default_rng(7))
    changed = out.data != fm.data
    assert np.all(out.data[changed] == np.float32(1234.5))
    assert np.array_equal(out.data[~changed], fm.data[~changed])


def test_masked_area_bounds():
    fm = make_fm(t=60, f=40, seed=4)
    cfg = AugmentConfig(freq_mask_width=10, n_freq_masks=2, time_mask_width=15, n_time_masks=2,
                        mask_value=np.float32(-777.0))
    for seed in range(200):
        out = apply_specaugment(fm, cfg, np.random.default_rng(seed))
        masked = out.data == np.float32(-777.0)
        # time masks cover at most 30 of 60 frames, so a fully-masked
        # column can only come from a frequency mask (and vice versa)
        full_cols = np.sum(masked.all(axis=0))  # fully-masked frequency bins
        full_rows = np.sum(masked.all(axis=1))  # fully-masked frames
        assert full_cols <= cfg.n_freq_masks * cfg.freq_mask_width
        assert full_rows <= cfg.n_time_masks * cfg.time_mask_width


def test_negative_config_rejected():
    with pytest.raises(ValueError):
        AugmentConfig(freq_mask_width=-1)
    with pytest.raises(ValueError):
        AugmentConfig(n_time_masks=-2)


def test_mask_start_uniformity_chi_square():
    # conditional on a drawn width, the start position is uniform
    n_mels = 40
    fm = make_fm(t=5, f=n_mels, seed=5)
    cfg = AugmentConfig(freq_mask_width=8, n_freq_masks=1, n_time_masks=0,
                        mask_value=np.float32(-999.0))
    rng = np.random.default_rng(12345)
    starts_by_width: dict[int, list[int]] = {}
    for _ in range(10000):
        out = apply_specaugment(fm, cfg, rng)
        cols = np.nonzero((out.data == np.float32(-999.0)).all(axis=0))[0]
        if len(cols) == 0:
            continue
        starts_by_width.setdefault(len(cols), []).append(int(cols[0]))
    width, starts = max(starts_by_width.items(), key=lambda kv: len(kv[1]))
    n_positions = n_mels - width + 1
    observed = np.bincount(starts, minlength=n_positions)
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.01
