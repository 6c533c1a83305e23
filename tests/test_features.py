import numpy as np
import pytest

from lidkit.audio import AudioClip
from lidkit.features import (
    FeatureConfig,
    FeatureError,
    compute_mfsc,
    filter_centers_hz,
    frame_count,
    hz_to_mel,
    mel_filterbank,
)


def naive_dft(x):
    """O(N^2) DFT, written directly from the definition."""
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


def make_clip(samples, sr=16000, clip_id="t"):
    return AudioClip(samples=np.asarray(samples, dtype=np.float32), sample_rate=sr, id=clip_id)


class TestMelScale:
    def test_mel_of_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_mel_of_700(self):
        # 2595 * log10(2)
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), abs=1e-9)
        assert hz_to_mel(700.0) == pytest.approx(781.1728, abs=1e-3)

    def test_filterbank_rows_nonempty(self):
        fb = mel_filterbank(FeatureConfig())
        assert fb.shape == (40, 257)
        assert np.all(fb.sum(axis=1) > 0)

    def test_filter_centers_strictly_increasing(self):
        centers = filter_centers_hz(FeatureConfig())
        assert np.all(np.diff(centers) > 0)

    def test_too_many_mels_reported(self):
        cfg = FeatureConfig(frame_length=0.004, fft_size=64, n_mels=40)
        with pytest.raises(FeatureError, match="empty"):
            mel_filterbank(cfg)


class TestDftProperties:
    # the pipeline leans on the library FFT; verify it against a direct DFT
    @pytest.mark.parametrize("n", [4, 16, 33, 64])
    def test_fft_matches_naive_dft(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, n)
        fast = np.fft.fft(x)
        slow = naive_dft(x)
        assert np.max(np.abs(fast - slow)) <= 1e-4

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_parseval(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.uniform(-1, 1, n)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(np.fft.fft(x)) ** 2) / n
        assert abs(time_energy - freq_energy) / time_energy <= 1e-4


class TestComputeMfsc:
    def test_config_validation(self):
        with pytest.raises(FeatureError):
            FeatureConfig(fft_size=100)  # not a power of two
        with pytest.raises(FeatureError):
            FeatureConfig(f_min=0.0)
        with pytest.raises(FeatureError):
            FeatureConfig(f_max=9000.0)  # above Nyquist
        with pytest.raises(FeatureError):
            FeatureConfig(fft_size=256)  # smaller than 400-sample window

    def test_sample_rate_mismatch_is_error(self):
        clip = make_clip(np.zeros(8000), sr=8000)
        with pytest.raises(FeatureError, match="mismatch"):
            compute_mfsc(clip, FeatureConfig())

    def test_frame_count_one_second(self):
        # 16000 samples, 400-sample window, 160-sample hop
        assert frame_count(16000, FeatureConfig()) == 98
        fm = compute_mfsc(make_clip(np.zeros(16000)), FeatureConfig())
        assert fm.data.shape == (98, 40)

    def test_short_clip_single_padded_frame(self):
        fm = compute_mfsc(make_clip(np.zeros(100)), FeatureConfig())
        assert fm.data.shape == (1, 40)

    def test_zero_signal_gives_log_floor(self):
        cfg = FeatureConfig()
        fm = compute_mfsc(make_clip(np.zeros(16000)), cfg)
        assert np.allclose(fm.data, np.float32(np.log(cfg.log_floor)))

    def test_pure_sine_energy_in_covering_filters(self):
        cfg = FeatureConfig()
        # sine aligned with FFT bin 32: f = 32 * 16000 / 512 = 1000 Hz
        f_k = 32 * cfg.sample_rate / cfg.fft_size
        t = np.arange(16000) / cfg.sample_rate
        fm = compute_mfsc(make_clip(0.5 * np.sin(2 * np.pi * f_k * t)), cfg)
        argmaxes = fm.data.argmax(axis=1)
        assert len(set(argmaxes.tolist())) == 1  # stable across frames
        centers = filter_centers_hz(cfg)
        assert abs(centers[argmaxes[0]] - f_k) < 200.0

    def test_matches_naive_dft_pipeline(self):
        # recompute one frame with the O(N^2) DFT oracle end to end
        cfg = FeatureConfig()
        rng = np.random.default_rng(7)
        samples = rng.uniform(-0.5, 0.5, 800).astype(np.float32)
        fm = compute_mfsc(make_clip(samples), cfg)

        x = samples.astype(np.float64)
        x = np.concatenate([x[:1], x[1:] - cfg.preemphasis * x[:-1]])
        frame = x[:400] * np.hamming(400)
        padded = np.concatenate([frame, np.zeros(cfg.fft_size - 400)])
        power = np.abs(naive_dft(padded)[: cfg.fft_size // 2 + 1]) ** 2
        expected = np.log(mel_filterbank(cfg).astype(np.float64) @ power + cfg.log_floor)
        assert np.max(np.abs(fm.data[0] - expected)) <= 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-1, 1, 4000).astype(np.float32)
        a = compute_mfsc(make_clip(samples), FeatureConfig())
        b = compute_mfsc(make_clip(samples.copy()), FeatureConfig())
        assert np.array_equal(a.data, b.data)

    def test_all_entries_finite(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(-1, 1, 5000).astype(np.float32)
        fm = compute_mfsc(make_clip(samples), FeatureConfig())
        assert np.all(np.isfinite(fm.data))
