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
from lidkit.features import _analysis_tables, _preemphasize
from tests.conftest import peak_bytes


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
        # 33 filters fit the 33 bins of a 64-point FFT, but the lowest triangle spans no bin
        cfg = FeatureConfig(frame_length=0.004, fft_size=64, n_mels=33)
        with pytest.raises(FeatureError, match="empty"):
            mel_filterbank(cfg)

    @pytest.mark.parametrize("n_mels", [34, 40, 10**400])
    def test_more_mels_than_bins_refused_by_the_config(self, n_mels):
        with pytest.raises(FeatureError, match="n_mels"):
            FeatureConfig(frame_length=0.004, fft_size=64, n_mels=n_mels)


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


class TestPreemphasis:
    @pytest.mark.parametrize("n", [1, 2, 400, 16001])
    def test_bit_identical_to_the_concatenate_formula(self, n):
        x = np.random.default_rng(n).uniform(-1, 1, n).astype(np.float32).astype(np.float64)
        p = FeatureConfig().preemphasis
        want = np.concatenate([x[:1], x[1:] - p * x[:-1]])
        got = _preemphasize(x, p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_float64_samples_left_unmodified(self):
        # np.asarray hands compute_mfsc the caller's own float64 array
        samples = np.random.default_rng(6).uniform(-1, 1, 16001)
        before = samples.tobytes()
        compute_mfsc(AudioClip(samples=samples, sample_rate=16000, id="t"), FeatureConfig())
        assert samples.tobytes() == before


class TestCachedFrontEnd:
    @staticmethod
    def per_clip_formula(samples, cfg):
        """compute_mfsc as it was written when it rebuilt its window and filterbank for every clip."""
        x = np.asarray(samples, dtype=np.float64)
        x = np.concatenate([x[:1], x[1:] - cfg.preemphasis * x[:-1]])
        win, hop = cfg.win_samples, cfg.hop_samples
        n_frames = frame_count(len(x), cfg)
        if len(x) < win:
            x = np.pad(x, (0, win - len(x)))
        frames = np.stack([x[t * hop : t * hop + win] for t in range(n_frames)])
        power = np.abs(np.fft.rfft(frames * np.hamming(win), n=cfg.fft_size, axis=1)) ** 2
        fb = mel_filterbank(cfg).astype(np.float64)
        return np.log(power @ fb.T + cfg.log_floor).astype(np.float32)

    # shorter than one window, exactly one window, 1 s, a length off the 160-sample hop grid, and
    # 255, 256, 257, 512 and 1998 frames: ending below, on and inside a chunk boundary, and 20 s
    @pytest.mark.parametrize("n", [100, 400, 16000, 16037, 41040, 41200, 41360, 82160, 320000])
    def test_bit_identical_to_the_per_clip_formula(self, n):
        cfg = FeatureConfig()
        samples = np.random.default_rng(n).uniform(-1, 1, n).astype(np.float32)
        for _ in range(2):  # the second clip reads the cached tables
            assert np.array_equal(compute_mfsc(make_clip(samples), cfg).data, self.per_clip_formula(samples, cfg))

    def test_long_clip_peak_memory(self):
        # a 20 s clip's float64 frames, complex128 spectrum and power, built whole, peak at ~17.2 MB
        samples = np.random.default_rng(20).uniform(-1, 1, 320000).astype(np.float32)
        clip, cfg = make_clip(samples), FeatureConfig()
        compute_mfsc(clip, cfg)  # builds the cached tables outside the traced call
        peak = peak_bytes(lambda: compute_mfsc(clip, cfg))
        assert peak < 10 * 2**20, peak

    def test_cached_tables_are_read_only(self):
        window, fb = _analysis_tables(FeatureConfig())
        for table in (window, fb):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
        assert mel_filterbank(FeatureConfig()).flags.writeable
