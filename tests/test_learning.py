"""End-to-end learning on the synthetic spectral-band corpus."""

import itertools

import numpy as np

from lidkit.encoder import EncoderConfig
from lidkit.features import FeatureConfig, FeatureMap, compute_mfsc
from lidkit.model import build_model
from lidkit.synthetic import make_corpus
from lidkit.training import TrainConfig, _epoch_batches, evaluate_top1, train

# desk-scale recipe: full-batch steps and a hotter peak lr than the
# production schedule, which this tiny model would need far more steps to match
SMOKE_TRAIN = TrainConfig(epochs=150, batch_size=30, seed=0, patience=1000,
                          lr_max=0.05, lr_min=1e-3)


def featurized_corpus(seed=0, n_classes=3, clips_per_class=10):
    corpus = make_corpus(n_classes=n_classes, clips_per_class=clips_per_class, seed=seed)
    fcfg = FeatureConfig()
    labels = sorted({lab for _, lab in corpus})
    idx = {lab: i for i, lab in enumerate(labels)}
    return [(compute_mfsc(clip, fcfg), idx[lab]) for clip, lab in corpus], labels


def test_synthetic_corpus_shapes():
    data, labels = featurized_corpus()
    assert len(data) == 30 and labels == ["band0", "band1", "band2"]
    assert all(fm.data.shape == (98, 40) for fm, _ in data)


def test_learns_three_class_corpus():
    data, labels = featurized_corpus()
    model = build_model(EncoderConfig.tiny(), labels, seed=0, d_att=16)
    train(model, data, data, SMOKE_TRAIN)
    assert evaluate_top1(model, data) >= 0.95


def test_learning_run_is_seed_deterministic():
    data, labels = featurized_corpus()
    accs = []
    for _ in range(2):
        model = build_model(EncoderConfig.tiny(), labels, seed=0, d_att=16)
        cfg = TrainConfig(epochs=5, batch_size=30, seed=0, patience=1000,
                          lr_max=0.05, lr_min=1e-3)
        result = train(model, data, data, cfg)
        accs.append([h["train_loss"] for h in result.history])
    assert accs[0] == accs[1]


def test_equal_length_clips_meet_new_clips_every_epoch():
    # a class-ordered list of equal-length clips: sorting ties by index put the same clips,
    # of one or two classes, in a batch every epoch
    data = [(FeatureMap(np.zeros((98, 40), np.float32)), i // 12) for i in range(48)]
    together = None
    for epoch in range(4):
        batches = _epoch_batches(data, 8, np.random.default_rng([0, 1, epoch]))
        assert sorted(i for b in batches for i in b) == list(range(48))
        pairs = {pair for b in batches for pair in itertools.combinations(sorted(b), 2)}
        together = pairs if together is None else together & pairs
    assert not together, f"{len(together)} pairs of clips share a batch in every epoch"


def test_paper_kernels_learn_four_bands_at_width_64():
    # the bench encoder's layout (one single-sub-block block per paper kernel, dropout 0.1) at
    # width 64; with batches fixed across epochs the held-out mean was 0.40, with batches
    # drawn afresh 0.875 (0.958, 0.750, 0.917)
    train_data, labels = featurized_corpus(seed=0, n_classes=4, clips_per_class=12)
    held_out, _ = featurized_corpus(seed=1, n_classes=4, clips_per_class=6)
    cfg = EncoderConfig(channels=(64,) * 5, kernel_sizes=(33, 39, 51, 63, 75), sub_blocks=1,
                        out_channels=64, dropout_rate=0.1)
    accs = []
    for seed in (0, 1, 2):
        model = build_model(cfg, labels, seed=seed, d_att=32)
        train(model, train_data, held_out, TrainConfig(epochs=8, batch_size=8, lr_max=0.05))
        accs.append(evaluate_top1(model, held_out))
    assert np.mean(accs) >= 0.65, accs
