import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lidkit.model
from lidkit import diagnostics
from lidkit.model import PREDICT_FRAME_BUDGET

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def wav_bytes(samples, sample_rate=16000, n_channels=1, audio_format=1, bits=16):
    """Hand-rolled WAV writer, independent of the decoder under test."""
    samples = np.asarray(samples)
    if samples.ndim == 1:
        samples = samples[:, None]
    assert samples.shape[1] == n_channels
    body = samples.astype("<i2").tobytes()
    block_align = n_channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(body),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        n_channels,
        sample_rate,
        sample_rate * block_align,
        block_align,
        bits,
        b"data",
        len(body),
    )
    return header + body


def peak_bytes(fn) -> int:
    """The tracemalloc peak of one call of fn(), in bytes: what it allocates beyond what already exists."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def forward_batches(monkeypatch):
    """The valid lengths of every batch that ``predict`` hands ``model_forward``, one list per call."""
    batches = []
    real = lidkit.model.model_forward

    def spy(model, x, valid_lens, *args, **kwargs):
        assert x.shape[2] == max(valid_lens)  # padded to the batch's longest clip, no further
        batches.append([int(v) for v in valid_lens])
        return real(model, x, valid_lens, *args, **kwargs)

    monkeypatch.setattr(lidkit.model, "model_forward", spy)
    return batches


def check_budget_batches(batches: list[list[int]], lengths: list[int]) -> None:
    """The batches hold every length once, in length order, each within the frame budget, and each as
    full as the budget allows: one forward per budget batch, not one per utterance."""
    flat = [t for batch in batches for t in batch]
    assert flat == sorted(lengths), (batches, lengths)
    for batch in batches:
        assert len(batch) == 1 or len(batch) * max(batch) <= PREDICT_FRAME_BUDGET, batch
    for batch, following in zip(batches, batches[1:]):
        assert (len(batch) + 1) * following[0] > PREDICT_FRAME_BUDGET, (batch, following)


@pytest.fixture
def taxonomy_23_path():
    return DATA_DIR / "taxonomy_23_4_2.tsv"


@pytest.fixture
def taxonomy_voxforge_path():
    return DATA_DIR / "taxonomy_voxforge.tsv"


@pytest.fixture
def corrupt_backward(monkeypatch):
    """model_backward as the gradient audit sees it, with 1 added to the head.b gradient."""
    real = diagnostics.model_backward

    def corrupted(model, cache):
        grads = real(model, cache)
        grads["head.b"] = grads["head.b"] + 1.0
        return grads

    monkeypatch.setattr(diagnostics, "model_backward", corrupted)
