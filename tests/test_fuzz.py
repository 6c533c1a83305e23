"""Property tests of the three input parsers and of the depthwise conv.

``decode_wav`` may raise only ``WavError``, ``load_checkpoint`` only
``CheckpointError`` and ``load_manifest`` only ``CliError``; anything else
(KeyError, TypeError, OverflowError, ...) fails the test.  The depthwise
conv must match its triple-loop oracle at every shape, kernels wider than
the clip included, in any split of the bank into channel blocks.
"""

import json
import struct

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from lidkit import tensor_ops
from lidkit.audio import WavError, decode_wav
from lidkit.cli import CliError, load_manifest
from lidkit.encoder import EncoderConfig
from lidkit.model import build_model
from lidkit.tensor_ops import conv1d_depthwise, conv1d_depthwise_backward
from lidkit.training import CheckpointError, load_checkpoint, save_checkpoint
from tests.test_tensor_ops import naive_depthwise, naive_depthwise_backward

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


# ---------------------------------------------------------------------------
# WAV bytes

fmt_bodies = st.builds(  # format, channels, rate, bits; byte rate and block align are not read
    lambda fmt, ch, rate, bits, tail: struct.pack("<HHIIHH", fmt, ch, rate, 0, 0, bits) + tail,
    st.sampled_from([1, 3]) | st.integers(0, 2**16 - 1),
    st.integers(0, 4) | st.integers(0, 2**16 - 1),
    st.sampled_from([8000, 16000]) | st.integers(0, 2**32 - 1),
    st.sampled_from([8, 16]) | st.integers(0, 2**16 - 1),
    st.binary(max_size=4),
)
chunks = st.tuples(
    st.sampled_from([b"fmt ", b"data", b"LIST"]) | st.binary(min_size=4, max_size=4),
    fmt_bodies | st.binary(max_size=64),
    st.none() | st.integers(0, 2**32 - 1),  # declared length; None: the true one
)


def riff(chunk_list, riff_len):
    body = b"".join(cid + struct.pack("<I", len(data) if n is None else n) + data for cid, data, n in chunk_list)
    return b"RIFF" + struct.pack("<I", riff_len % 2**32) + b"WAVE" + body


def assert_decodes_or_wav_error(data):
    try:
        clip = decode_wav(data)
    except WavError:
        return
    assert clip.samples.ndim == 1 and len(clip.samples) >= 1 and clip.sample_rate >= 1


@FUZZ
@given(st.binary(max_size=128))
def test_decode_wav_raw_bytes(data):
    assert_decodes_or_wav_error(data)


@FUZZ
@given(st.lists(chunks, max_size=4), st.integers(0, 2**32 - 1))
def test_decode_wav_riff_chunks(chunk_list, riff_len):
    assert_decodes_or_wav_error(riff(chunk_list, riff_len))


# ---------------------------------------------------------------------------
# checkpoint headers

DELETE = object()
HEADER_FIELDS = [("encoder",), ("d_att",), ("labels",), ("step",), ("tensors",),
                 ("encoder", "channels"), ("encoder", "kernel_sizes"), ("encoder", "sub_blocks"),
                 ("encoder", "input_dim"), ("encoder", "dropout_rate"),
                 ("tensors", 0), ("tensors", 0, "name"), ("tensors", 0, "shape"), ("tensors", 0, "kind"),
                 ("tensors", -1, "shape"), ("tensors", -1, "kind")]


@pytest.fixture(scope="module")
def checkpoint_parts(tmp_path_factory):
    cfg = EncoderConfig(channels=(3,), kernel_sizes=(3,), sub_blocks=1, input_dim=4, out_channels=5)
    path = tmp_path_factory.mktemp("ckpt") / "m.lidk"
    save_checkpoint(build_model(cfg, ["a", "b"], seed=0, d_att=2), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    return path, raw[:8], json.loads(raw[16 : 16 + header_len]), raw[16 + header_len :]


@FUZZ
@given(st.sampled_from(HEADER_FIELDS), st.just(DELETE) | json_values)
def test_load_checkpoint_with_one_field_changed(checkpoint_parts, field, value):
    path, prefix, header, blob = checkpoint_parts
    header = json.loads(json.dumps(header))  # a fresh copy
    parent = header
    for key in field[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[field[-1]]
    else:
        parent[field[-1]] = value
    header_bytes = json.dumps(header).encode("utf-8")
    path.write_bytes(prefix + struct.pack("<Q", len(header_bytes)) + header_bytes + blob)
    try:
        model = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(model.d_att, int) and all(isinstance(lab, str) for lab in model.labels)
    cfg = model.encoder_cfg
    assert all(type(n) is int for n in (*cfg.channels, *cfg.kernel_sizes, cfg.sub_blocks, cfg.input_dim))
    assert type(cfg.dropout_rate) in (int, float)


# ---------------------------------------------------------------------------
# manifests

records = json_values | st.fixed_dictionaries({"audio_filepath": json_values, "label": json_values})


@FUZZ
@given(st.lists(records, max_size=4))
def test_load_manifest_one_value_per_line(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_text("".join(json.dumps(v) + "\n" for v in values), encoding="utf-8")
    try:
        loaded = load_manifest(path)
    except CliError:
        return
    assert len(loaded) == len(values)
    for rec in loaded:
        assert isinstance(rec["audio_filepath"], str) and isinstance(rec["label"], str) and rec["label"]


# ---------------------------------------------------------------------------
# depthwise conv: one path for every odd kernel width, often wider than T


@FUZZ
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 40), st.integers(0, 40), st.integers(0, 2**32 - 1),
       st.integers(1, 4096))
def test_depthwise_matches_oracle(n, c, t, half, seed, block_bytes):
    # a channel's transients take ~2.8 to ~23 kB here, so the drawn budget splits a bank of C > 1
    # channels into 2 to C channel blocks, equal or not
    rng = np.random.default_rng(seed)
    x, g = rng.standard_normal((2, n, c, t))
    kernels = rng.standard_normal((c, 2 * half + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor_ops, "_BLOCK_BYTES", block_bytes)
        gx, gk = conv1d_depthwise_backward(g, x, kernels)
        y = conv1d_depthwise(x, kernels)
    want = np.stack([naive_depthwise(xi, kernels) for xi in x])
    want_gx, want_gk = naive_depthwise_backward(g, x, kernels)
    for got, ref in ((y, want), (gx, want_gx), (gk, want_gk)):
        assert got.shape == ref.shape and got.dtype == np.float64 and got.base is None
        assert np.max(np.abs(got - ref)) <= 1e-6
