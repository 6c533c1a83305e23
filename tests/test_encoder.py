import dataclasses

import numpy as np
import pytest

import lidkit.encoder
from lidkit import tensor_ops as T
from lidkit.encoder import (
    EncoderConfig,
    _conv_bn,
    _conv_bn_backward,
    build_encoder,
    encoder_backward,
    encoder_forward,
    encoder_param_shapes,
)
from lidkit.diagnostics import finite_diff_check


def tiny_cfg(**kw):
    base = dict(channels=(4, 4), kernel_sizes=(3, 5), sub_blocks=2, input_dim=5,
                out_channels=6, dropout_rate=0.0)
    base.update(kw)
    return EncoderConfig(**base)


class TestConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(T.ShapeError):
            EncoderConfig(channels=(8,), kernel_sizes=(4,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            EncoderConfig(channels=(8, 8), kernel_sizes=(3,))

    def test_full_size_layout(self):
        cfg = EncoderConfig.full_size()
        assert len(cfg.channels) == 15 and cfg.sub_blocks == 5
        assert set(cfg.channels) == {512}
        assert cfg.kernel_sizes == (33, 33, 33, 39, 39, 39, 51, 51, 51, 63, 63, 63, 75, 75, 75)

    def test_roundtrip_dict(self):
        cfg = EncoderConfig.tiny()
        assert EncoderConfig(**dataclasses.asdict(cfg)) == cfg


class TestBuild:
    def test_same_seed_bit_identical(self):
        p1, s1 = build_encoder(EncoderConfig.tiny(), seed=7)
        p2, s2 = build_encoder(EncoderConfig.tiny(), seed=7)
        assert p1.keys() == p2.keys()
        for k in p1:
            assert np.array_equal(p1[k], p2[k])
        for k in s1:
            assert np.array_equal(s1[k], s2[k])

    def test_different_seed_differs(self):
        p1, _ = build_encoder(EncoderConfig.tiny(), seed=7)
        p2, _ = build_encoder(EncoderConfig.tiny(), seed=8)
        assert any(not np.array_equal(p1[k], p2[k]) for k in p1)

    def test_gamma_ones_biases_zero(self):
        params, _ = build_encoder(EncoderConfig.tiny(), seed=0)
        for name, v in params.items():
            if name.endswith(".gamma"):
                assert np.all(v == 1.0)
            if name.endswith((".pw_b", ".beta")):
                assert np.all(v == 0.0)

    def test_parameter_count_b1_r1(self):
        # counted independently from the layer shapes:
        # prologue: dw 5*3 + pw 4*5+4 + bn 2*4 = 47
        # block0:   dw 4*3 + pw 4*4+4 + bn 8 = 40; residual pw 4*4+4 + bn 8 = 28
        # epilogue: pw 6*4+6 + bn 12 = 42
        cfg = EncoderConfig(channels=(4,), kernel_sizes=(3,), sub_blocks=1,
                            input_dim=5, out_channels=6)
        params, _ = build_encoder(cfg, seed=0)
        total = sum(v.size for v in params.values())
        assert total == 47 + 40 + 28 + 42

    def test_param_order_pinned(self):
        # the order fixes the He-init draws and the checkpoint's tensor order
        cfg = tiny_cfg(channels=(4, 3))

        def layer(name, c_in, c_out, k=0):
            dw = [(f"{name}.dw", (c_in, k))] if k else []
            return dw + [(f"{name}.pw_w", (c_out, c_in)), (f"{name}.pw_b", (c_out,)),
                         (f"{name}.bn.gamma", (c_out,)), (f"{name}.bn.beta", (c_out,))]

        expected = [
            ("enc.prologue.dw", (5, 3)), ("enc.prologue.pw_w", (4, 5)), ("enc.prologue.pw_b", (4,)),
            ("enc.prologue.bn.gamma", (4,)), ("enc.prologue.bn.beta", (4,)),
            *layer("enc.block0.sub0", 4, 4, 3), *layer("enc.block0.sub1", 4, 4, 3), *layer("enc.block0.res", 4, 4),
            *layer("enc.block1.sub0", 4, 3, 5), *layer("enc.block1.sub1", 3, 3, 5), *layer("enc.block1.res", 4, 3),
            ("enc.epilogue.pw_w", (6, 3)), ("enc.epilogue.pw_b", (6,)),
            ("enc.epilogue.bn.gamma", (6,)), ("enc.epilogue.bn.beta", (6,)),
        ]
        assert list(encoder_param_shapes(cfg).items()) == expected

    def test_shapes_derivable_from_config_alone(self):
        cfg = tiny_cfg()
        shapes = encoder_param_shapes(cfg)
        params, _ = build_encoder(cfg, seed=1)
        assert {k: v.shape for k, v in params.items()} == shapes


class TestForward:
    @pytest.mark.parametrize("t", [1, 5, 17])
    def test_time_length_preserved(self, t):
        cfg = tiny_cfg()
        params, state = build_encoder(cfg, seed=0)
        x = np.random.default_rng(t).standard_normal((3, 5, t)).astype(np.float32)
        out, _ = encoder_forward(cfg, params, state, x, mode="eval")
        assert out.shape == (3, cfg.out_channels, t)

    def test_wrong_input_dim_rejected(self):
        cfg = tiny_cfg()
        params, state = build_encoder(cfg, seed=0)
        with pytest.raises(T.ShapeError):
            encoder_forward(cfg, params, state, np.zeros((1, 7, 4)), mode="eval")

    def test_eval_forward_pure(self):
        cfg = tiny_cfg()
        params, state = build_encoder(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 5, 6)).astype(np.float32)
        a, _ = encoder_forward(cfg, params, state, x, mode="eval")
        b, _ = encoder_forward(cfg, params, state, x, mode="eval")
        assert np.array_equal(a, b)

    def test_output_finite(self):
        cfg = tiny_cfg()
        params, state = build_encoder(cfg, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 5, 9)).astype(np.float32)
        out, _ = encoder_forward(cfg, params, state, x, mode="train", rng=np.random.default_rng(0))
        assert np.all(np.isfinite(out))

    def test_zeroed_blocks_leave_residual_path(self):
        # with all sub-block weights zero, each block reduces to
        # relu(bn_eval(1x1(block_in))); compose that by hand and compare
        cfg = tiny_cfg()
        params, state = build_encoder(cfg, seed=3, dtype=np.float64)
        for name in params:
            if ".sub" in name and name.endswith((".dw", ".pw_w", ".pw_b")):
                params[name] = np.zeros_like(params[name])
        x = np.random.default_rng(2).standard_normal((2, 5, 7))
        out, _ = encoder_forward(cfg, params, state, x, mode="eval")

        def bn_eval(v, prefix):
            return T.batch_norm_1d(v, params[f"{prefix}.gamma"], params[f"{prefix}.beta"],
                                   state[f"{prefix}.mean"], state[f"{prefix}.var"], "eval")[0]

        h = T.conv1d_depthwise(x, params["enc.prologue.dw"])
        h = T.conv1d_pointwise(h, params["enc.prologue.pw_w"], params["enc.prologue.pw_b"])
        h = T.relu(bn_eval(h, "enc.prologue.bn"))
        for b in range(len(cfg.channels)):
            res = T.conv1d_pointwise(h, params[f"enc.block{b}.res.pw_w"], params[f"enc.block{b}.res.pw_b"])
            res = bn_eval(res, f"enc.block{b}.res.bn")
            # zeroed sub-blocks contribute bn_eval(0) before the residual join
            zero_branch = bn_eval(np.zeros_like(res), f"enc.block{b}.sub{cfg.sub_blocks - 1}.bn")
            h = T.relu(zero_branch + res)
        h = T.conv1d_pointwise(h, params["enc.epilogue.pw_w"], params["enc.epilogue.pw_b"])
        expected = T.relu(bn_eval(h, "enc.epilogue.bn"))
        assert np.max(np.abs(out - expected)) <= 1e-10


class TestMask:
    def test_padding_is_neutral_in_train_mode(self):
        # the paper's kernels (33-75) are wider than short clips: (17, 19) covers
        # kernels wider than some valid lengths (T = 30) and than all of them (T = 9)
        for kernel_sizes, t in (((3, 5), 9), ((17, 19), 9), ((17, 19), 30)):
            cfg = tiny_cfg(kernel_sizes=kernel_sizes, dropout_rate=0.1)
            valid = [t, t - 3, 1]
            x = np.random.default_rng(4).standard_normal((3, 5, t))
            probe = np.random.default_rng(5).standard_normal((3, cfg.out_channels, t))
            pad = np.arange(t)[None, None, :] >= np.array(valid)[:, None, None]

            runs = []
            for fill in (0.0, 1e3):
                params, state = build_encoder(cfg, seed=6, dtype=np.float64)
                xf = np.where(pad, fill, x)
                out, cache = encoder_forward(cfg, params, state, xf, mode="train",
                                             rng=np.random.default_rng(7), valid_lens=valid)
                grad_x, grads = encoder_backward(params, cache, probe)
                assert np.all(out[np.broadcast_to(pad, out.shape)] == 0)
                assert np.all(grad_x[np.broadcast_to(pad, grad_x.shape)] == 0)
                runs.append((out, grads))
            (out0, grads0), (out1, grads1) = runs
            assert out0.tobytes() == out1.tobytes()
            assert all(grads0[k].tobytes() == grads1[k].tobytes() for k in grads0)


class TestBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        cfg = tiny_cfg()
        params, state = build_encoder(cfg, seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 5, 6))
        out, cache = encoder_forward(cfg, params, state, x, mode="train")
        grad_x, grads = encoder_backward(params, cache, np.zeros_like(out))
        assert np.all(grad_x == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_finite_difference(self):
        cfg = tiny_cfg()
        params, _ = build_encoder(cfg, seed=5, dtype=np.float64)
        x = np.random.default_rng(5).standard_normal((2, 5, 4))
        probe = np.random.default_rng(6).standard_normal((2, cfg.out_channels, 4))

        def fresh_state():
            _, s = build_encoder(cfg, seed=5, dtype=np.float64)
            return s

        def loss(d):
            p = {k: v for k, v in d.items() if k != "x"}
            out, _ = encoder_forward(cfg, p, fresh_state(), d["x"], mode="train")
            return float(np.sum(probe * out))

        def grads(d):
            p = {k: v for k, v in d.items() if k != "x"}
            out, cache = encoder_forward(cfg, p, fresh_state(), d["x"], mode="train")
            gx, gp = encoder_backward(p, cache, probe)
            return {"x": gx, **gp}

        err = finite_diff_check(loss, grads, {"x": x, **params})
        assert err <= 1e-3

    def test_finite_difference_with_dropout_and_padding(self):
        # the ReLU adjoint reads its sign from the layer output after dropout and
        # the mask; a fresh rng of the same seed keeps the dropout mask fixed
        cfg = tiny_cfg(dropout_rate=0.1)
        params, _ = build_encoder(cfg, seed=8, dtype=np.float64)
        x = np.random.default_rng(8).standard_normal((3, 5, 6))
        valid = [6, 4, 2]
        probe = np.random.default_rng(9).standard_normal((3, cfg.out_channels, 6))

        def forward(d):
            p = {k: v for k, v in d.items() if k != "x"}
            _, state = build_encoder(cfg, seed=8, dtype=np.float64)
            out, cache = encoder_forward(cfg, p, state, d["x"], mode="train",
                                         rng=np.random.default_rng(10), valid_lens=valid)
            return p, out, cache

        def loss(d):
            return float(np.sum(probe * forward(d)[1]))

        def grads(d):
            p, _, cache = forward(d)
            gx, gp = encoder_backward(p, cache, probe)
            return {"x": gx, **gp}

        _, _, cache = forward({"x": x, **params})
        keeps = [keep for layer_caches, _ in cache[0] for _, _, keep in layer_caches if keep is not None]
        assert keeps and not all(np.all(k) for k in keeps)  # some unit is dropped
        err = finite_diff_check(loss, grads, {"x": x, **params})
        assert err <= 1e-3

    def test_deep_config_input_gradient_nonzero(self):
        cfg = EncoderConfig(channels=(4, 4, 4, 4, 4), kernel_sizes=(3, 3, 3, 3, 3),
                            sub_blocks=2, input_dim=5, out_channels=6)
        params, state = build_encoder(cfg, seed=9, dtype=np.float64)
        x = np.random.default_rng(9).standard_normal((2, 5, 8))
        out, cache = encoder_forward(cfg, params, state, x, mode="train")
        grad_x, _ = encoder_backward(params, cache, np.ones_like(out))
        assert np.max(np.abs(grad_x)) > 1e-12

    def test_single_subblock_matches_chained_primitives(self):
        cfg = EncoderConfig(channels=(3,), kernel_sizes=(3,), sub_blocks=1,
                            input_dim=3, out_channels=3)
        params, state = build_encoder(cfg, seed=11, dtype=np.float64)
        x = np.random.default_rng(11).standard_normal((2, 3, 5))
        out, cache = encoder_forward(cfg, params, state, x, mode="train")
        probe = np.random.default_rng(12).standard_normal(out.shape)
        grad_x, grads = encoder_backward(params, cache, probe)
        # epilogue bias gradient equals the probe mass where the ReLU is active
        active = (out > 0).astype(np.float64)
        assert np.allclose(grads["enc.epilogue.pw_b"] * 0 + grads["enc.epilogue.bn.beta"],
                           np.sum(probe * active, axis=(0, 2)))


def test_conv_bn_backward_equals_adjoint_of_the_forwards_depthwise_output(monkeypatch):
    # the backward recomputes the depthwise output; every gradient must be the one the cached
    # output gave, bit for bit (float64 input and float32 weights, as after a dropout layer)
    name, k = "enc.block0.sub0", 7
    rng = np.random.default_rng(21)
    params = {f"{name}.dw": rng.standard_normal((16, k)), f"{name}.pw_w": rng.standard_normal((12, 16)),
              f"{name}.pw_b": rng.standard_normal(12), f"{name}.bn.gamma": rng.standard_normal(12),
              f"{name}.bn.beta": rng.standard_normal(12)}
    params = {key: v.astype(np.float32) for key, v in params.items()}
    state = {f"{name}.bn.mean": np.zeros(12, np.float32), f"{name}.bn.var": np.ones(12, np.float32)}
    mask = (np.arange(40) < np.array([40, 31])[:, None, None]).astype(np.float64)
    x = rng.standard_normal((2, 16, 40)) * mask
    outputs = []

    def recording_depthwise(inputs, kernels):
        outputs.append(T.conv1d_depthwise(inputs, kernels))
        return outputs[-1].copy()

    monkeypatch.setattr(lidkit.encoder, "conv1d_depthwise", recording_depthwise)
    out, cache = _conv_bn(x, params, state, (name, 16, 12, k), "train", mask)
    grad_out = rng.standard_normal(out.shape) * mask
    grads = {}
    grad_x = _conv_bn_backward(grad_out, cache, params, grads)
    assert len(outputs) == 2  # the forward's, then the backward's recomputation

    g, want = grad_out, {}
    g, want[f"{name}.bn.gamma"], want[f"{name}.bn.beta"] = T.batch_norm_1d_backward(g, cache[-1])
    g, want[f"{name}.pw_w"], want[f"{name}.pw_b"] = T.conv1d_pointwise_backward(g, outputs[0], params[f"{name}.pw_w"])
    want_x, want[f"{name}.dw"] = T.conv1d_depthwise_backward(g, x, params[f"{name}.dw"])
    assert np.array_equal(grad_x, want_x) and grads.keys() == want.keys()
    for key, w in want.items():
        assert grads[key].dtype == w.dtype and np.array_equal(grads[key], w), key
