import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from lidkit.augment import AugmentConfig
from lidkit.encoder import EncoderConfig
from lidkit.features import FeatureConfig, FeatureMap
from lidkit.model import batch_from_features, build_model, model_backward, model_forward, tensor_table
from lidkit.training import (
    FIELD_RULES,
    CheckpointError,
    NonFiniteGradientError,
    TrainConfig,
    TrainError,
    check_fields,
    cosine_lr,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
)
from tests.conftest import DATA_DIR

TINY = EncoderConfig(channels=(4, 4), kernel_sizes=(3, 3), sub_blocks=2, input_dim=8,
                     out_channels=6, dropout_rate=0.0)


def toy_dataset(n_per_class=6, n_classes=3, input_dim=8, seed=0, t_range=(8, 14)):
    # each class lights up a different feature bin
    rng = np.random.default_rng(seed)
    data = []
    for c in range(n_classes):
        for i in range(n_per_class):
            t = int(rng.integers(*t_range))
            fm = rng.standard_normal((t, input_dim)).astype(np.float32) * 0.1
            fm[:, c] += 2.0
            data.append((FeatureMap(data=fm, id=f"c{c}_{i}"), c))
    return data


def toy_model(seed=0, n_classes=3):
    return build_model(TINY, [f"c{i}" for i in range(n_classes)], seed, d_att=4)


class TestCosineLr:
    def test_endpoints_exact(self):
        assert cosine_lr(0, 100, 0.005, 1e-4) == 0.005
        assert cosine_lr(100, 100, 0.005, 1e-4) == pytest.approx(1e-4, rel=1e-12)

    def test_midpoint(self):
        assert cosine_lr(50, 100, 0.005, 1e-4) == pytest.approx((0.005 + 0.0001) / 2, rel=1e-12)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(s, 10000, 0.005, 1e-4) for s in range(10001)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(1e-4 <= v <= 0.005 for v in values)

    def test_step_out_of_range(self):
        with pytest.raises(TrainError):
            cosine_lr(-1, 10, 0.005, 1e-4)
        with pytest.raises(TrainError):
            cosine_lr(11, 10, 0.005, 1e-4)


class TestSgdStep:
    def test_lr_zero_unchanged(self):
        params = {"w": np.array([1.0, 2.0])}
        sgd_step(params, {"w": np.array([5.0, -5.0])}, 0.0)
        assert np.array_equal(params["w"], np.array([1.0, 2.0]))

    def test_update_rule(self):
        params = {"p": np.array([1.0])}
        sgd_step(params, {"p": np.array([2.0])}, 0.1)
        assert params["p"][0] == pytest.approx(0.8)

    def test_nonfinite_gradient_refused(self):
        params = {"p": np.array([1.0])}
        with pytest.raises(NonFiniteGradientError):
            sgd_step(params, {"p": np.array([np.nan])}, 0.1)
        assert params["p"][0] == 1.0  # untouched

    def test_shape_mismatch(self):
        with pytest.raises(TrainError):
            sgd_step({"p": np.zeros(2)}, {"p": np.zeros(3)}, 0.1)

    @pytest.mark.parametrize("p_dtype, g_dtype", [
        (np.float32, np.float64), (np.float32, np.float32), (np.float64, np.float64)])
    def test_bit_identical_to_out_of_place(self, p_dtype, g_dtype):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((64, 33)).astype(p_dtype)
        g = rng.standard_normal((64, 33)).astype(g_dtype)
        want, g_before = (p - 0.0031 * g).astype(p_dtype), g.copy()
        params = sgd_step({"p": p}, {"p": g}, 0.0031)
        assert params["p"].dtype == p_dtype and np.array_equal(params["p"], want)
        assert np.array_equal(g, g_before)  # the gradient is read, never written

    def test_single_step_decreases_loss(self):
        # quantified over random tiny models
        for seed in range(5):
            model = toy_model(seed=seed)
            fm, label = toy_dataset(n_per_class=1, seed=seed)[0]
            x = fm.data.T[None]
            valid = np.array([fm.n_frames])
            _, loss0, cache = model_forward(model, x, valid, targets=[label], mode="train",
                                            rng=np.random.default_rng(0))
            grads = model_backward(model, cache)
            sgd_step(model.params, grads, 1e-4)
            _, loss1, _ = model_forward(model, x, valid, targets=[label], mode="train",
                                        rng=np.random.default_rng(0))
            assert loss1 < loss0 + 1e-9


class TestInitialLoss:
    def test_23_class_init_loss_near_uniform(self):
        model = build_model(TINY, [f"lang{i}" for i in range(23)], seed=0, d_att=4)
        data = toy_dataset(n_per_class=1, n_classes=8, seed=1)
        x_list = [fm for fm, _ in data]
        x, valid = batch_from_features(x_list)
        targets = [i % 23 for i in range(len(x_list))]
        _, loss, _ = model_forward(model, x, valid, targets=targets, mode="train",
                                   rng=np.random.default_rng(0))
        assert abs(loss - math.log(23)) <= 0.2


class TestPaddingNeutrality:
    def test_eval_loss_independent_of_padding(self):
        model = toy_model(seed=3)
        fm, label = toy_dataset(n_per_class=1, seed=3)[0]
        t = fm.n_frames
        x_short = np.zeros((1, 8, t), dtype=np.float32)
        x_short[0, :, :t] = fm.data.T
        x_long = np.zeros((1, 8, t + 9), dtype=np.float32)
        x_long[0, :, :t] = fm.data.T
        valid = np.array([t])
        _, loss_a, _ = model_forward(model, x_short, valid, targets=[label], mode="eval")
        _, loss_b, _ = model_forward(model, x_long, valid, targets=[label], mode="eval")
        assert abs(loss_a - loss_b) <= 1e-5


class TestRunningStats:
    def test_train_updates_state_arrays_in_place_eval_leaves_them(self):
        # dropout > 0 makes the batch statistics float64 while the state stays float32
        cfg = dataclasses.replace(TINY, dropout_rate=0.1)
        model = build_model(cfg, ["c0", "c1", "c2"], seed=4, d_att=4)
        data = toy_dataset(n_per_class=1, seed=4)
        x, valid = batch_from_features([fm for fm, _ in data])
        arrays = dict(model.state)
        before = {k: v.copy() for k, v in arrays.items()}
        model_forward(model, x, valid, targets=[c for _, c in data], mode="train",
                      rng=np.random.default_rng(0))
        for k, v in model.state.items():
            assert v is arrays[k], k
            assert v.dtype == np.float32 and not np.array_equal(v, before[k]), k

        after_train = {k: v.copy() for k, v in model.state.items()}
        model_forward(model, x, valid, mode="eval")
        for k, v in model.state.items():
            assert v is arrays[k] and v.tobytes() == after_train[k].tobytes(), k


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = toy_model(seed=5)
        p1 = tmp_path / "a.lidk"
        p2 = tmp_path / "b.lidk"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_bit_exact_tensors(self, tmp_path):
        model = toy_model(seed=6)
        save_checkpoint(model, tmp_path / "m.lidk")
        loaded = load_checkpoint(tmp_path / "m.lidk")
        assert loaded.labels == model.labels and loaded.step == model.step
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])
        for k in model.state:
            assert np.array_equal(loaded.state[k], model.state[k])

        # headers written before the rng note was dropped still load
        raw = (tmp_path / "m.lidk").read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + header_len])
        header["rng"] = {"seed_note": "all rng streams derive from (seed, epoch, step)"}
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        old = tmp_path / "old.lidk"
        old.write_bytes(raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + raw[16 + header_len :])
        loaded_old = load_checkpoint(old)
        assert loaded_old.labels == model.labels and loaded_old.encoder_cfg == model.encoder_cfg
        for k in model.params:
            assert np.array_equal(loaded_old.params[k], model.params[k])

    def test_corrupt_length_field_reported(self, tmp_path):
        model = toy_model(seed=7)
        path = tmp_path / "m.lidk"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        # shrink the declared blob section by dropping trailing bytes
        path.write_bytes(bytes(raw[:-8]))
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [("sub_blocks", 2.0), ("input_dim", 8.0), ("channels", [4.0, 4]),
                                             ("dropout_rate", True), ("kernel_sizes", "33")])
    def test_bad_encoder_field_type_reported(self, tmp_path, field, value):
        path = tmp_path / "m.lidk"
        save_checkpoint(toy_model(seed=8), path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + header_len])
        header["encoder"][field] = value
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + raw[16 + header_len :])
        with pytest.raises(CheckpointError, match=f"encoder.{field} must be "):
            load_checkpoint(path)

    def test_zero_d_att_refused(self, tmp_path):
        # tensor entries that agree with d_att 0, so that only the d_att rule can refuse the header
        model = toy_model(seed=10)
        model.d_att = 0
        model.params.update({"sap.W": np.zeros((0, TINY.out_channels), np.float32),
                             "sap.b": np.zeros(0, np.float32), "sap.mu": np.zeros(0, np.float32)})
        path = tmp_path / "m.lidk"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="d_att must be an integer >= 1"):
            load_checkpoint(path)

    def test_repeated_labels_refused(self, tmp_path):
        # a repeated label used to load, and predict printed a posterior that lost its mass
        model = toy_model(seed=10)
        model.labels = [model.labels[0]] * 2 + model.labels[2:]
        path = tmp_path / "m.lidk"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="labels a list of distinct strings"):
            load_checkpoint(path)

    def test_bad_magic_reported(self, tmp_path):
        path = tmp_path / "m.lidk"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a LIDK"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cfg", [
        EncoderConfig.tiny(),
        EncoderConfig(channels=(4,) * 5, kernel_sizes=(33, 39, 51, 63, 75), sub_blocks=5, out_channels=8),
    ], ids=["tiny", "paper_kernels"])
    def test_tensor_table_lists_what_build_model_makes(self, cfg):
        model = build_model(cfg, ["a", "b", "c"], seed=0, d_att=5)
        made = [(k, v.shape, "param") for k, v in model.params.items()]
        made += [(k, v.shape, "state") for k, v in model.state.items()]
        assert tensor_table(cfg, 5, 3) == made

    @pytest.mark.parametrize("index,edit", [
        (1, lambda t: t.update(shape=[float(n) for n in t["shape"]])),
        (4, lambda t: t["shape"].__setitem__(0, True)),
        (0, lambda t: t.update(kind="buffer")),
        (-1, lambda t: t.update(dtype="<f4")),
    ], ids=["float_dims", "true_dim", "unknown_kind", "extra_key"])
    def test_header_entry_must_match_the_table_exactly(self, tmp_path, index, edit):
        path = tmp_path / "m.lidk"
        save_checkpoint(toy_model(seed=9), path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + header_len])
        edit(header["tensors"][index])
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + raw[16 + header_len :])
        with pytest.raises(CheckpointError, match=f"tensor {index % len(header['tensors'])} is "):
            load_checkpoint(path)

    def test_committed_checkpoint_loads_and_resaves_byte_identical(self, tmp_path):
        # written by an earlier release; pins the on-disk format
        path = DATA_DIR / "checkpoint_tiny_v1.lidk"
        loaded = load_checkpoint(path)
        built = build_model(EncoderConfig.tiny(), ["a", "b", "c"], seed=0, d_att=8)
        assert loaded.encoder_cfg == built.encoder_cfg and loaded.labels == built.labels
        assert (loaded.d_att, loaded.step) == (8, 0)
        for mine, theirs in ((loaded.params, built.params), (loaded.state, built.state)):
            assert list(mine) == list(theirs)
            for k in mine:
                assert mine[k].dtype == theirs[k].dtype and np.array_equal(mine[k], theirs[k]), k
        save_checkpoint(loaded, tmp_path / "resaved.lidk")
        assert (tmp_path / "resaved.lidk").read_bytes() == path.read_bytes()


class TestTrainLoop:
    def test_two_seeded_runs_bit_identical(self):
        data = toy_dataset(seed=10)
        val = toy_dataset(n_per_class=2, seed=11)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=99)
        aug = AugmentConfig(freq_mask_width=2, n_freq_masks=1, time_mask_width=2, n_time_masks=1)

        results = []
        models = []
        for _ in range(2):
            model = toy_model(seed=42)
            results.append(train(model, data, val, cfg, aug=aug))
            models.append(model)
        assert results[0].history == results[1].history
        for k in models[0].params:
            assert np.array_equal(models[0].params[k], models[1].params[k])

    def test_resume_bit_identical(self, tmp_path):
        data = toy_dataset(n_per_class=8, seed=12)  # 24 utts, batch 4 -> 6 steps/epoch
        val = toy_dataset(n_per_class=2, seed=13)
        total_epochs = 10  # 60 steps overall, 30 after the resume point

        # uninterrupted run
        model_a = toy_model(seed=77)
        train(model_a, data, val, TrainConfig(epochs=total_epochs, batch_size=4, seed=5))

        # interrupted at epoch 5, checkpointed, resumed
        model_b = toy_model(seed=77)
        spe = 6
        cfg_half = TrainConfig(epochs=5, batch_size=4, seed=5, total_steps=total_epochs * spe)
        train(model_b, data, val, cfg_half, checkpoint_path=tmp_path / "mid.lidk")
        resumed = load_checkpoint(tmp_path / "mid.lidk")
        cfg_full = TrainConfig(epochs=total_epochs, batch_size=4, seed=5,
                               total_steps=total_epochs * spe)
        train(resumed, data, val, cfg_full, start_epoch=5)

        assert resumed.step == model_a.step
        for k in model_a.params:
            assert np.array_equal(model_a.params[k], resumed.params[k]), k
        for k in model_a.state:
            assert np.array_equal(model_a.state[k], resumed.state[k]), k

    def test_history_columns(self):
        data = toy_dataset(seed=14)
        val = toy_dataset(n_per_class=1, seed=15)
        model = toy_model(seed=1)
        result = train(model, data, val, TrainConfig(epochs=2, batch_size=4, seed=0))
        assert len(result.history) == 2
        assert set(result.history[0]) == {"epoch", "lr", "train_loss", "val_top1"}

    def test_unknown_label_rejected(self):
        data = toy_dataset(seed=16)
        bad = [(data[0][0], 99)]
        model = toy_model(seed=2)
        with pytest.raises(TrainError, match="label index"):
            train(model, bad, data, TrainConfig(epochs=1, batch_size=4))

    def test_empty_dataset_rejected(self):
        model = toy_model(seed=3)
        with pytest.raises(TrainError):
            train(model, [], [], TrainConfig(epochs=1, batch_size=4))

    def test_batch_size_beyond_float_range_takes_one_full_batch_per_epoch(self):
        # len(data) / 10**400 underflows to 0.0 as a float, which made zero steps per epoch
        model = toy_model(seed=4)
        result = train(model, toy_dataset(n_per_class=2, seed=17), toy_dataset(n_per_class=1, seed=18),
                       TrainConfig(epochs=2, batch_size=10**400, seed=0))
        assert model.step == 2 and len(result.history) == 2

    def test_batch_size_one_rejected(self):
        with pytest.raises(TrainError):
            TrainConfig(batch_size=1)

    def test_lr_bounds_validated(self):
        with pytest.raises(TrainError):
            TrainConfig(lr_max=1e-5, lr_min=1e-4)


CONFIGS = [FeatureConfig, EncoderConfig, AugmentConfig, TrainConfig]


class TestCheckFields:
    @pytest.mark.parametrize("cls", CONFIGS)
    def test_every_field_annotation_has_a_rule(self, cls):
        # a field of a type the rule does not know would otherwise go unchecked
        assert [f.name for f in dataclasses.fields(cls) if f.type not in FIELD_RULES] == []

    @pytest.mark.parametrize("cls", CONFIGS)
    def test_default_config_passes_through_json(self, cls):
        cfg = EncoderConfig.tiny() if cls is EncoderConfig else cls()
        check_fields(cls, json.loads(json.dumps(dataclasses.asdict(cfg))), "section")

    @pytest.mark.parametrize("field,value", [("epochs", 3.0), ("epochs", True), ("total_steps", "5"),
                                             ("lr_max", True), ("lr_max", float("nan")), ("lr_max", float("inf")),
                                             ("lr_max", 10**400), ("lr_min", None)])
    def test_bad_value_named(self, field, value):
        with pytest.raises(TypeError, match=f"^train.{field} must be "):
            check_fields(TrainConfig, {field: value}, "train")

    @pytest.mark.parametrize("values", [{"total_steps": None}, {"lr_max": 1}, {"bogus": "left to the constructor"}])
    def test_good_value_accepted(self, values):
        check_fields(TrainConfig, values, "train")

    def test_section_must_be_an_object(self):
        with pytest.raises(TypeError, match="^augment must be a JSON object"):
            check_fields(AugmentConfig, [1], "augment")
