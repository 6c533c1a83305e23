import json
import struct
from pathlib import Path

import lidkit.cli

import numpy as np
import pytest

from lidkit.audio import decode_wav, encode_wav
from lidkit.cli import CliError, build_report, load_manifest, main, split_manifest
from lidkit.diagnostics import ALL_CHECKS
from lidkit.evaluation import load_taxonomy
from lidkit.features import FeatureConfig, compute_mfsc, frame_count
from lidkit.model import batch_from_features, model_forward
from lidkit.synthetic import make_clip, make_corpus, write_corpus_wavs
from lidkit.tensor_ops import softmax
from lidkit.training import load_checkpoint, save_checkpoint
from tests.conftest import DATA_DIR, check_budget_batches


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    records = write_corpus_wavs(make_corpus(n_classes=3, clips_per_class=4, seed=1), root / "wav")
    manifest = root / "all.jsonl"
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return root, manifest, records


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps({
        "encoder": {"channels": [8, 8], "kernel_sizes": [3, 5], "sub_blocks": 2,
                    "input_dim": 40, "out_channels": 12, "dropout_rate": 0.0},
        "d_att": 8,
        "train": {"epochs": 4, "batch_size": 4, "lr_max": 0.05, "lr_min": 1e-3,
                  "seed": 0, "patience": 10, "total_steps": None},
        "augment": {"freq_mask_width": 4, "n_freq_masks": 1, "time_mask_width": 5,
                    "n_time_masks": 1, "mask_value": 0.0, "enabled": True},
    }))
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpus_dir, tiny_config):
    root, manifest, _ = corpus_dir
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--config", str(tiny_config), "--manifest", str(manifest),
               "--split", "0.75", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


class TestFeaturize:
    def test_empty_manifest_nonzero_exit(self, tmp_path):
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        assert main(["featurize", "--manifest", str(manifest)]) == 2

    def test_two_clip_manifest(self, tmp_path, corpus_dir, capsys):
        _, _, records = corpus_dir
        manifest = tmp_path / "two.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in records[:2]) + "\n")
        assert main(["featurize", "--manifest", str(manifest)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 2

    def test_unreadable_path_partial_failure(self, tmp_path, corpus_dir, capsys):
        _, _, records = corpus_dir
        manifest = tmp_path / "mixed.jsonl"
        rows = [records[0], {"audio_filepath": str(tmp_path / "missing.wav"), "label": "x"}]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["featurize", "--manifest", str(manifest)]) == 3
        assert main(["featurize", "--manifest", str(manifest), "--allow-partial"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert len(summary["failures"]) == 1


class TestSplit:
    def test_80_20_split_exact_and_stable(self):
        records = [{"audio_filepath": f"/x/utt{i:03d}.wav", "label": "a"} for i in range(100)]
        tr1, va1 = split_manifest(records, 0.8, seed=7)
        tr2, va2 = split_manifest(records, 0.8, seed=7)
        assert len(tr1) == 80 and len(va1) == 20
        assert tr1 == tr2 and va1 == va2
        ids = {r["audio_filepath"] for r in tr1} | {r["audio_filepath"] for r in va1}
        assert len(ids) == 100  # disjoint partition

    def test_different_seed_different_split(self):
        records = [{"audio_filepath": f"/x/utt{i:03d}.wav", "label": "a"} for i in range(100)]
        tr1, _ = split_manifest(records, 0.8, seed=1)
        tr2, _ = split_manifest(records, 0.8, seed=2)
        assert tr1 != tr2


class TestTrain:
    def test_history_written(self, trained_dir):
        lines = (trained_dir / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_top1"
        assert len(lines) == 5  # 4 epochs
        assert (trained_dir / "checkpoint.lidk").exists()

    def test_same_seed_identical_history(self, tmp_path, corpus_dir, tiny_config):
        _, manifest, _ = corpus_dir
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(tiny_config), "--manifest", str(manifest),
                         "--split", "0.75", "--seed", "3", "--out", str(out)]) == 0
            outs.append((out / "history.csv").read_text())
        assert outs[0] == outs[1]

    def test_val_labels_not_subset_refused(self, tmp_path, corpus_dir, tiny_config, capsys):
        root, _, records = corpus_dir
        train_m = tmp_path / "train.jsonl"
        val_m = tmp_path / "val.jsonl"
        only_band0 = [r for r in records if r["label"] == "band0"]
        others = [r for r in records if r["label"] != "band0"]
        train_m.write_text("\n".join(json.dumps(r) for r in only_band0) + "\n")
        val_m.write_text("\n".join(json.dumps(r) for r in others) + "\n")
        rc = main(["train", "--config", str(tiny_config), "--train-manifest", str(train_m),
                   "--val-manifest", str(val_m), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "validation labels" in capsys.readouterr().err

    def test_missing_manifest_args(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)]) == 2

    def test_train_seed_is_the_run_seed(self, tmp_path, corpus_dir, tiny_config):
        _, manifest, _ = corpus_dir
        seeded = tmp_path / "seeded.json"
        doc = json.loads(tiny_config.read_text())
        doc["train"]["seed"] = 5
        seeded.write_text(json.dumps(doc))
        runs = [(seeded, []), (tiny_config, ["--seed", "5"])]
        for name, (config, extra) in zip("ab", runs):
            assert main(["train", "--config", str(config), "--manifest", str(manifest),
                         "--split", "0.75", "--out", str(tmp_path / name)] + extra) == 0
        for file in ("checkpoint.lidk", "history.csv"):
            assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()


class TestEvaluate:
    def taxonomy(self, tmp_path):
        path = tmp_path / "tax.tsv"
        path.write_text("band0\tlow\tsynthetic\nband1\tmid\tsynthetic\nband2\thigh\tsynthetic\n"
                        "band9\tmid\tsynthetic\n")
        return path

    def test_report_has_three_accuracy_rows(self, tmp_path, corpus_dir, trained_dir, tiny_config):
        _, manifest, _ = corpus_dir
        out = tmp_path / "eval"
        rc = main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint.lidk"),
                   "--manifest", str(manifest), "--taxonomy", str(self.taxonomy(tmp_path)),
                   "--config", str(tiny_config), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["top1"]) == {"language", "genus", "family"}
        assert (out / "confusion_known.csv").exists()
        assert (out / "confusion_known_pct.csv").exists()

    def test_one_forward_per_budget_batch(self, tmp_path, corpus_dir, trained_dir, tiny_config,
                                          forward_batches):
        _, manifest, records = corpus_dir
        forward_batches.clear()
        rc = main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint.lidk"),
                   "--manifest", str(manifest), "--taxonomy", str(self.taxonomy(tmp_path)),
                   "--config", str(tiny_config), "--out", str(tmp_path / "eval")])
        assert rc == 0
        check_budget_batches(forward_batches, [frame_count(16000, FeatureConfig())] * len(records))
        assert len(forward_batches) == 1

    def test_oracle_predictions_give_100_percent(self, tmp_path, taxonomy_23_path):
        tax = load_taxonomy(taxonomy_23_path)
        labels = sorted(tax.entries) * 2
        report = build_report(list(labels), labels, tax, sorted(tax.entries))
        assert report["top1"] == {"language": 1.0, "genus": 1.0, "family": 1.0}

    def test_unknown_language_excluded_from_accuracy(self, tmp_path, taxonomy_23_path):
        tax = load_taxonomy(taxonomy_23_path)
        known = ["krl", "vep"]
        labels = ["krl", "vep", "tyv"]  # tyv not trained on
        preds = ["krl", "vep", "krl"]
        report = build_report(preds, labels, tax, known)
        assert report["n_known"] == 2
        assert report["top1"]["language"] == 1.0

    def test_unknown_confusion_csv_nonempty(self, tmp_path, corpus_dir, trained_dir, tiny_config):
        root, _, records = corpus_dir
        # relabel one clip as an unseen language
        rows = [dict(records[0], label="band9")] + records[1:4]
        manifest = tmp_path / "unk.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "eval"
        rc = main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint.lidk"),
                   "--manifest", str(manifest), "--taxonomy", str(self.taxonomy(tmp_path)),
                   "--config", str(tiny_config), "--out", str(out)])
        assert rc == 0
        unknown_csv = (out / "confusion_unknown.csv").read_text().splitlines()
        assert len(unknown_csv) == 2 and unknown_csv[1].startswith("band9,")
        report = json.loads((out / "report.json").read_text())
        assert report["n_known"] == 3


class TestPredict:
    def test_attention_profile_and_determinism(self, tmp_path, corpus_dir, trained_dir,
                                               tiny_config, capsys):
        _, _, records = corpus_dir
        wav = records[0]["audio_filepath"]
        outputs = []
        for _ in range(2):
            rc = main(["predict", "--checkpoint", str(trained_dir / "checkpoint.lidk"),
                       "--wav", wav, "--config", str(tiny_config)])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        rec = json.loads(outputs[0])
        assert abs(sum(rec["attention"]) - 1.0) <= 1e-5
        assert abs(sum(rec["posterior"].values()) - 1.0) <= 1e-5

    def test_manifest_lines_match_wav_runs(self, tmp_path, trained_dir, tiny_config, capsys, forward_batches):
        durations = (1.3, 0.6, 2.0)
        rng = np.random.default_rng(5)
        rows = []
        for k, seconds in enumerate(durations):
            path = tmp_path / f"clip{k}.wav"
            path.write_bytes(encode_wav(make_clip(k, rng, 16000, seconds).samples, 16000))
            rows.append({"audio_filepath": str(path), "label": f"band{k}"})
        manifest = tmp_path / "three.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        checkpoint = trained_dir / "checkpoint.lidk"
        argv = ["predict", "--checkpoint", str(checkpoint), "--config", str(tiny_config)]
        frames = [frame_count(int(16000 * seconds), FeatureConfig()) for seconds in durations]

        forward_batches.clear()
        assert main(argv + ["--manifest", str(manifest)]) == 0
        check_budget_batches(forward_batches, frames)
        assert len(forward_batches) == 1  # three clips of different lengths in one padded batch
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [rec["id"] for rec in lines] == ["clip0", "clip1", "clip2"]

        model = load_checkpoint(checkpoint)
        for row, rec, n in zip(rows, lines, frames):
            assert main(argv + ["--wav", row["audio_filepath"]]) == 0
            wav_out = capsys.readouterr().out
            single = json.loads(wav_out)
            assert rec["label"] == single["label"]
            assert len(rec["attention"]) == len(single["attention"]) == n
            assert max(abs(rec["posterior"][lab] - p) for lab, p in single["posterior"].items()) <= 1e-5
            # a --wav line is that of the one-row eval forward, byte for byte
            path = Path(row["audio_filepath"])
            fm = compute_mfsc(decode_wav(path.read_bytes(), clip_id=path.stem), FeatureConfig())
            logits, _, cache = model_forward(model, *batch_from_features([fm]), mode="eval")
            posterior = softmax(logits[0])
            assert wav_out == json.dumps({
                "id": fm.id,
                "label": model.labels[int(np.argmax(posterior))],
                "posterior": {lab: float(p) for lab, p in zip(model.labels, posterior)},
                "attention": [float(w) for w in cache[2].weights[0]],
            }) + "\n"

    def test_silence_wav(self, tmp_path, trained_dir, tiny_config, capsys):
        wav = tmp_path / "silence.wav"
        wav.write_bytes(encode_wav(np.zeros(16000, dtype=np.float32), 16000))
        rc = main(["predict", "--checkpoint", str(trained_dir / "checkpoint.lidk"),
                   "--wav", str(wav), "--config", str(tiny_config)])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["label"] in {"band0", "band1", "band2"}
        assert abs(sum(rec["posterior"].values()) - 1.0) <= 1e-5

    def test_out_option_is_gone(self):
        # predict prints its lines; a file of the same lines was read by nothing
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--checkpoint", "m.lidk", "--wav", "a.wav", "--out", "pred.jsonl"])
        assert exc.value.code == 2

    def test_manifest_with_garbage_wav_fails_fast(self, tmp_path, corpus_dir, trained_dir,
                                                  tiny_config, capsys):
        _, _, records = corpus_dir
        garbage = tmp_path / "garbage.wav"
        garbage.write_bytes(b"not a wav file at all")
        manifest = tmp_path / "mixed.jsonl"
        rows = [records[0], {"audio_filepath": str(garbage), "label": "band0"}]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        rc = main(["predict", "--checkpoint", str(trained_dir / "checkpoint.lidk"),
                   "--manifest", str(manifest), "--config", str(tiny_config)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {garbage}: ")


class TestGradcheck:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == len(ALL_CHECKS) + 1  # one row per primitive plus composite

    def test_corrupted_backward_nonzero_exit(self, corrupt_backward, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--config", "run.json"])
        assert exc.value.code == 2


class TestRunConfig:
    @pytest.mark.parametrize("text", [
        None,
        "{not json",
        "[1, 2]",
        json.dumps({"train": {"bogus": 3}}),
        json.dumps({"train": {"lr_min": 0.5, "lr_max": 0.1}}),
        json.dumps({"encoder": {"channels": [8], "kernel_sizes": [4]}}),
        json.dumps({"features": {"n_mels": 0}}),
        json.dumps({"augment": {"n_time_masks": -1}}),
        json.dumps({"trian": {"epochs": 1}}),
        json.dumps({"d_att": 0}),
        json.dumps({"d_att": -3}),
        json.dumps({"d_att": 2.5}),
        json.dumps({"seed": "x"}),
        json.dumps({"train": {"epochs": 2.5}}),
        json.dumps({"train": {"patience": "3"}}),
        json.dumps({"encoder": {"channels": [4.5], "kernel_sizes": [3]}}),
        json.dumps({"encoder": {"channels": [4], "kernel_sizes": [3], "sub_blocks": 1.5}}),
        json.dumps({"encoder": {"channels": [], "kernel_sizes": []}}),
        json.dumps({"encoder": {"channels": [0], "kernel_sizes": [3]}}),
        json.dumps({"features": {"frame_hop": 0.0}}),
        json.dumps({"train": {"epochs": 0}}),
    ], ids=["missing_file", "bad_json", "not_an_object", "unknown_key", "lr_order", "even_kernel",
            "zero_mels", "negative_mask_count", "unknown_section", "zero_d_att", "negative_d_att",
            "float_d_att", "string_seed", "float_epochs", "string_patience", "float_channels",
            "float_sub_blocks", "empty_channels", "zero_channels", "zero_frame_hop", "zero_epochs"])
    def test_bad_config_exits_2_with_message(self, tmp_path, corpus_dir, text, capsys):
        _, manifest, _ = corpus_dir
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        rc = main(["train", "--config", str(config), "--manifest", str(manifest),
                   "--split", "0.75", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: run config ")

    @pytest.mark.parametrize("doc,name", [
        ({"augment": {"mask_value": "x"}}, "augment.mask_value"),
        ({"augment": {"enabled": "false"}}, "augment.enabled"),
        ({"train": {"lr_max": True}}, "train.lr_max"),
        ({"features": {"log_floor": True}}, "features.log_floor"),
        ({"features": [1]}, "features"),
        ({"train": {"epochs": "3"}}, "train.epochs"),
        ({"features": {"frame_length": 1e308}}, "frame_length"),
        ({"features": {"frame_hop": 1e308}}, "frame_hop"),
        ({"features": {"sample_rate": 10**400}}, "sample_rate"),
    ], ids=["string_mask_value", "string_enabled", "bool_lr_max", "bool_log_floor", "list_section",
            "string_epochs", "huge_frame_length", "huge_frame_hop", "huge_sample_rate"])
    def test_bad_field_type_named(self, tmp_path, corpus_dir, doc, name, capsys):
        _, manifest, _ = corpus_dir
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(config), "--manifest", str(manifest),
                   "--split", "0.75", "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: run config ") and err.count("\n") == 1
        assert f": {name} must be " in err


class TestManifest:
    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(Exception, match="invalid JSON"):
            load_manifest(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"label": "a"}) + "\n")
        with pytest.raises(Exception, match="audio_filepath"):
            load_manifest(path)

    def test_empty_label_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"audio_filepath": "x.wav", "label": ""}) + "\n")
        with pytest.raises(Exception, match="empty label"):
            load_manifest(path)

    @pytest.mark.parametrize("line", [
        "5", "null", "true", "1.5", '"clip.wav"', "[]",
        json.dumps({"audio_filepath": "x.wav", "label": ["a"]}),
        json.dumps({"audio_filepath": "x.wav", "label": 3}),
        json.dumps({"audio_filepath": None, "label": "a"}),
        json.dumps({"audio_filepath": "a\u0000b.wav", "label": "a"}),
    ], ids=["int", "null", "bool", "float", "string", "list", "list_label", "int_label", "null_path", "nul_path"])
    def test_non_record_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"audio_filepath": "ok.wav", "label": "a"}) + "\n" + line + "\n")
        with pytest.raises(CliError, match=f"^{path}:2: "):
            load_manifest(path)


def _error_argvs(tmp_path, corpus_dir, trained_dir, tiny_config) -> dict:
    """argv of each bad invocation; every one must end in exit 2 and one error: line."""
    _, manifest, records = corpus_dir
    missing, wav = str(tmp_path / "missing.jsonl"), records[0]["audio_filepath"]
    checkpoint = trained_dir / "checkpoint.lidk"
    taxonomy = tmp_path / "tax.tsv"
    taxonomy.write_text("band0\tlow\tsynthetic\nband1\tmid\tsynthetic\n")  # no band2
    mels = tmp_path / "mels.json"
    mels.write_text(json.dumps({"features": {"n_mels": 32}}))  # the checkpoint's encoder takes 40
    raw = checkpoint.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)

    def edited_checkpoint(name, edit):
        header = json.loads(raw[16 : 16 + header_len])
        edit(header)
        header_bytes = json.dumps(header).encode("utf-8")
        path = tmp_path / name
        path.write_bytes(raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + raw[16 + header_len :])
        return str(path)

    corrupt = edited_checkpoint("corrupt.lidk", lambda h: h.pop("labels"))
    repeated = edited_checkpoint("repeated.lidk", lambda h: h.update(labels=["band0", "band0", "band1"]))
    # d_att 0 with tensor entries to match; it used to load and predict with uniform attention
    zero_att = load_checkpoint(checkpoint)
    zero_att.d_att = 0
    zero_att.params.update({"sap.W": np.zeros((0, zero_att.encoder_cfg.out_channels), np.float32),
                            "sap.b": np.zeros(0, np.float32), "sap.mu": np.zeros(0, np.float32)})
    save_checkpoint(zero_att, tmp_path / "zero_att.lidk")
    full_taxonomy = tmp_path / "full_tax.tsv"
    full_taxonomy.write_text("band0\tlow\tsynthetic\nband1\tmid\tsynthetic\nband2\thigh\tsynthetic\n")
    renamed = edited_checkpoint("renamed.lidk", lambda h: h["tensors"][0].update(name="enc.renamed"))
    nul_manifest = tmp_path / "nul.jsonl"
    nul_manifest.write_text(json.dumps({"audio_filepath": "a\u0000b.wav", "label": "band0"}) + "\n")
    empty_manifest = tmp_path / "empty.jsonl"
    empty_manifest.write_text("")
    negative_seed = tmp_path / "seed.json"
    negative_seed.write_text(json.dumps({"train": {"seed": -3}}))
    negative_patience = tmp_path / "patience.json"
    negative_patience.write_text(json.dumps({"train": {"epochs": 4, "batch_size": 4, "patience": -1}}))
    zero_total_steps = tmp_path / "total_steps.json"
    zero_total_steps.write_text(json.dumps({"train": {"total_steps": 0}}))
    # sizes numpy refuses before allocating anything; they used to end train in a traceback
    huge = {"huge_channels": {"encoder": {"channels": [10**400], "kernel_sizes": [3]}},
            "huge_kernel": {"encoder": {"channels": [8], "kernel_sizes": [10**400 + 1]}},
            "huge_d_att": {"d_att": 10**400},
            "huge_n_mels": {"features": {"n_mels": 10**400}}}
    for name, doc in huge.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    split = ["train", "--manifest", str(manifest), "--split", "0.75", "--out", str(tmp_path / "o")]
    evaluate = ["evaluate", "--checkpoint", str(checkpoint), "--config", str(tiny_config),
                "--out", str(tmp_path / "eval")]
    return {
        "train_missing_manifest": ["train", "--manifest", missing, "--split", "0.75", "--out", str(tmp_path / "o")],
        "evaluate_missing_manifest": evaluate + ["--manifest", missing, "--taxonomy", str(taxonomy)],
        "featurize_missing_manifest": ["featurize", "--manifest", missing],
        "missing_taxonomy": evaluate + ["--manifest", str(manifest), "--taxonomy", str(tmp_path / "no.tsv")],
        "taxonomy_without_trained_label": evaluate + ["--manifest", str(manifest), "--taxonomy", str(taxonomy)],
        # a feature width the encoder does not take is refused before any clip is featurized
        "predict_other_n_mels": ["predict", "--checkpoint", str(checkpoint), "--wav", wav, "--config", str(mels)],
        "evaluate_other_n_mels": ["evaluate", "--checkpoint", str(checkpoint), "--config", str(mels),
                                  "--manifest", str(manifest), "--taxonomy", str(full_taxonomy),
                                  "--out", str(tmp_path / "eval")],
        "train_other_n_mels": split + ["--config", str(mels)],
        "predict_zero_d_att": ["predict", "--checkpoint", str(tmp_path / "zero_att.lidk"), "--wav", wav,
                               "--config", str(tiny_config)],
        # each used to exit 0 and silently ignore the second way of naming the inputs
        "predict_wav_and_manifest": ["predict", "--checkpoint", str(checkpoint), "--wav", wav,
                                     "--manifest", str(manifest), "--config", str(tiny_config)],
        "train_split_and_pair": split + ["--config", str(tiny_config), "--train-manifest", str(manifest),
                                         "--val-manifest", str(manifest)],
        "checkpoint_without_labels": ["predict", "--checkpoint", corrupt, "--wav", wav,
                                      "--config", str(tiny_config)],
        # it used to load, and predict exited 0 with a posterior that summed to less than 1
        "repeated_labels": ["predict", "--checkpoint", repeated, "--wav", wav, "--config", str(tiny_config)],
        # names that build_model does not make used to load and end predict in a KeyError
        "renamed_tensor": ["predict", "--checkpoint", renamed, "--wav", wav, "--config", str(tiny_config)],
        "featurize_nul_path": ["featurize", "--manifest", str(nul_manifest)],
        # a negative fraction would train on a slice counted from the end
        "negative_split": ["train", "--manifest", str(manifest), "--split", "-0.5", "--out", str(tmp_path / "o")],
        # np.random.default_rng raises ValueError on a negative seed
        "train_negative_seed": split + ["--seed", "-1"],
        "config_negative_seed": split + ["--config", str(negative_seed)],
        # a negative patience used to stop training after the first epoch, and exit 0
        "config_negative_patience": split + ["--config", str(negative_patience)],
        "config_zero_total_steps": split + ["--config", str(zero_total_steps)],
        **{f"config_{name}": split + ["--config", str(tmp_path / f"{name}.json")] for name in huge},
        "gradcheck_negative_seed": ["gradcheck", "--seed", "-1"],
        # an empty manifest leaves nothing to predict
        "predict_empty_manifest": ["predict", "--checkpoint", str(checkpoint), "--manifest", str(empty_manifest),
                                   "--config", str(tiny_config)],
    }


class TestErrors:
    @pytest.mark.parametrize("case", [
        "train_missing_manifest", "evaluate_missing_manifest", "featurize_missing_manifest",
        "missing_taxonomy", "taxonomy_without_trained_label", "predict_other_n_mels",
        "checkpoint_without_labels", "negative_split", "renamed_tensor", "featurize_nul_path",
        "train_negative_seed", "config_negative_seed", "gradcheck_negative_seed", "predict_empty_manifest",
        "config_negative_patience", "config_zero_total_steps", "config_huge_channels", "config_huge_kernel",
        "config_huge_d_att", "config_huge_n_mels", "evaluate_other_n_mels", "train_other_n_mels",
        "predict_zero_d_att", "predict_wav_and_manifest", "train_split_and_pair", "repeated_labels",
    ])
    def test_exits_2_with_one_error_line(self, case, tmp_path, corpus_dir, trained_dir, tiny_config, capsys):
        argv = _error_argvs(tmp_path, corpus_dir, trained_dir, tiny_config)[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["train_other_n_mels", "evaluate_other_n_mels", "predict_other_n_mels"])
    def test_feature_width_refused_before_featurizing(self, case, monkeypatch, tmp_path, corpus_dir, trained_dir,
                                                      tiny_config, capsys):
        argv = _error_argvs(tmp_path, corpus_dir, trained_dir, tiny_config)[case]
        monkeypatch.setattr(lidkit.cli, "featurize_records", lambda *args: pytest.fail("featurized"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "features.n_mels is 32" in err and "input_dim 40" in err
