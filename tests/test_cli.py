import json

import numpy as np
import pytest

from lidkit.cli import build_report, load_manifest, main, split_manifest
from lidkit.diagnostics import ALL_CHECKS
from lidkit.evaluation import load_taxonomy
from lidkit.synthetic import make_corpus, write_corpus_wavs
from tests.conftest import DATA_DIR


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
        assert main(["featurize", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2

    def test_two_clip_manifest(self, tmp_path, corpus_dir):
        _, _, records = corpus_dir
        manifest = tmp_path / "two.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in records[:2]) + "\n")
        out = tmp_path / "feats"
        assert main(["featurize", "--manifest", str(manifest), "--out", str(out)]) == 0
        summary = json.loads((out / "featurize_summary.json").read_text())
        assert summary["count"] == 2

    def test_unreadable_path_partial_failure(self, tmp_path, corpus_dir):
        _, _, records = corpus_dir
        manifest = tmp_path / "mixed.jsonl"
        rows = [records[0], {"audio_filepath": str(tmp_path / "missing.wav"), "label": "x"}]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "feats"
        assert main(["featurize", "--manifest", str(manifest), "--out", str(out)]) == 3
        assert main(["featurize", "--manifest", str(manifest), "--out", str(out),
                     "--allow-partial"]) == 0
        summary = json.loads((out / "featurize_summary.json").read_text())
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

    def test_oracle_predictions_give_100_percent(self, tmp_path, taxonomy_23_path):
        tax = load_taxonomy(taxonomy_23_path)
        labels = tax.languages * 2
        report = build_report(list(labels), labels, tax, tax.languages)
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

    def test_silence_wav(self, tmp_path, trained_dir, tiny_config, capsys):
        from lidkit.audio import encode_wav

        wav = tmp_path / "silence.wav"
        wav.write_bytes(encode_wav(np.zeros(16000, dtype=np.float32), 16000))
        rc = main(["predict", "--checkpoint", str(trained_dir / "checkpoint.lidk"),
                   "--wav", str(wav), "--config", str(tiny_config)])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["label"] in {"band0", "band1", "band2"}
        assert abs(sum(rec["posterior"].values()) - 1.0) <= 1e-5


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

    def test_corrupted_backward_nonzero_exit(self, capsys):
        assert main(["gradcheck", "--seed", "1", "--corrupt"]) == 1
        assert "FAIL" in capsys.readouterr().out


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
    ], ids=["missing_file", "bad_json", "not_an_object", "unknown_key", "lr_order", "even_kernel",
            "zero_mels", "negative_mask_count", "unknown_section", "zero_d_att", "negative_d_att",
            "float_d_att", "string_seed", "float_epochs", "string_patience", "float_channels",
            "float_sub_blocks"])
    def test_bad_config_exits_2_with_message(self, tmp_path, corpus_dir, text, capsys):
        _, manifest, _ = corpus_dir
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        rc = main(["train", "--config", str(config), "--manifest", str(manifest),
                   "--split", "0.75", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: run config ")


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
