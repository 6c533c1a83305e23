import numpy as np
import pytest

from lidkit.evaluation import (
    ConfusionMatrix,
    EvaluationError,
    Taxonomy,
    confusion,
    load_taxonomy,
    rollup,
    top1_accuracy,
)


@pytest.fixture
def tax23(taxonomy_23_path):
    return load_taxonomy(taxonomy_23_path)


class TestTaxonomy:
    def test_fixture_cardinalities(self, tax23):
        assert len(tax23.languages) == 23
        assert len(tax23.genera) == 4
        assert len(tax23.families) == 2

    def test_voxforge_fixture(self, taxonomy_voxforge_path):
        tax = load_taxonomy(taxonomy_voxforge_path)
        assert len(tax.languages) == 6
        assert tax.families == ["indo-european"]

    def test_strict_tree_enforced(self):
        with pytest.raises(EvaluationError, match="multiple families"):
            Taxonomy(entries={"a": ("g", "f1"), "b": ("g", "f2")})

    def test_unknown_language_rejected(self, tax23):
        with pytest.raises(EvaluationError):
            tax23.genus_of("klingon")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("just-one-field\n")
        with pytest.raises(EvaluationError, match="3 tab-separated"):
            load_taxonomy(path)

    def test_duplicate_language_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\tg\tf\na\tg\tf\n")
        with pytest.raises(EvaluationError, match="duplicate"):
            load_taxonomy(path)


class TestTop1:
    def test_all_correct(self):
        assert top1_accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_constant_predictor_balanced_23(self, tax23):
        langs = tax23.languages
        labels = langs * 3
        preds = [langs[0]] * len(labels)
        assert top1_accuracy(preds, labels) == pytest.approx(1 / 23)

    def test_oracle_predictor(self, tax23):
        labels = tax23.languages * 4
        assert top1_accuracy(list(labels), labels) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            top1_accuracy(["a"], ["a", "b"])


class TestRollup:
    def test_tree_functoriality(self, tax23):
        lang = tax23.languages[5]
        assert rollup([lang], tax23, "genus") == [tax23.genus_of(lang)]
        assert rollup([lang], tax23, "family") == [tax23.family_of(lang)]

    def test_identity_taxonomy(self):
        tax = Taxonomy(entries={f"l{i}": (f"l{i}", "root") for i in range(4)})
        preds = ["l0", "l3", "l1"]
        assert rollup(preds, tax, "genus") == preds

    def test_unknown_prediction_rejected(self, tax23):
        with pytest.raises(EvaluationError):
            rollup(["nope"], tax23, "genus")

    def test_unknown_level_rejected(self, tax23):
        with pytest.raises(EvaluationError):
            rollup(["krl"], tax23, "species")

    def test_monotonicity_random_draws(self, tax23):
        rng = np.random.default_rng(0)
        langs = tax23.languages
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            labels = [langs[i] for i in rng.integers(0, 23, n)]
            preds = [langs[i] for i in rng.integers(0, 23, n)]
            acc_l = top1_accuracy(preds, labels)
            acc_g = top1_accuracy(rollup(preds, tax23, "genus"), rollup(labels, tax23, "genus"))
            acc_f = top1_accuracy(rollup(preds, tax23, "family"), rollup(labels, tax23, "family"))
            assert acc_f >= acc_g >= acc_l


class TestConfusion:
    def test_all_known_gives_empty_unknown(self):
        known, unknown = confusion(["a", "b"], ["a", "a"], ["a", "b"])
        assert unknown.total == 0
        assert known.total == 2

    def test_partition_invariant(self):
        rng = np.random.default_rng(1)
        known_set = ["a", "b", "c"]
        all_true = ["a", "b", "c", "x", "y"]
        n = 200
        preds = [known_set[i] for i in rng.integers(0, 3, n)]
        labels = [all_true[i] for i in rng.integers(0, 5, n)]
        km, um = confusion(preds, labels, known_set)
        assert km.total + um.total == n

    def test_prediction_outside_known_rejected(self):
        with pytest.raises(EvaluationError):
            confusion(["z"], ["a"], ["a", "b"])

    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(2)
        known_set = ["a", "b", "c"]
        preds = [known_set[i] for i in rng.integers(0, 3, 100)]
        labels = [known_set[i] for i in rng.integers(0, 3, 100)]
        km, _ = confusion(preds, labels, known_set)
        assert km.accuracy() == pytest.approx(top1_accuracy(preds, labels))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        known_set = ["a", "b"]
        preds = [known_set[i] for i in rng.integers(0, 2, 50)]
        labels = [known_set[i] for i in rng.integers(0, 2, 50)]
        km1, _ = confusion(preds, labels, known_set)
        order = rng.permutation(50)
        km2, _ = confusion([preds[i] for i in order], [labels[i] for i in order], known_set)
        assert np.array_equal(km1.counts, km2.counts)

    def test_row_sums_are_per_label_counts(self):
        km, _ = confusion(["a", "b", "a"], ["a", "a", "b"], ["a", "b"])
        assert km.counts[km.true_labels.index("a")].sum() == 2
        assert km.counts[km.true_labels.index("b")].sum() == 1

    def test_csv_formats(self):
        km, um = confusion(["a", "b"], ["a", "x"], ["a", "b"])
        csv = km.to_csv()
        assert csv.splitlines()[0] == "true\\pred,a,b"
        pct = km.to_csv(normalized=True)
        assert "100.00" in pct
        assert um.to_csv().splitlines()[1].startswith("x,")

    def test_shared_predicted_axis(self):
        km, um = confusion(["a"], ["x"], ["a", "b"])
        assert km.pred_labels == um.pred_labels == ["a", "b"]
