import numpy as np
import pytest

from pgcn.data import Dataset, load_dataset, synth_generate, write_dataset
from pgcn.errors import ConfigError, DataError, ParameterError
from pgcn.graphs import MetaColumn


class TestSynthGenerate:
    def test_informative_agreement_near_ninety_percent(self):
        n = 400
        dataset, informative, _ = synth_generate(n, 5, seed=0)
        labels = dataset.labels()
        agree = np.mean((informative.values == "B") == (labels == 1))
        sigma = np.sqrt(0.9 * 0.1 / n)
        assert abs(agree - 0.9) <= 3 * sigma

    def test_nuisance_agreement_near_half(self):
        n = 400
        dataset, _, nuisance = synth_generate(n, 5, seed=1)
        labels = dataset.labels()
        agree = np.mean((nuisance.values == "V") == (labels == 1))
        sigma = np.sqrt(0.25 / n)
        assert abs(agree - 0.5) <= 3 * sigma

    def test_zero_strength_removes_signal(self):
        dataset, _, _ = synth_generate(200, 6, seed=2, informative_strength=0.0, noise=1.0)
        labels = dataset.labels()
        gap = np.linalg.norm(dataset.X[labels == 0].mean(axis=0) - dataset.X[labels == 1].mean(axis=0))
        # class means agree within sampling noise: ~ noise * sqrt(2 d / n) * 3
        assert gap <= 3 * np.sqrt(2 * 6 / 100)

    def test_strength_separates_class_means(self):
        dataset, _, _ = synth_generate(200, 6, seed=3, informative_strength=2.0, noise=0.5)
        labels = dataset.labels()
        gap = np.linalg.norm(dataset.X[labels == 0].mean(axis=0) - dataset.X[labels == 1].mean(axis=0))
        assert gap == pytest.approx(2.0, abs=0.5)

    def test_deterministic_and_seed_sensitive(self):
        a, _, _ = synth_generate(40, 4, seed=7)
        b, _, _ = synth_generate(40, 4, seed=7)
        c, _, _ = synth_generate(40, 4, seed=8)
        np.testing.assert_array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            synth_generate(19, 4, seed=0)
        with pytest.raises(ParameterError):
            synth_generate(21, 4, seed=0)
        with pytest.raises(ParameterError):
            synth_generate(40, 4, seed=0, informative_strength=-1.0)
        with pytest.raises(ParameterError):
            synth_generate(40, 4, seed=0, noise=-0.1)


class TestDatasetContainer:
    def test_one_hot_enforced(self):
        with pytest.raises(DataError):
            Dataset(
                subject_ids=["a", "b"],
                X=np.zeros((2, 2)),
                meta=[],
                Y=np.array([[0.5, 0.5], [1.0, 0.0]]),
                labeled_mask=[True, True],
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            Dataset(
                subject_ids=["a", "a"],
                X=np.zeros((2, 2)),
                meta=[],
                Y=np.eye(2),
                labeled_mask=[True, True],
            )

    def test_column_lookup(self):
        dataset, informative, _ = synth_generate(20, 3, seed=0)
        assert dataset.column("informative") is informative
        with pytest.raises(ConfigError):
            dataset.column("age")


class TestRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        dataset, _, _ = synth_generate(30, 4, seed=5)
        paths = write_dataset(dataset, tmp_path)
        loaded = load_dataset(*paths)
        assert loaded.subject_ids == dataset.subject_ids
        np.testing.assert_array_equal(loaded.X, dataset.X)
        np.testing.assert_array_equal(loaded.Y, dataset.Y)
        np.testing.assert_array_equal(loaded.labeled_mask, dataset.labeled_mask)
        for a, b in zip(loaded.meta, dataset.meta):
            assert a.name == b.name
            assert a.kind == b.kind
            np.testing.assert_array_equal(a.values, b.values)

    def test_continuous_column_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ages = rng.uniform(20, 80, size=20)
        dataset, _, _ = synth_generate(20, 3, seed=6)
        with_age = Dataset(
            subject_ids=dataset.subject_ids,
            X=dataset.X,
            meta=dataset.meta + [MetaColumn("age", "continuous", ages)],
            Y=dataset.Y,
            labeled_mask=dataset.labeled_mask,
        )
        loaded = load_dataset(*write_dataset(with_age, tmp_path))
        np.testing.assert_array_equal(loaded.column("age").values, ages)


class TestLoadDataset:
    def write(self, tmp_path, features, meta, labels):
        f, m, l = tmp_path / "x.csv", tmp_path / "m.csv", tmp_path / "y.csv"
        f.write_text(features)
        m.write_text(meta)
        l.write_text(labels)
        return str(f), str(m), str(l)

    def test_join_semantics_and_unlabeled(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1.0,2.0\n3.0,4.0\n5.0,6.0\n",
            "subject_id,gender:categorical\na,M\nb,F\nc,M\n",
            "subject_id,label\na,0\nb,1\n",
        )
        dataset = load_dataset(*paths)
        np.testing.assert_array_equal(dataset.labeled_mask, [True, True, False])
        assert dataset.n_classes == 2
        np.testing.assert_array_equal(dataset.Y[2], [1.0, 0.0])  # placeholder row

    def test_header_detection_on_features(self, tmp_path):
        paths = self.write(
            tmp_path,
            "f0,f1\n1.0,2.0\n3.0,4.0\n",
            "subject_id,gender:categorical\na,M\nb,F\n",
            "subject_id,label\na,0\nb,1\n",
        )
        dataset = load_dataset(*paths)
        assert dataset.X.shape == (2, 2)

    def test_duplicate_subject_rejected(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1.0\n2.0\n",
            "subject_id,g:categorical\na,M\na,F\n",
            "subject_id,label\na,0\n",
        )
        with pytest.raises(DataError) as exc:
            load_dataset(*paths)
        assert "duplicate" in str(exc.value)

    def test_unparseable_numeric_names_row_and_column(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1.0,2.0\n3.0,oops\n",
            "subject_id,g:categorical\na,M\nb,F\n",
            "subject_id,label\na,0\nb,1\n",
        )
        with pytest.raises(DataError) as exc:
            load_dataset(*paths)
        assert ":2" in str(exc.value) and "column 2" in str(exc.value)

    def test_row_whose_sum_of_squares_overflows_names_its_line(self, tmp_path):
        meta, labels = "subject_id,g:categorical\na,M\nb,F\n", "subject_id,label\na,0\nb,1\n"
        paths = self.write(tmp_path, "f0,f1\n1.0,1e154\n3.0,4.0\n", meta, labels)
        assert load_dataset(*paths).X[0, 1] == 1e154  # its square, 1e308, is below the float64 maximum
        for features, line in (("1.0,2.0\n1e200,4.0\n", 2), ("f0,f1\n1e154,1e154\n3.0,4.0\n", 2),
                               ("1.0,2.0\n3.0,1e400\n", 2)):
            paths = self.write(tmp_path, features, meta, labels)
            with pytest.raises(DataError, match=rf"x.csv:{line}: feature values too large"):
                load_dataset(*paths)

    def test_join_mismatch_rejected(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1.0\n2.0\n3.0\n",
            "subject_id,g:categorical\na,M\nb,F\n",
            "subject_id,label\na,0\nb,1\n",
        )
        with pytest.raises(DataError) as exc:
            load_dataset(*paths)
        assert "mismatch" in str(exc.value)

    def test_label_for_unknown_subject_rejected(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1.0\n2.0\n",
            "subject_id,g:categorical\na,M\nb,F\n",
            "subject_id,label\nzz,0\na,1\n",
        )
        with pytest.raises(DataError):
            load_dataset(*paths)

    def test_single_class_rejected(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1.0\n2.0\n",
            "subject_id,g:categorical\na,M\nb,F\n",
            "subject_id,label\na,0\nb,0\n",
        )
        with pytest.raises(DataError):
            load_dataset(*paths)

    def test_bad_kind_declaration_rejected(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1.0\n2.0\n",
            "subject_id,g:ordinal\na,M\nb,F\n",
            "subject_id,label\na,0\nb,1\n",
        )
        with pytest.raises(DataError):
            load_dataset(*paths)

    @pytest.mark.parametrize(
        "target, text, message",
        [
            ("features", "f0,f1\n\n1,2\nx,3\n", "4: column 1: unparseable number 'x'"),
            ("features", "1,2\n\n \n3\n", "4: expected 2 columns, got 1"),
            ("features", "f0,f1\r\n\r\n1,2\r\n3,y\r\n", "4: column 2: unparseable number 'y'"),
            ("meta", "subject_id,age:continuous\n\na,1\nb,x\n", "4: column 'age': unparseable number 'x'"),
            ("meta", "subject_id,g:categorical\n\na,M\nb\n", "4: expected 2 cells"),
            ("meta", "subject_id,g:categorical\n\na,M\na,F\n", "4: duplicate subject_id 'a'"),
            ("labels", "subject_id,label\n\na,0\nb,x\n", "4: unparseable class index 'x'"),
            ("labels", "subject_id,label\n\na,0\nb,-1\n", "4: class index must be >= 0, got -1"),
            ("labels", "subject_id,label\n\na,0\nb,2\n", "4: class index must be < 2, the subject count, got 2"),
            ("labels", "subject_id,label\n\na,0\na,1\n", "4: duplicate label for 'a'"),
            ("labels", "subject_id,label\n\na,0\nb\n", "4: expected 'subject_id,label'"),
        ],
        ids=["features-number", "features-width", "features-crlf", "meta-number", "meta-cells", "meta-duplicate",
             "labels-class", "labels-negative", "labels-beyond-subjects", "labels-duplicate", "labels-cells"],
    )
    def test_fault_after_blank_line_names_file_line(self, tmp_path, target, text, message):
        files = {
            "features": "1.0,2.0\n3.0,4.0\n",
            "meta": "subject_id,g:categorical\na,M\nb,F\n",
            "labels": "subject_id,label\na,0\nb,1\n",
        }
        files[target] = text
        paths = self.write(tmp_path, files["features"], files["meta"], files["labels"])
        path = paths[["features", "meta", "labels"].index(target)]
        with pytest.raises(DataError) as exc:
            load_dataset(*paths)
        assert str(exc.value) == f"{path}:{message}"

    def test_labels_match_a_per_subject_build(self, tmp_path):
        paths = self.write(
            tmp_path,
            "1\n2\n3\n4\n5\n",
            "subject_id,g:categorical\na,M\nb,F\nc,M\nd,F\ne,M\n",
            "subject_id,label\nd,2\nb,0\na,2\n",
        )
        dataset = load_dataset(*paths)
        labels = {"a": 2, "b": 0, "d": 2}
        y = np.zeros((5, 3))
        for i, subject in enumerate("abcde"):
            y[i, labels.get(subject, 0)] = 1.0
        assert dataset.Y.dtype == np.float64 and dataset.Y.tobytes() == y.tobytes()
        np.testing.assert_array_equal(dataset.labeled_mask, [True, True, False, True, False])
