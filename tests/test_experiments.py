import inspect
import json
import re

import numpy as np
import pytest
from counting import count_symmetry_checks

from pgcn.crossval import Arm
from pgcn.data import Dataset, synth_generate
from pgcn.errors import ConfigError, DataError, ParameterError
from pgcn.experiments import (
    ExperimentConfig,
    build_arm_graphs,
    load_experiment_config,
    load_graph_config,
    load_train_config,
    rank_report,
    render_rank_report,
    run_experiment,
)
from pgcn.graphs import DEFAULT_METRIC, MetaColumn, build_graph, random_graph, save_edge_list, similarity_matrix
from pgcn.linalg import SparseSymMatrix
from pgcn.training import TrainConfig


@pytest.fixture(scope="module")
def dataset():
    data, _, _ = synth_generate(60, 6, seed=21, informative_strength=2.0, noise=1.0)
    return data


def small_train(**kw):
    defaults = dict(max_epochs=25, omega_warmup_epochs=8, seed=4, hidden_width=8)
    defaults.update(kw)
    return TrainConfig(**defaults)


def build_one(dataset, sources, **config_kw):
    """The built graphs of a one-arm experiment over ``sources``."""
    config = ExperimentConfig(arms=(Arm("arm", sources),), train=small_train(), **config_kw)
    (arm,) = build_arm_graphs(dataset, config)
    return arm.graphs


class TestSpecValidation:
    def test_needs_sources(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(arms=(Arm("empty", ()),))

    def test_duplicate_arm_names(self):
        arms = (Arm("a", ("informative",)), Arm("a", ("nuisance",)))
        with pytest.raises(ConfigError):
            ExperimentConfig(arms=arms)

    def test_non_string_source_rejected(self, dataset):
        (graph,) = build_one(dataset, ("informative",))
        with pytest.raises(ConfigError):
            ExperimentConfig(arms=(Arm("built", (graph,)),))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("repeats", 1, "need at least 2 repeats, got 1"),
            ("val_fraction", 1.5, r"validation fraction must lie in \(0, 1\), got 1.5"),
            ("val_fraction", 0.0, r"validation fraction must lie in \(0, 1\), got 0.0"),
        ],
    )
    def test_split_policy_checked_on_construction(self, field, value, message):
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(arms=(Arm("a", ("informative",)),), **{field: value})


class TestBuildArmGraphs:
    def test_metadata_sources_resolve_in_order(self, dataset):
        graphs = build_one(dataset, ("informative", "nuisance"))
        assert [g.source for g in graphs] == ["informative", "nuisance"]
        assert all(g.n == dataset.n_subjects for g in graphs)

    def test_unknown_source_rejected(self, dataset):
        with pytest.raises(ConfigError) as exc:
            build_one(dataset, ("age",))
        assert "age" in str(exc.value)

    def test_random_matches_first_real_density(self, dataset):
        graphs = build_one(dataset, ("informative", "random"))
        reference = graphs[0].density
        pairs = dataset.n_subjects * (dataset.n_subjects - 1) / 2
        sigma = np.sqrt(pairs * reference * (1 - reference)) / pairs
        assert graphs[1].source == "random"
        assert abs(graphs[1].density - reference) <= 4 * sigma

    def test_all_random_uses_default_density(self, dataset):
        (graph,) = build_one(dataset, ("random",))
        assert graph.density == pytest.approx(0.1, abs=0.05)

    def test_graph_file_source(self, dataset, tmp_path):
        (graph,) = build_one(dataset, ("informative",))
        path = tmp_path / "saved_graph.txt"
        save_edge_list(graph, path)
        (loaded,) = build_one(dataset, (str(path),))
        np.testing.assert_array_equal(loaded.edges.toarray(), graph.edges.toarray())

    def test_graph_file_size_mismatch(self, dataset, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("n 3\n0 1 1\n")
        with pytest.raises(DataError):
            build_one(dataset, (str(path),))

    def test_beta_of_a_categorical_source_is_not_read(self, dataset):
        (with_beta,) = build_one(dataset, ("informative",), betas={"informative": -1.0})
        (without,) = build_one(dataset, ("informative",))
        np.testing.assert_array_equal(with_beta.weights.to_dense(), without.weights.to_dense())

    def test_continuous_beta_honored(self):
        base, _, _ = synth_generate(30, 4, seed=5)
        ages = np.linspace(20.0, 49.0, 30)
        data = Dataset(
            subject_ids=base.subject_ids,
            X=base.X,
            meta=list(base.meta) + [MetaColumn("age", "continuous", ages)],
            Y=base.Y,
            labeled_mask=base.labeled_mask,
        )
        (complete,) = build_one(data, ("age",), betas={"age": 100.0})
        assert complete.density == 1.0
        (chain,) = build_one(data, ("age",), betas={"age": 1.01})
        assert chain.edge_count == 29  # consecutive ages differ by exactly 1

    def test_each_source_built_once_and_shared(self, dataset, monkeypatch):
        import pgcn.experiments

        built = []
        original = pgcn.experiments.build_graph

        def counting(col, *args, **kwargs):
            built.append(col.name)
            return original(col, *args, **kwargs)

        monkeypatch.setattr(pgcn.experiments, "build_graph", counting)
        arms = (
            Arm("info", ("informative",)),
            Arm("both", ("informative", "nuisance")),
            Arm("nui", ("nuisance",)),
        )
        info, both, nui = build_arm_graphs(dataset, ExperimentConfig(arms=arms, train=small_train()))
        assert sorted(built) == ["informative", "nuisance"]
        assert info.graphs[0] is both.graphs[0]
        assert both.graphs[1] is nui.graphs[0]
        assert [a.name for a in (info, both, nui)] == ["info", "both", "nui"]

    def test_random_sources_keep_per_arm_seeds(self, dataset):
        arms = (
            Arm("control", ("informative", "random")),
            Arm("solo", ("informative",)),
            Arm("swapped", ("random", "nuisance")),
        )
        config = ExperimentConfig(arms=arms, train=small_train(seed=2**32 + 11))
        control, _, swapped = build_arm_graphs(dataset, config)
        for i, k, arm, reference in ((0, 1, control, control.graphs[0]), (2, 0, swapped, swapped.graphs[1])):
            seed = np.random.SeedSequence((2**32 + 11, 7919, i, k)).generate_state(1)[0]  # the whole seed
            expected = random_graph(dataset.n_subjects, reference.density, seed=int(seed))
            np.testing.assert_array_equal(arm.graphs[k].edges.toarray(), expected.edges.toarray())
            np.testing.assert_array_equal(arm.graphs[k].weights.to_dense(), expected.weights.to_dense())


class TestRunExperiment:
    def test_single_source_fixed_one_is_plain_baseline(self, dataset, tmp_path):
        arm = Arm("baseline_informative", ("informative",), fixed_omega=(1.0,))
        config = ExperimentConfig(arms=(arm,), train=small_train(), repeats=2)
        report = run_experiment(dataset, config, out_dir=tmp_path)
        result = report.arm("baseline_informative")
        assert len(result.accuracies) == 2
        history = report.histories[("baseline_informative", 0)]
        assert all(r.omega == (1.0,) for r in history.records)

    def test_writes_report_and_histories(self, dataset, tmp_path):
        arms = (
            Arm("trainable", ("informative", "nuisance")),
            Arm("fixed", ("informative", "nuisance"), fixed_omega=(0.5, 0.5)),
        )
        config = ExperimentConfig(arms=arms, train=small_train(), repeats=2)
        run_experiment(dataset, config, out_dir=tmp_path)
        report_text = (tmp_path / "report.txt").read_text()
        assert "arm trainable" in report_text
        assert "mean_acc" in report_text
        assert '"omega": "trainable"' in report_text  # config echoed for provenance
        for arm in ("trainable", "fixed"):
            for rep in range(2):
                assert (tmp_path / f"history_{arm}_rep{rep}.csv").exists()

    def test_built_graphs_are_not_checked_for_symmetry(self, dataset, tmp_path, monkeypatch):
        # every operator of a metadata graph, an edge-list file and a random graph is symmetric as built
        path = tmp_path / "nuisance.txt"
        save_edge_list(build_graph(dataset.column("nuisance"), dataset.X), path)
        checks = count_symmetry_checks(monkeypatch)
        arm = Arm("all", ("informative", str(path), "random"))
        run_experiment(dataset, ExperimentConfig(arms=(arm,), train=small_train(max_epochs=3), repeats=2))
        assert checks == []
        SparseSymMatrix.from_dense(np.eye(2))  # the check a caller's arrays still go through
        assert checks == [(2, 2)]

    def test_byte_identical_reports(self, dataset, tmp_path):
        arms = (Arm("solo", ("informative",)),)
        config = ExperimentConfig(arms=arms, train=small_train(), repeats=2)
        run_experiment(dataset, config, out_dir=tmp_path / "a")
        run_experiment(dataset, config, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "report.txt").read_bytes() == (tmp_path / "b" / "report.txt").read_bytes()


class TestConfigFile:
    def test_load_round_trip(self, tmp_path):
        payload = {
            "arms": [
                {"name": "trainable", "graph_sources": ["informative", "nuisance"]},
                {"name": "half", "graph_sources": ["informative", "nuisance"], "omega": [0.5, 0.5]},
            ],
            "train": {"max_epochs": 25, "seed": 9},
            "repeats": 4,
            "val_fraction": 0.2,
            "betas": {"age": 3.5},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        config = load_experiment_config(path)
        assert config.arms[0].fixed_omega is None
        assert config.arms[1].fixed_omega == (0.5, 0.5)
        assert config.train.max_epochs == 25
        assert config.train.seed == 9
        assert config.repeats == 4
        assert config.betas == {"age": 3.5}
        echoed = json.loads(config.to_json())
        assert echoed["arms"][1]["omega"] == [0.5, 0.5]

    def test_absent_split_policy_takes_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"arms": [{"name": "a", "graph_sources": ["informative"]}]}))
        assert load_experiment_config(path) == ExperimentConfig(arms=(Arm("a", ("informative",)),))

    def test_train_config_defaults_are_a_one_arm_experiment(self):
        config = load_train_config(None, ("informative", "nuisance"))
        assert config == ExperimentConfig(arms=(Arm("train", ("informative", "nuisance")),), train=TrainConfig(),
                                          betas={}, metric="pearson")

    def test_default_metric_has_one_home(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"arms": [{"name": "a", "graph_sources": ["informative"]}]}))
        defaults = {
            "ExperimentConfig": ExperimentConfig(arms=(Arm("a", ("informative",)),)).metric,
            "config file": load_experiment_config(path).metric,
            "graph config": load_graph_config(None)[1],
            "build_graph": inspect.signature(build_graph).parameters["metric"].default,
            "similarity_matrix": inspect.signature(similarity_matrix).parameters["metric"].default,
        }
        assert defaults == dict.fromkeys(defaults, DEFAULT_METRIC)

    def test_train_config_file(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({"train": {"max_epochs": 7}, "betas": {"age": 3.0}, "metric": "cosine",
                                    "omega": [0.25, 0.75]}))
        config = load_train_config(path, ("informative", "nuisance"))
        assert config.arms == (Arm("train", ("informative", "nuisance"), fixed_omega=(0.25, 0.75)),)
        assert config.train == TrainConfig(max_epochs=7)
        assert (config.betas, config.metric) == ({"age": 3.0}, "cosine")
        with pytest.raises(ConfigError, match="2 fixed weights for 1 graphs"):
            load_train_config(path, ("informative",))

    def test_bad_configs_rejected(self, tmp_path):
        cases = [
            "[]",
            '{"arms": []}',
            '{"arms": [{"name": "a"}]}',
            '{"arms": [{"name": "a", "graph_sources": ["x"], "omega": "zzz"}]}',
            '{"arms": [{"name": "a", "graph_sources": ["x"]}], "mystery": 1}',
            '{"arms": [{"name": "a", "graph_sources": ["x"]}], "train": {"nope": 1}}',
        ]
        for i, text in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_experiment_config(path)


    @pytest.mark.parametrize("metric", ["bogus", ["cosine"], 1, None])
    @pytest.mark.parametrize("loader", ["experiment", "train", "graph"])
    def test_unknown_or_non_string_metric_names_the_file(self, tmp_path, loader, metric):
        path = tmp_path / f"{loader}.json"
        payload = {"metric": metric}
        if loader == "experiment":
            payload["arms"] = [{"name": "a", "graph_sources": ["random"]}]
        path.write_text(json.dumps(payload))
        load = {
            "experiment": load_experiment_config,
            "train": lambda p: load_train_config(p, ("random",)),
            "graph": load_graph_config,
        }[loader]
        message = f"{path}: 'metric' must be one of 'pearson', 'cosine', got {metric!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load(path)


class TestRankReport:
    def make_histories(self, dataset, tmp_path):
        arms = (
            Arm("trainable", ("informative", "nuisance")),
            Arm("frozen", ("informative", "nuisance"), fixed_omega=(0.5, 0.5)),
            Arm("solo", ("informative",), fixed_omega=(1.0,)),
        )
        config = ExperimentConfig(
            arms=arms, train=small_train(max_epochs=30, l2_lambda=2e-2), repeats=2
        )
        run_experiment(dataset, config, out_dir=tmp_path)
        return tmp_path

    def test_summaries(self, dataset, tmp_path):
        out = self.make_histories(dataset, tmp_path)
        solo = rank_report([out / "history_solo_rep0.csv"])[0]
        assert solo.order == (0,)
        assert solo.fixed

        frozen = rank_report([out / "history_frozen_rep0.csv"])[0]
        assert frozen.fixed
        assert frozen.final_omega == (0.5, 0.5)

        trainable = rank_report([out / "history_trainable_rep0.csv"])[0]
        assert not trainable.fixed
        assert trainable.order[0] == 0  # informative graph ranked first

        text = render_rank_report([solo, frozen, trainable])
        assert "mode = fixed" in text and "mode = trainable" in text

    def test_needs_input(self):
        with pytest.raises(ParameterError):
            rank_report([])

    def test_malformed_history(self, tmp_path):
        bad = tmp_path / "broken.csv"
        bad.write_text("epoch,train_loss\n1,2\n")
        with pytest.raises(DataError):
            rank_report([bad])
