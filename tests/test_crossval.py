import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from counting import count_spmm_calls, force_run_threads, planned_graphs
from oracles import brute_force_macro_auc

import pgcn.crossval
import pgcn.errors
from pgcn.crossval import Arm, cross_validate, derive_seed
from pgcn.data import Dataset, synth_generate
from pgcn.errors import ConfigError, DegenerateInputError, ParameterError
from pgcn.graphs import MetaColumn, build_graph
from pgcn.training import TrainConfig, split_masks, train


@pytest.fixture(scope="module")
def setup():
    dataset, informative, nuisance = synth_generate(
        80, 8, seed=11, informative_strength=2.0, noise=1.0
    )
    g_info = build_graph(informative, dataset.X)
    g_nui = build_graph(nuisance, dataset.X)
    return dataset, g_info, g_nui


def quick_config(**kw):
    defaults = dict(max_epochs=30, omega_warmup_epochs=10, seed=19, hidden_width=8)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestArm:
    # an arm holds source strings inside an ExperimentConfig and built graphs after the build
    @pytest.mark.parametrize("kind", ["sources", "graphs"])
    def test_fixed_omega_length_checked(self, setup, kind):
        _, g_info, g_nui = setup
        if kind == "sources":
            graphs, fixed = ("informative",), (0.5, 0.5)
        else:
            graphs, fixed = (g_info, g_nui), (1.0,)
        with pytest.raises(ConfigError):
            Arm("bad", graphs, fixed_omega=fixed)

    def test_needs_graphs(self):
        with pytest.raises(ConfigError):
            Arm("empty", ())


class TestCrossValidate:
    def test_identical_arms_raise_degenerate(self, setup):
        dataset, g_info, _ = setup
        arms = [Arm("a", (g_info,)), Arm("b", (g_info,))]
        with pytest.raises(DegenerateInputError):
            cross_validate(dataset, arms, quick_config(), repeats=3)

    @pytest.mark.parametrize("accuracies, kind", [
        ([0.9, 0.8, 0.85, 0.75], "the same nonzero accuracy difference"),
        ([0.9, 0.8, 0.9, 0.8], "identical accuracies"),
    ])
    def test_degenerate_comparison_says_why(self, setup, monkeypatch, accuracies, kind):
        dataset, g_info, g_nui = setup
        scores = iter(accuracies)  # arm a's two repeats, then arm b's
        monkeypatch.setattr(pgcn.crossval, "accuracy", lambda probs, y, mask: next(scores))
        arms = [Arm("a", (g_info,)), Arm("b", (g_nui,))]
        report = cross_validate(dataset, arms, quick_config(max_epochs=2), repeats=2)
        comp = report.comparison("a", "b")
        assert comp.degenerate and np.isnan(comp.t) and np.isnan(comp.p)
        expected = f"compare a vs b\n  t = nan\n  p = nan\n  degenerate = true ({kind} in every repeat)\n"
        assert report.render().endswith(expected)

    def test_aggregates_recomputable(self, setup):
        dataset, g_info, g_nui = setup
        arms = [Arm("info", (g_info,)), Arm("nui", (g_nui,))]
        report = cross_validate(dataset, arms, quick_config(), repeats=4)
        for result in report.arms:
            assert result.mean_acc == pytest.approx(np.mean(result.accuracies), abs=1e-12)
            assert result.std_acc == pytest.approx(np.std(result.accuracies, ddof=1), abs=1e-12)
            assert result.mean_auc == pytest.approx(np.mean(result.aucs), abs=1e-12)

    def test_informative_beats_nuisance(self, setup):
        dataset, g_info, g_nui = setup
        arms = [Arm("info", (g_info,), fixed_omega=(1.0,)), Arm("nui", (g_nui,), fixed_omega=(1.0,))]
        report = cross_validate(dataset, arms, quick_config(), repeats=5)
        assert report.arm("info").mean_acc > report.arm("nui").mean_acc
        comp = report.comparison("info", "nui")
        assert comp.t > 0

    def test_histories_recorded_per_arm_and_repeat(self, setup):
        dataset, g_info, g_nui = setup
        arms = [Arm("info", (g_info,)), Arm("nui", (g_nui,))]
        report = cross_validate(dataset, arms, quick_config(), repeats=3)
        assert set(report.histories) == {(n, r) for n in ("info", "nui") for r in range(3)}

    def test_deterministic_report(self, setup):
        dataset, g_info, g_nui = setup
        arms = [Arm("info", (g_info,)), Arm("nui", (g_nui,))]
        a = cross_validate(dataset, arms, quick_config(), repeats=3)
        b = cross_validate(dataset, arms, quick_config(), repeats=3)
        assert a.render() == b.render()

    def test_repeats_minimum(self, setup):
        dataset, g_info, _ = setup
        with pytest.raises(ParameterError):
            cross_validate(dataset, [Arm("a", (g_info,))], quick_config(), repeats=1)

    def test_split_without_a_class_fails_before_any_run_trains(self, setup, monkeypatch):
        dataset, g_info, _ = setup
        labeled = dataset.labeled_mask.copy()
        labeled[np.flatnonzero(dataset.labels() == 1)[3:]] = False  # class 1 keeps 3 labeled subjects
        sparse = Dataset(dataset.subject_ids, dataset.X, dataset.meta, dataset.Y, labeled)
        calls = []
        monkeypatch.setattr(pgcn.crossval, "train", lambda *args: calls.append(args))
        message = "class 1 has 3 labeled subjects, and val_fraction 0.1 puts none of them in a validation set"
        with pytest.raises(ParameterError, match=message):
            cross_validate(sparse, [Arm("a", (g_info,))], quick_config(), repeats=3, val_fraction=0.1)
        assert calls == []

    def test_repeats_beyond_physical_memory_fail_before_any_split(self, setup, monkeypatch):
        dataset, g_info, g_nui = setup
        arms = [Arm("one", (g_info,)), Arm("two", (g_info, g_nui))]
        n, repeats = dataset.n_subjects, 4
        # per repeat: two masks, the fixed part, and per arm best_probs and 30 records of 1 or 2 ranking weights
        needed = repeats * (2 * n + 1024 + 2 * 8 * n * 2 + 30 * (288 + 32) + 30 * (288 + 64))
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: needed)
        assert cross_validate(dataset, arms, quick_config(), repeats=repeats).repeats == repeats
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: needed - 1)
        monkeypatch.setattr(pgcn.crossval, "split_masks", None)  # drawing a split would raise TypeError
        with pytest.raises(ParameterError, match=rf"^4 repeats of 2 arms over n={n} need {needed} bytes"):
            cross_validate(dataset, arms, quick_config(), repeats=repeats)

    def test_duplicate_names_rejected(self, setup):
        dataset, g_info, g_nui = setup
        arms = [Arm("same", (g_info,)), Arm("same", (g_nui,))]
        with pytest.raises(ConfigError):
            cross_validate(dataset, arms, quick_config(), repeats=2)


def three_class_study(n=90, seed=3):
    """Three balanced classes with class means drawn from N(0, 0.6^2), and a column naming the label 9 times in 10."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1, 2], n // 3)
    x = rng.normal(0.0, 0.6, size=(3, 6))[labels] + rng.standard_normal((n, 6))
    codes = np.where(rng.random(n) < 0.9, labels, (labels + 1) % 3).astype(str)
    tag = MetaColumn("tag", "categorical", codes)
    dataset = Dataset([f"s{i}" for i in range(n)], x, [tag], np.eye(3)[labels], np.ones(n, dtype=bool))
    return dataset, build_graph(tag, x)


class TestMultiClass:
    def test_auc_is_the_macro_one_vs_rest_mean(self):
        dataset, graph = three_class_study()
        config = quick_config()
        report = cross_validate(dataset, [Arm("tag", (graph,))], config, repeats=3, val_fraction=0.2)
        aucs = report.arm("tag").aucs
        for r in range(3):
            _, val_mask = split_masks(dataset, 0.2, r, config.seed)
            probs = report.histories[("tag", r)].best_probs[val_mask]
            expected = brute_force_macro_auc(probs, dataset.labels()[val_mask])
            assert math.isclose(aucs[r], expected, rel_tol=1e-15), (r, aucs[r], expected)  # a mean of rounded terms
        assert 0.5 < report.arm("tag").mean_auc <= 1.0

    def test_split_without_a_class_fails_before_any_run_trains(self, monkeypatch):
        dataset, graph = three_class_study()
        labeled = dataset.labeled_mask.copy()
        labeled[np.flatnonzero(dataset.labels() == 2)[3:]] = False  # class 2 keeps 3 labeled subjects
        sparse = Dataset(dataset.subject_ids, dataset.X, dataset.meta, dataset.Y, labeled)
        monkeypatch.setattr(pgcn.crossval, "train", None)  # a run that trains would raise TypeError
        message = "class 2 has 3 labeled subjects, and val_fraction 0.1 puts none of them in a validation set"
        with pytest.raises(ParameterError, match=message):
            cross_validate(sparse, [Arm("tag", (graph,))], quick_config(), repeats=3, val_fraction=0.1)


class TestRepeats:
    """Each repeat of an arm is one train call on its split with its derived seed."""

    def test_repeat_seeds_derive_from_the_whole_seed(self, setup, monkeypatch):
        dataset, g_info, _ = setup
        seeds = []
        monkeypatch.setattr(pgcn.crossval, "train", lambda d, g, config, *rest: seeds.append(config.seed) or
                            train(d, g, config, *rest))
        cross_validate(dataset, [Arm("a", (g_info,))], quick_config(seed=2**32 + 19, max_epochs=2), repeats=2)
        assert sorted(seeds) == sorted(derive_seed(2**32 + 19, r) for r in range(2))  # runs may train side by side
        assert sorted(seeds) != sorted(derive_seed(19, r) for r in range(2))

    def test_each_repeat_is_a_direct_train_call(self, setup):
        dataset, g_info, g_nui = setup
        config = quick_config(early_stop_patience=4)
        arms = [Arm("pair", (g_info, g_nui)), Arm("single", (g_nui,), fixed_omega=(1.0,))]
        repeats, val_fraction = 3, 0.2
        report = cross_validate(dataset, arms, config, repeats=repeats, val_fraction=val_fraction)
        for arm in arms:
            for r in range(repeats):
                run_config = replace(config, seed=derive_seed(config.seed, r))
                masks = split_masks(dataset, val_fraction, r, config.seed)
                _, history = train(dataset, arm.graphs, run_config, *masks, arm.fixed_omega)
                kept = report.histories[(arm.name, r)]
                assert kept == history
                assert kept.best_probs.tobytes() == history.best_probs.tobytes()

    def test_six_products_per_branch_and_epoch_and_none_to_score(self, setup, monkeypatch):
        dataset, g_info, g_nui = setup
        epochs = 6
        config = quick_config(hidden_width=16, max_epochs=epochs, early_stop_patience=epochs)
        calls = count_spmm_calls(monkeypatch)
        branches, repeats = 2 + 1, 5
        for plan in ("blocks", "csr"):
            info, nui = planned_graphs((g_info, g_nui), plan, monkeypatch)
            arms = [Arm("pair", (info, nui)), Arm("single", (nui,), fixed_omega=(1.0,))]
            calls.clear()
            cross_validate(dataset, arms, config, repeats=repeats)
            # six products an epoch of each repeat, on either plan, and none to score the best epoch
            assert len(calls) == branches * repeats * 6 * epochs
            assert max(calls) == 16


class TestRunThreads:
    """Runs train side by side on the cores BLAS leaves idle, with the same results at any thread count."""

    @pytest.mark.parametrize("env, expected", [
        ({}, 1),                                                    # BLAS takes every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),     # the first set variable wins
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "one"}, 1),                       # not an integer: unset
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),  # not positive: unset
        ({"OPENBLAS_NUM_THREADS": "4"}, 1),                         # never fewer than one
    ])
    def test_thread_count_rule(self, monkeypatch, env, expected):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(pgcn.crossval.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert pgcn.crossval._run_threads() == expected

    def test_outputs_do_not_depend_on_thread_count(self, setup, monkeypatch):
        dataset, g_info, g_nui = setup
        arms = [Arm("pair", (g_info, g_nui)), Arm("info", (g_info,)), Arm("fixed", (g_nui,), fixed_omega=(1.0,))]
        reports = {}
        for k in (1, 3):
            with monkeypatch.context() as patch:
                threads = force_run_threads(patch, k)
                reports[k] = cross_validate(dataset, arms, quick_config(), repeats=4)
            assert len(threads) == 12 and len(set(threads)) == k
        one, three = reports[1], reports[3]
        assert one.render() == three.render()
        assert list(one.histories) == list(three.histories)
        for key, history in one.histories.items():
            assert three.histories[key] == history
            assert three.histories[key].best_probs.tobytes() == history.best_probs.tobytes()

    def test_no_more_threads_than_runs(self, setup, monkeypatch):
        dataset, g_info, g_nui = setup
        helpers = []

        class Counted(threading.Thread):
            def start(self):
                helpers.append(self)
                super().start()

        monkeypatch.setattr(pgcn.crossval.threading, "Thread", Counted)
        monkeypatch.setattr(pgcn.crossval, "_run_threads", lambda: 8)
        cross_validate(dataset, [Arm("info", (g_info,)), Arm("nui", (g_nui,))], quick_config(max_epochs=2), repeats=2)
        assert len(helpers) == 3  # four runs: the calling thread and three helpers

    def test_every_run_trains_once_and_lands_in_its_place(self, monkeypatch):
        # more threads than cores and a short switch interval, so a lost handout or a misplaced result shows
        calls = []
        monkeypatch.setattr(pgcn.crossval, "train", lambda dataset, graphs, config, *rest: calls.append(config) or config)
        monkeypatch.setattr(pgcn.crossval, "_run_threads", lambda: 8)
        runs = [(Arm("a", ("source",)), i, None, None) for i in range(2000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = pgcn.crossval._train_runs(None, runs)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(2000))
        assert results == list(range(2000))

    def test_runs_see_the_callers_errstate(self, setup, monkeypatch):
        dataset, g_info, g_nui = setup
        seen = []
        original = pgcn.crossval.train

        def recording(*args):
            seen.append(np.geterr()["over"])
            return original(*args)

        monkeypatch.setattr(pgcn.crossval, "train", recording)
        threads = force_run_threads(monkeypatch, 3)
        assert np.geterr()["over"] != "ignore"
        with np.errstate(over="ignore"):
            cross_validate(dataset, [Arm("info", (g_info,)), Arm("nui", (g_nui,))], quick_config(max_epochs=2),
                           repeats=3)
        assert len(set(threads)) == 3
        assert seen == ["ignore"] * 6

    def test_first_failing_run_in_order_is_raised(self, setup, monkeypatch):
        # arm b's runs never reach a finite validation loss; arm c's would train
        dataset, g_info, g_nui = setup
        original = pgcn.crossval.train

        def diverging(dataset, graphs, config, *rest):
            if graphs == (g_nui,):
                config = replace(config, learning_rate=1e300)
            return original(dataset, graphs, config, *rest)

        monkeypatch.setattr(pgcn.crossval, "train", diverging)
        arms = [Arm("a", (g_info,)), Arm("b", (g_nui,)), Arm("c", (g_info, g_nui))]
        messages = []
        for k in (1, 3):
            with monkeypatch.context() as patch, np.errstate(all="ignore"):
                force_run_threads(patch, k)
                with pytest.raises(ParameterError, match="no finite validation loss") as exc:
                    cross_validate(dataset, arms, quick_config(), repeats=3)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"run with seed {derive_seed(19, 0)} ")

    @staticmethod
    def fake_runs(monkeypatch, graphs, k, at_once, after):
        """Replace ``train`` for a study of three repeats over one arm per graph, on ``k`` threads.

        Run ``at_once[0]`` raises ``at_once[1]`` at once.  Every other run
        waits until it has, and a while longer, then raises ``after[i]`` if
        given or returns.  Returns the arms, the config and the list of the
        runs started.
        """
        config = quick_config()
        runs = [(g, derive_seed(config.seed, r)) for g in graphs for r in range(3)]
        started, raised = [], threading.Event()

        def fake(dataset, graphs, config, *rest):
            i = runs.index((graphs[0], config.seed))
            started.append(i)
            if i == at_once[0]:
                raised.set()
                raise at_once[1]
            raised.wait(30)
            time.sleep(0.2)
            if i in after:
                raise after[i]
            return None, None

        monkeypatch.setattr(pgcn.crossval, "train", fake)
        monkeypatch.setattr(pgcn.crossval, "_run_threads", lambda: k)
        return [Arm(f"arm{m}", (g,)) for m, g in enumerate(graphs)], config, started

    @pytest.mark.parametrize("exc", [ParameterError("run 1 failed"), KeyboardInterrupt()])
    def test_no_run_is_handed_out_after_a_failure(self, setup, monkeypatch, exc):
        dataset, g_info, g_nui = setup
        arms, config, started = self.fake_runs(monkeypatch, (g_info, g_nui), 3, (1, exc), {})
        with pytest.raises(type(exc)):
            cross_validate(dataset, arms, config, repeats=3)
        # the three threads took at most the first three runs before run 1 failed, and none after
        assert 1 in started and set(started) <= {0, 1, 2}

    def test_an_earlier_run_that_fails_later_wins(self, setup, monkeypatch):
        dataset, g_info, g_nui = setup
        arms, config, started = self.fake_runs(monkeypatch, (g_info, g_nui), 2, (1, ParameterError("run 1")),
                                               {0: ParameterError("run 0")})
        with pytest.raises(ParameterError, match="^run 0$"):
            cross_validate(dataset, arms, config, repeats=3)
        assert sorted(started) == [0, 1]
