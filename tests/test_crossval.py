from dataclasses import replace

import numpy as np
import pytest
from counting import count_spmm_calls, planned_graphs

import pgcn.crossval
from pgcn.crossval import Arm, cross_validate, derive_seed
from pgcn.data import synth_generate
from pgcn.errors import ConfigError, DegenerateInputError, ParameterError
from pgcn.graphs import build_graph
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

    def test_duplicate_names_rejected(self, setup):
        dataset, g_info, g_nui = setup
        arms = [Arm("same", (g_info,)), Arm("same", (g_nui,))]
        with pytest.raises(ConfigError):
            cross_validate(dataset, arms, quick_config(), repeats=2)


class TestRepeats:
    """Each repeat of an arm is one train call on its split with its derived seed."""

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
