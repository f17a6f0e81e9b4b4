import numpy as np
import pytest
from counting import count_spmm_calls

import pgcn.training
from pgcn.crossval import Arm, cross_validate
from pgcn.data import synth_generate
from pgcn.errors import ConfigError, DegenerateInputError, ParameterError
from pgcn.graphs import build_graph
from pgcn.training import TrainConfig


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


class TestCohorts:
    """Repeats of an arm train in lockstep, in cohorts of up to COHORT_COLUMNS // hidden_width."""

    @pytest.mark.parametrize("dropout_p", [0.3, 0.0])
    def test_cohort_equals_members_trained_one_at_a_time(self, setup, monkeypatch, dropout_p):
        dataset, g_info, g_nui = setup
        arms = [Arm("trainable", (g_info, g_nui)), Arm("fixed", (g_info, g_nui), fixed_omega=(0.3, 0.7))]
        # 64 // 32 = 2 repeats per cohort, so 5 repeats split into cohorts of 2, 2 and 1
        config = quick_config(hidden_width=32, max_epochs=60, omega_warmup_epochs=5,
                              early_stop_patience=3, dropout_p=dropout_p)
        cohorts = cross_validate(dataset, arms, config, repeats=5)
        monkeypatch.setattr(pgcn.training, "COHORT_COLUMNS", 1)
        alone = cross_validate(dataset, arms, config, repeats=5)

        # a member leaves its cohort early while the other trains on
        assert any(len(cohorts.histories[("trainable", r)]) != len(cohorts.histories[("trainable", r + 1)])
                   for r in (0, 2))
        assert cohorts.render() == alone.render()
        assert cohorts.histories == alone.histories

    def test_one_product_per_branch_and_stage_per_cohort(self, setup, monkeypatch):
        dataset, g_info, g_nui = setup
        arms = [Arm("pair", (g_info, g_nui)), Arm("single", (g_nui,), fixed_omega=(1.0,))]
        epochs = 6
        config = quick_config(hidden_width=16, max_epochs=epochs, early_stop_patience=epochs)
        calls = count_spmm_calls(monkeypatch)
        cross_validate(dataset, arms, config, repeats=5)  # cohorts of 64 // 16 = 4 and 1 repeats
        branches, cohorts = 2 + 1, 2
        # per branch and cohort: six products an epoch, and none to score the best epoch
        assert len(calls) == branches * cohorts * 6 * epochs
        assert max(calls) == 64
