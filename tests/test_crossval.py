import numpy as np
import pytest

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
