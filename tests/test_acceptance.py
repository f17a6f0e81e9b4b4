"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned in the assertions.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats
from oracles import bayes_accuracy, brute_force_auc, power_iteration_radius

from pgcn.cli import gradcheck_instance, main
from pgcn.crossval import Arm, cross_validate
from pgcn.data import synth_generate
from pgcn.graphs import MetaColumn, build_affinity, build_graph, normalize
from pgcn.linalg import SparseSymMatrix, matmul, spmm
from pgcn.model import ModelParams, forward, init_params, rank_combine
from pgcn.stats import paired_t_test, stratified_mc_split
from pgcn.stats import auc
from pgcn.training import TrainConfig, grad_check, train


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")
    return ok


class TestGradientFidelity:
    def test_ten_seeds_below_threshold_in_time(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(10):
            dataset, graphs, params = gradcheck_instance(seed)
            worst = max(worst, grad_check(dataset, graphs, params, eps=1e-6, l2_lambda=5e-4))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-5 and elapsed < 5.0
        report("gradient fidelity", ok, f"max_rel_error {worst:.3e}, {elapsed:.2f}s")
        assert worst < 1e-5
        assert elapsed < 5.0

    def test_cli_gradcheck_exits_zero(self, capsys):
        code = main(["gradcheck", "--count", "10", "--seed", "0"])
        capsys.readouterr()
        assert code == 0


class TestOracleEquivalence:
    def test_auc_matches_brute_force_on_100_instances(self):
        rng = np.random.default_rng(2024)
        exact = 0
        for _ in range(100):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 1)  # quantized so ties occur
            if auc(scores, labels) == float(brute_force_auc(scores.tolist(), labels.tolist())):
                exact += 1
        report("oracle equivalence / AUC", exact == 100, f"{exact}/100 exact")
        assert exact == 100

    def test_spmm_matches_dense_matmul_on_50_instances(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 33))
            upper = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5), k=1)
            dense = upper + upper.T
            s = SparseSymMatrix.from_dense(dense)
            b = rng.normal(size=(n, int(rng.integers(1, 6))))
            worst = max(worst, float(np.max(np.abs(spmm(s, b) - matmul(s.to_dense(), b)))))
        report("oracle equivalence / spmm", worst <= 1e-12, f"max abs diff {worst:.2e}")
        assert worst <= 1e-12


class TestNormalizationSpectrum:
    def test_spectral_radius_bounded_on_50_graphs(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 65))
            sim = np.clip(rng.normal(size=(n, n)), -1, 1)
            sim = 0.5 * (sim + sim.T)
            edges = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.8), k=1)
            edges = edges | edges.T
            a_hat = normalize(build_affinity(sim, edges))
            worst = max(worst, power_iteration_radius(a_hat.to_dense(), iters=200))
        ok = worst <= 1.0 + 1e-9
        report("normalization spectrum", ok, f"max radius {worst:.12f}")
        assert worst <= 1.0 + 1e-9


class TestAblationConsistency:
    def setup_instance(self):
        dataset, informative, nuisance = synth_generate(
            80, 8, seed=30, informative_strength=2.0, noise=1.0
        )
        g_info = build_graph(informative, dataset.X)
        g_nui = build_graph(nuisance, dataset.X)
        double = init_params(8, 8, 2, 2, seed=77)
        single = ModelParams(
            theta0=[double.theta0[1].copy()],
            theta1=[double.theta1[1].copy()],
            omega=np.array([1.0]),
        )
        return dataset, g_info, g_nui, double, single

    def test_one_hot_omega_equals_single_graph_model(self):
        dataset, g_info, g_nui, double, single = self.setup_instance()
        # forward-level identity
        cache2 = forward(dataset.X, [g_nui.normalized, g_info.normalized], double)
        _, probs_branch = rank_combine([cache2.branches[1].logits], [1.0])
        fused, probs_onehot = rank_combine(
            [cache2.branches[0].logits, cache2.branches[1].logits], [0.0, 1.0]
        )
        forward_diff = float(np.max(np.abs(probs_onehot - probs_branch)))
        # through full training with aligned initialization (no dropout so
        # both runs draw identical computation graphs)
        config = TrainConfig(seed=12, max_epochs=40, dropout_p=0.0, hidden_width=8)
        p2, _ = train(dataset, [g_nui, g_info], config, fixed_omega=[0.0, 1.0], initial_params=double)
        p1, _ = train(dataset, [g_info], config, fixed_omega=[1.0], initial_params=single)
        probs2 = forward(dataset.X, [g_nui.normalized, g_info.normalized], p2).probs
        probs1 = forward(dataset.X, [g_info.normalized], p1).probs
        trained_diff = float(np.max(np.abs(probs2 - probs1)))
        ok = forward_diff <= 1e-12 and trained_diff <= 1e-12
        report("ablation consistency / one-hot omega", ok,
               f"forward diff {forward_diff:.2e}, trained diff {trained_diff:.2e}")
        assert forward_diff <= 1e-12
        assert trained_diff <= 1e-12

    def test_half_half_duplicated_graph_equals_single_branch(self):
        dataset, g_info, _, double, single = self.setup_instance()
        dup = ModelParams(
            theta0=[single.theta0[0].copy(), single.theta0[0].copy()],
            theta1=[single.theta1[0].copy(), single.theta1[0].copy()],
            omega=np.array([0.5, 0.5]),
        )
        # forward-level identity: 0.5 h + 0.5 h is exactly h
        probs_dup = forward(dataset.X, [g_info.normalized, g_info.normalized], dup).probs
        probs_one = forward(dataset.X, [g_info.normalized], single).probs
        forward_diff = float(np.max(np.abs(probs_dup - probs_one)))
        # through training: Adam is scale-invariant in the gradient only up
        # to its epsilon, so the equivalence run uses a tiny epsilon and no
        # L2 (the penalty is not branch-count invariant)
        config = TrainConfig(
            seed=12, max_epochs=40, dropout_p=0.0, l2_lambda=0.0,
            adam_eps=1e-12, hidden_width=8,
        )
        pd, _ = train(dataset, [g_info, g_info], config, fixed_omega=[0.5, 0.5], initial_params=dup)
        ps, _ = train(dataset, [g_info], config, fixed_omega=[1.0], initial_params=single)
        trained_diff = float(np.max(np.abs(
            forward(dataset.X, [g_info.normalized, g_info.normalized], pd).probs
            - forward(dataset.X, [g_info.normalized], ps).probs
        )))
        ok = forward_diff <= 1e-9 and trained_diff <= 1e-9
        report("ablation consistency / half-half duplicate", ok,
               f"forward diff {forward_diff:.2e}, trained diff {trained_diff:.2e}")
        assert forward_diff <= 1e-9
        assert trained_diff <= 1e-9


class TestRankingLayerLearning:
    def test_informative_graph_outranks_nuisance(self):
        # Pinned data difficulty: n=200, d=10, strength 1.0, noise 1.0.
        # The stronger weight decay stops the label-independent branch from
        # memorizing training residuals, which would otherwise inflate its
        # ranking weight.
        t0 = time.perf_counter()
        separated = 0
        best_accs = []
        n_val_total = 0
        for seed in range(10):
            dataset, informative, nuisance = synth_generate(
                200, 10, seed=seed, informative_strength=1.0, noise=1.0
            )
            graphs = [build_graph(informative, dataset.X), build_graph(nuisance, dataset.X)]
            config = TrainConfig(seed=seed, l2_lambda=2e-2)
            # the same stratified 90/10 split train() derives by default,
            # built here so the validation subjects can be counted
            plan = stratified_mc_split(dataset.labels(), 0.1, repeat=0, seed=seed)
            val_mask = np.isin(np.arange(dataset.n_subjects), plan.val_indices)
            n_val_total += int(val_mask.sum())
            _, history = train(dataset, graphs, config, train_mask=~val_mask, val_mask=val_mask)
            final = history.final_omega()
            separated += bool(abs(final[0]) > abs(final[1]))
            best_accs.append(history.records[history.best_epoch - 1].val_acc)
        elapsed = time.perf_counter() - t0
        mean_acc = float(np.mean(best_accs))
        # No classifier beats the Bayes rule on this data.  The informative
        # category copies the label with probability 0.9 (log-odds ln 9) and
        # the features add a 1-sigma class-mean separation, so the ceiling is
        # bayes_accuracy(1, 1, 0.9) ~= 0.901; features alone reach only 0.69.
        # No document fixes how far below the ceiling a correct model may
        # fall.  The allowance here is two binomial standard errors of the
        # pooled validation accuracy (~0.042 over 200 subjects): a
        # Bayes-optimal model falls below it on about 2% of seed draws, while
        # a model that ignores the informative graph (~0.69) still fails.
        ceiling = bayes_accuracy(1.0, 1.0, 0.9)
        bar = ceiling - 2.0 * math.sqrt(ceiling * (1.0 - ceiling) / n_val_total)
        ok = separated >= 9 and mean_acc >= bar and elapsed < 60.0
        report(
            "ranking-layer learning",
            ok,
            f"separation {separated}/10, mean val acc {mean_acc:.3f}, "
            f"Bayes ceiling {ceiling:.3f}, bar {bar:.3f}, {elapsed:.1f}s",
        )
        assert separated >= 9
        assert elapsed < 60.0
        assert mean_acc >= bar, (
            f"mean validation accuracy {mean_acc:.3f} < {bar:.3f}, two standard "
            f"errors below the Bayes ceiling {ceiling:.3f} over {n_val_total} "
            "validation subjects"
        )


class TestRankingLayerOrdering:
    def test_graphs_rank_by_their_relevance(self):
        # Five binary columns copy the label with agreement 0.9 ... 0.5, so their relevance falls in that order; a
        # seed's ranking is the order of its final |omega|.  Under a random order, Spearman's rho over 5 items has
        # mean 0 and variance 1/(5 - 1) = 1/4, so a mean over 10 seeds has SD 0.5 / sqrt(10) = 0.158, and the 0.7
        # bar sits 4.4 SD above chance.
        agreements = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        t0 = time.perf_counter()
        first, rhos = 0, []
        for seed in range(10):
            dataset, _, _ = synth_generate(200, 10, seed=seed)
            labels = dataset.labels()
            rng = np.random.default_rng([seed, 77])
            graphs = []
            for k, agree in enumerate(agreements):
                codes = np.where(rng.random(dataset.n_subjects) < agree, labels, 1 - labels).astype(str)
                graphs.append(build_graph(MetaColumn(f"agree{k}", "categorical", codes), dataset.X))
            _, history = train(dataset, graphs, TrainConfig(seed=seed, l2_lambda=2e-2))
            weight = np.abs(history.final_omega())
            first += int(np.argmax(weight) == 0)
            rhos.append(scipy.stats.spearmanr(weight, agreements).statistic)
        elapsed = time.perf_counter() - t0
        mean_rho = float(np.mean(rhos))
        ok = first >= 9 and mean_rho >= 0.7
        report("ranking-layer ordering", ok, f"0.9 graph first {first}/10, mean Spearman {mean_rho:.2f} "
               f"(min {min(rhos):.2f}), {elapsed:.1f}s")
        assert first >= 9
        assert mean_rho >= 0.7, rhos


class TestDirectionalOrdering:
    def test_table_ordering_and_significance(self):
        dataset, informative, nuisance = synth_generate(
            200, 10, seed=42, informative_strength=1.0, noise=1.0
        )
        g_info = build_graph(informative, dataset.X)
        g_nui = build_graph(nuisance, dataset.X)
        arms = [
            Arm("trainable", (g_info, g_nui)),
            Arm("fixed_half", (g_info, g_nui), fixed_omega=(0.5, 0.5)),
            Arm("nuisance_only", (g_nui,), fixed_omega=(1.0,)),
        ]
        config = TrainConfig(seed=42, l2_lambda=2e-2)
        cv = cross_validate(dataset, arms, config, repeats=10)
        m_train = cv.arm("trainable").mean_acc
        m_fixed = cv.arm("fixed_half").mean_acc
        m_nui = cv.arm("nuisance_only").mean_acc
        comp = cv.comparison("trainable", "nuisance_only")
        ordering = m_train >= m_fixed >= m_nui
        ok = ordering and comp.p < 0.05
        report(
            "directional ordering",
            ok,
            f"means {m_train:.3f} >= {m_fixed:.3f} >= {m_nui:.3f}, p {comp.p:.2e}",
        )
        assert ordering
        assert comp.p < 0.05


class TestStatisticsCorrectness:
    def test_t_test_frozen_values(self):
        t, p = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        ok = abs(t - 3.4641) <= 1e-4 and abs(p - 0.0742) <= 1e-3
        report("statistics / paired t-test", ok, f"t {t:.6f}, p {p:.6f}")
        assert t == pytest.approx(3.4641, abs=1e-4)
        assert p == pytest.approx(0.0742, abs=1e-3)

    def test_stratified_counts_within_one(self):
        worst = 0.0
        for counts in [(50, 50), (25, 75), (40, 100)]:
            labels = np.array([0] * counts[0] + [1] * counts[1])
            for repeat in range(5):
                plan = stratified_mc_split(labels, 0.1, repeat=repeat, seed=3)
                for cls, total in enumerate(counts):
                    n_val = int(np.sum(labels[plan.val_indices] == cls))
                    worst = max(worst, abs(n_val - 0.1 * total))
        report("statistics / stratified splits", worst <= 1.0, f"max deviation {worst}")
        assert worst <= 1.0


class TestDeterminism:
    def test_two_cv_runs_byte_identical(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main([
            "synth", "--n", "60", "--d", "6", "--seed", "4",
            "--informative-strength", "2.0", "--out-dir", str(data_dir),
        ]) == 0
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "arms": [
                {"name": "solo", "graph_sources": ["informative"], "omega": [1.0]},
                {"name": "both", "graph_sources": ["informative", "nuisance"]},
            ],
            "train": {"max_epochs": 20, "hidden_width": 8, "seed": 6},
            "repeats": 3,
        }))
        args = [
            "cv",
            "--features", str(data_dir / "features.csv"),
            "--meta", str(data_dir / "meta.csv"),
            "--labels", str(data_dir / "labels.csv"),
            "--config", str(cfg),
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == 0
        assert main(args + ["--out-dir", str(out_b)]) == 0
        capsys.readouterr()
        same_report = (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
        same_history = (
            (out_a / "history_both_rep0.csv").read_bytes()
            == (out_b / "history_both_rep0.csv").read_bytes()
        )
        report("determinism", same_report and same_history)
        assert same_report
        assert same_history
