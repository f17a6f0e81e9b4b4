import mpmath
import numpy as np
import pytest
from oracles import brute_force_auc

from pgcn.crossval import Comparison, CvReport
from pgcn.errors import DataError, DegenerateInputError, ParameterError
from pgcn.stats import accuracy, auc, paired_t_test, stratified_mc_split


def t_p_value_oracle(t, df):
    """Two-sided p through mpmath's incomplete beta at high precision."""
    mpmath.mp.dps = 50
    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
    return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


class TestAccuracy:
    def test_perfect(self):
        y = np.eye(3)
        assert accuracy(y, y, np.ones(3, dtype=bool)) == 1.0

    def test_tie_breaks_to_lowest_class(self):
        probs = np.full((4, 2), 0.5)
        y = np.tile([0.0, 1.0], (4, 1))
        assert accuracy(probs, y, np.ones(4, dtype=bool)) == 0.0

    def test_counting(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        y = np.array([[1, 0], [0, 1], [1, 0], [1, 0]], dtype=float)
        assert accuracy(probs, y, np.ones(4, dtype=bool)) == 0.75

    def test_empty_mask(self):
        with pytest.raises(ParameterError):
            accuracy(np.eye(2), np.eye(2), np.zeros(2, dtype=bool))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        probs = rng.random((10, 3))
        y = np.eye(3)[rng.integers(0, 3, 10)]
        mask = rng.random(10) < 0.7
        mask[0] = True
        pi = rng.permutation(10)
        assert accuracy(probs, y, mask) == accuracy(probs[pi], y[pi], mask[pi])


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_tied(self):
        assert auc([0.4, 0.4, 0.4], [1, 0, 1]) == 0.5

    def test_pairwise_counting_example(self):
        # pairs: (.8,.6) win, (.8,.1) win, (.3,.6) loss, (.3,.1) win -> 3/4
        assert auc([0.8, 0.3, 0.6, 0.1], [1, 1, 0, 0]) == 0.75

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc([0.2, np.nan, 0.7, 0.1], [1, 0, 1, 0]))

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError):
            auc([0.1, 0.2], [1, 1])

    def test_matches_brute_force_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores so ties actually occur
            scores = np.round(rng.random(n), 1)
            expected = brute_force_auc(scores.tolist(), labels.tolist())
            assert auc(scores, labels) == float(expected)

    def test_complement_under_score_negation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.permutation(n).astype(float)  # tie-free
            assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(20)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        pi = rng.permutation(20)
        assert auc(scores, labels) == auc(scores[pi], labels[pi])


class TestPairedTTest:
    def test_frozen_example(self):
        t, p = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])  # d = [1, 2, 3]
        assert t == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)
        assert t == pytest.approx(3.4641, abs=1e-4)
        assert p == pytest.approx(0.0742, abs=1e-3)
        assert p == pytest.approx(t_p_value_oracle(t, df=2), abs=1e-14)

    def test_t_is_plain_float_and_renders_bare(self):
        t, p = paired_t_test([0.9, 0.8, 0.85, 0.95], [0.7, 0.75, 0.6, 0.8])
        assert type(t) is float
        assert type(p) is float
        report = CvReport(arms=[], comparisons=[Comparison("a", "b", t, p)], repeats=4, val_fraction=0.1, seed=0)
        text = report.render()
        assert f"  t = {t!r}\n" in text
        assert "np.float64" not in text

    def test_identical_arms_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([0.6, 0.7, 0.8], [0.6, 0.7, 0.8])

    def test_constant_nonzero_difference_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([1.5, 2.5], [1.0, 2.0])

    def test_swap_negates_t_keeps_p(self):
        rng = np.random.default_rng(4)
        a = rng.random(8)
        b = rng.random(8)
        t_ab, p_ab = paired_t_test(a, b)
        t_ba, p_ba = paired_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-15)

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            try:
                t, p = paired_t_test(a, b)
            except DegenerateInputError:
                continue
            assert 0.0 < p <= 1.0
            assert p == pytest.approx(t_p_value_oracle(t, df=n - 1), rel=1e-10)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            paired_t_test([1.0], [2.0])


class TestStratifiedSplit:
    def test_balanced_binary_exact(self):
        labels = np.array([0] * 50 + [1] * 50)
        plan = stratified_mc_split(labels, val_fraction=0.1, repeat=0, seed=7)
        assert len(plan.val_indices) == 10
        assert np.sum(labels[plan.val_indices] == 0) == 5
        assert np.sum(labels[plan.val_indices] == 1) == 5

    def test_deterministic(self):
        labels = np.array([0, 1] * 20)
        a = stratified_mc_split(labels, 0.2, repeat=3, seed=9)
        b = stratified_mc_split(labels, 0.2, repeat=3, seed=9)
        np.testing.assert_array_equal(a.val_indices, b.val_indices)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)

    def test_repeats_differ(self):
        labels = np.array([0, 1] * 30)
        plans = [stratified_mc_split(labels, 0.2, repeat=r, seed=1) for r in range(20)]
        first = plans[0].val_indices
        assert any(not np.array_equal(first, p.val_indices) for p in plans[1:])

    @pytest.mark.parametrize("counts", [(30, 30), (15, 45), (20, 50)])
    def test_partition_and_stratification(self, counts):
        labels = np.array([0] * counts[0] + [1] * counts[1])
        for repeat in range(5):
            plan = stratified_mc_split(labels, 0.1, repeat=repeat, seed=2)
            union = np.sort(np.concatenate([plan.train_indices, plan.val_indices]))
            np.testing.assert_array_equal(union, np.arange(len(labels)))
            assert len(np.intersect1d(plan.train_indices, plan.val_indices)) == 0
            for cls, total in enumerate(counts):
                n_val = int(np.sum(labels[plan.val_indices] == cls))
                assert abs(n_val - 0.1 * total) <= 1.0

    def test_small_class_rejected(self):
        with pytest.raises(DataError):
            stratified_mc_split(np.array([0, 0, 0, 1]), 0.25, 0, 0)

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            stratified_mc_split(np.array([0, 1, 0, 1]), 1.0, 0, 0)
