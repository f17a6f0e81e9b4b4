import numpy as np
import pytest

from pgcn.errors import ParameterError, ShapeError
from pgcn.graphs import normalize, random_graph
from pgcn.linalg import SparseSymMatrix, softmax_rows
from pgcn.model import (
    ModelParams,
    backward,
    branch_forward,
    forward,
    init_params,
    load_checkpoint,
    rank_combine,
    save_checkpoint,
)
from pgcn.training import loss


def random_operator(n, rng, density=0.4):
    """A normalized propagation operator over a random symmetric graph."""
    upper = np.triu((rng.random((n, n)) < density) * rng.random((n, n)), k=1)
    dense = upper + upper.T
    return normalize(SparseSymMatrix.from_dense(dense))


# ---------------------------------------------------------------------------
# independent straight-line oracle: dense arithmetic only, no pgcn internals
# ---------------------------------------------------------------------------


def oracle_branch(a_dense, x, theta0, theta1, mask0=1.0, mask1=1.0):
    """The layers as written, (A (X * M0)) Theta0: the model computes A ((X * M0) Theta0)."""
    h1 = np.maximum(a_dense @ (x * mask0) @ theta0, 0.0)
    return a_dense @ (h1 * mask1) @ theta1


def oracle_loss(x, dense_ops, params, y, mask, lam):
    fused = np.zeros((x.shape[0], params.theta1[0].shape[1]))
    for m, a in enumerate(dense_ops):
        fused += params.omega[m] * oracle_branch(a, x, params.theta0[m], params.theta1[m])
    shifted = fused - fused.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    ce = -np.sum(y[mask] * np.log(p[mask])) / mask.sum()
    reg = lam * sum(float(np.sum(t * t)) for t in params.theta0 + params.theta1)
    return ce + reg


def finite_difference_grads(x, dense_ops, params, y, mask, lam, eps=1e-6):
    grads = params.copy()
    for _, tensor in grads.tensors():
        tensor[...] = 0.0
    for (_, p_tensor), (_, g_tensor) in zip(params.tensors(), grads.tensors()):
        flat_p = p_tensor.reshape(-1)
        flat_g = g_tensor.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + eps
            up = oracle_loss(x, dense_ops, params, y, mask, lam)
            flat_p[idx] = orig - eps
            down = oracle_loss(x, dense_ops, params, y, mask, lam)
            flat_p[idx] = orig
            flat_g[idx] = (up - down) / (2 * eps)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (_, a), (_, n) in zip(analytic.tensors(), numeric.tensors()):
        denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def make_instance(seed, n=12, d=5, h=4, k=2, m=2, n_labeled=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    graphs = [random_operator(n, rng) for _ in range(m)]
    params = init_params(d, h, k, m, seed=seed + 1)
    labels = rng.integers(0, k, size=n)
    y = np.eye(k)[labels]
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=n_labeled, replace=False)] = True
    return x, graphs, params, y, mask


class TestModelParams:
    def test_tensors_are_views_of_vector_in_order(self):
        params = init_params(5, 4, 3, 2, seed=0)
        offset = 0
        for name, tensor in params.tensors():
            assert np.shares_memory(tensor, params.vector), name
            np.testing.assert_array_equal(params.vector[offset:offset + tensor.size], tensor.ravel())
            offset += tensor.size
        assert offset == params.vector.size
        assert params.vector.dtype == np.float64

    def test_constructor_copies_inputs(self):
        theta0, theta1, omega = [np.ones((3, 2))], [np.ones((2, 2))], np.array([1.0])
        params = ModelParams(theta0=theta0, theta1=theta1, omega=omega)
        for caller, (_, tensor) in zip([*theta0, *theta1, omega], params.tensors()):
            assert not np.shares_memory(caller, tensor)
        theta0[0][0, 0] = 5.0
        omega[0] = 5.0
        assert params.theta0[0][0, 0] == 1.0
        assert params.omega[0] == 1.0

    def test_copy_is_independent(self):
        params = init_params(4, 3, 2, 2, seed=1)
        clone = params.copy()
        assert not np.shares_memory(clone.vector, params.vector)
        clone.vector[:] = 0.0
        assert np.all(params.theta1[1] != 0.0)

    def test_tensors_cannot_be_swapped_out(self):
        params = init_params(4, 3, 2, 2, seed=2)
        with pytest.raises(TypeError):
            params.theta0[0] = np.zeros((4, 3))
        with pytest.raises(TypeError):
            params.theta1[1] = np.zeros((3, 2))

    def test_omega_assignment_writes_through(self):
        params = init_params(4, 3, 2, 2, seed=3)
        params.omega = [0.8, 0.2]
        assert np.shares_memory(params.omega, params.vector)
        np.testing.assert_array_equal(params.vector[-2:], [0.8, 0.2])
        with pytest.raises(ShapeError):
            params.omega = [1.0, 2.0, 3.0]

    def test_layout_records_tensor_shapes(self):
        params = init_params(5, 4, 3, 2, seed=4)
        assert params.layout == ((5, 4), (5, 4), (4, 3), (4, 3), (2,))


class TestInitParams:
    def test_uniform_ranking_weights(self):
        params = init_params(5, 4, 2, 2, seed=0)
        np.testing.assert_array_equal(params.omega, [0.5, 0.5])

    def test_deterministic(self):
        a = init_params(6, 3, 2, 2, seed=11)
        b = init_params(6, 3, 2, 2, seed=11)
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_glorot_bound(self):
        params = init_params(100, 16, 2, 1, seed=3)
        bound = np.sqrt(6.0 / 116.0)
        assert np.all(np.abs(params.theta0[0]) <= bound)
        assert np.max(np.abs(params.theta0[0])) > 0.5 * bound  # actually spreads

    def test_bad_dimensions(self):
        with pytest.raises(ParameterError):
            init_params(0, 4, 2, 1, seed=0)


class TestBranchForward:
    def test_identity_composition(self):
        x = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
        eye3 = np.eye(3)
        _, logits = branch_forward(x, SparseSymMatrix.from_dense(np.eye(4)), eye3, eye3)
        np.testing.assert_array_equal(logits, x)

    def test_zero_first_layer(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        a_hat = random_operator(5, rng)
        logits = branch_forward(x, a_hat, np.zeros((3, 4)), rng.normal(size=(4, 2)))[1]
        np.testing.assert_array_equal(logits, np.zeros((5, 2)))

    @pytest.mark.parametrize("masked", [False, True], ids=["no_dropout", "dropout"])
    @pytest.mark.parametrize("d, h", [(4, 3), (3, 6)], ids=["hidden_narrower", "hidden_wider"])
    def test_matches_straight_line_oracle(self, d, h, masked):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, d))
        a_hat = random_operator(7, rng)
        theta0 = rng.normal(size=(d, h))
        theta1 = rng.normal(size=(h, 2))
        masks = ((rng.random((7, d)) >= 0.3) / 0.7, (rng.random((7, h)) >= 0.3) / 0.7) if masked else None
        _, logits = branch_forward(x, a_hat, theta0, theta1, masks)
        expected = oracle_branch(a_hat.to_dense(), x, theta0, theta1, *(masks or ()))
        assert np.max(np.abs(logits - expected)) <= 1e-12

    def test_cache_keeps_unmasked_features_without_a_copy(self):
        x, graphs, params, _, _ = make_instance(3)
        cache, _ = branch_forward(x, graphs[0], params.theta0[0], params.theta1[0])
        assert cache.dropped0 is x and cache.mask1 is None
        np.testing.assert_array_equal(cache.dropped1, np.maximum(cache.preact, 0.0))

    def test_shape_errors(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError):
            branch_forward(rng.normal(size=(4, 3)), SparseSymMatrix.from_dense(np.eye(5)), np.eye(3), np.eye(3))
        with pytest.raises(ShapeError):
            branch_forward(rng.normal(size=(4, 3)), SparseSymMatrix.from_dense(np.eye(4)), np.eye(2), np.eye(2))


class TestRankCombine:
    def test_one_hot_reproduces_single_branch(self):
        rng = np.random.default_rng(4)
        h1 = rng.normal(size=(6, 3))
        h2 = rng.normal(size=(6, 3))
        _, probs = rank_combine([h1, h2], [1.0, 0.0])
        np.testing.assert_array_equal(probs, softmax_rows(h1))

    def test_zero_weights_give_uniform(self):
        rng = np.random.default_rng(5)
        logits = [rng.normal(size=(4, 5)), rng.normal(size=(4, 5))]
        _, probs = rank_combine(logits, [0.0, 0.0])
        np.testing.assert_allclose(probs, np.full((4, 5), 0.2), atol=1e-15)

    def test_frozen_softmax_value(self):
        fused, probs = rank_combine([np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]])], [1.0, 0.0])
        np.testing.assert_array_equal(fused, [[2.0, 0.0]])
        np.testing.assert_allclose(probs, [[0.8807970779778824, 0.11920292202211756]], atol=5e-16)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rank_combine([np.zeros((2, 2))], [0.5, 0.5])


class TestForward:
    def test_single_branch_degenerates_to_plain_gcn(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 3))
        a_hat = random_operator(8, rng)
        params = init_params(3, 4, 2, 1, seed=9)
        np.testing.assert_array_equal(params.omega, [1.0])
        cache = forward(x, [a_hat], params)
        _, logits = branch_forward(x, a_hat, params.theta0[0], params.theta1[0])
        np.testing.assert_array_equal(cache.probs, softmax_rows(logits))

    def test_duplicated_graph_equals_single_branch(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(9, 4))
        a_hat = random_operator(9, rng)
        single = init_params(4, 5, 3, 1, seed=21)
        double = ModelParams(
            theta0=[single.theta0[0].copy(), single.theta0[0].copy()],
            theta1=[single.theta1[0].copy(), single.theta1[0].copy()],
            omega=np.array([0.5, 0.5]),
        )
        probs_single = forward(x, [a_hat], single).probs
        probs_double = forward(x, [a_hat, a_hat], double).probs
        np.testing.assert_array_equal(probs_double, probs_single)

    def test_evaluation_mode_deterministic(self):
        x, graphs, params, _, _ = make_instance(8)
        a = forward(x, graphs, params)
        b = forward(x, graphs, params)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_train_mode_deterministic_given_seed(self):
        x, graphs, params, _, _ = make_instance(9)
        a = forward(x, graphs, params, dropout_seed=5, dropout_p=0.3)
        b = forward(x, graphs, params, dropout_seed=5, dropout_p=0.3)
        np.testing.assert_array_equal(a.probs, b.probs)
        c = forward(x, graphs, params, dropout_seed=6, dropout_p=0.3)
        assert not np.array_equal(a.probs, c.probs)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        x, graphs, params, _, _ = make_instance(10, n=11)
        pi = rng.permutation(11)
        base = forward(x, graphs, params).probs
        permuted_graphs = [
            SparseSymMatrix.from_dense(g.to_dense()[np.ix_(pi, pi)]) for g in graphs
        ]
        permuted = forward(x[pi], permuted_graphs, params).probs
        assert np.max(np.abs(permuted - base[pi])) <= 1e-9

    def test_positive_rescaling_preserves_argmax(self):
        x, graphs, params, _, _ = make_instance(12)
        base = forward(x, graphs, params)
        scaled = params.copy()
        scaled.omega = scaled.omega * 7.3
        out = forward(x, graphs, scaled)
        np.testing.assert_array_equal(np.argmax(out.probs, axis=1), np.argmax(base.probs, axis=1))

    def test_graph_count_mismatch(self):
        x, graphs, params, _, _ = make_instance(13)
        with pytest.raises(ShapeError):
            forward(x, graphs[:1], params)


class TestBackward:
    def test_perfect_prediction_zeroes_omega_gradients(self):
        x, graphs, params, y, mask = make_instance(14)
        cache = forward(x, graphs, params)
        cache.probs = y.copy()  # force Y_hat == Y on every row
        grads = backward(cache, y, mask, l2_lambda=0.0)
        np.testing.assert_array_equal(grads.omega, np.zeros(2))

    def test_empty_mask_zeroes_everything(self):
        x, graphs, params, y, _ = make_instance(15)
        cache = forward(x, graphs, params)
        grads = backward(cache, y, np.zeros(12, dtype=bool), l2_lambda=0.0)
        for _, tensor in grads.tensors():
            np.testing.assert_array_equal(tensor, np.zeros_like(tensor))

    def test_matches_finite_differences(self):
        x, graphs, params, y, mask = make_instance(16)
        cache = forward(x, graphs, params)
        analytic = backward(cache, y, mask, l2_lambda=5e-4)
        dense_ops = [g.to_dense() for g in graphs]
        numeric = finite_difference_grads(x, dense_ops, params, y, mask, lam=5e-4)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_matches_finite_differences_no_regularization(self):
        x, graphs, params, y, mask = make_instance(17)
        cache = forward(x, graphs, params)
        analytic = backward(cache, y, mask, l2_lambda=0.0)
        dense_ops = [g.to_dense() for g in graphs]
        numeric = finite_difference_grads(x, dense_ops, params, y, mask, lam=0.0)
        assert max_relative_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("lam", [5e-4, 0.0])
    def test_matches_finite_differences_with_dropout(self, lam):
        x, graphs, params, y, mask = make_instance(20)
        cache = forward(x, graphs, params, dropout_seed=7, dropout_p=0.3)
        assert all(br.mask1 is not None for br in cache.branches)
        analytic = backward(cache, y, mask, l2_lambda=lam)
        numeric, eps = params.copy(), 1e-6
        for idx in range(params.vector.size):
            orig = params.vector[idx]
            sides = []
            for probe in (orig + eps, orig - eps):
                params.vector[idx] = probe
                probs = forward(x, graphs, params, dropout_seed=7, dropout_p=0.3).probs
                sides.append(loss(probs, y, mask, params, lam))
            params.vector[idx] = orig
            numeric.vector[idx] = (sides[0] - sides[1]) / (2 * eps)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_returns_params_layout(self):
        x, graphs, params, y, mask = make_instance(19)
        grads = backward(forward(x, graphs, params), y, mask, l2_lambda=5e-4)
        assert isinstance(grads, ModelParams)
        assert grads.layout == params.layout


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(6, 4, 3, 2, seed=33)
        path = tmp_path / "model.npz"
        save_checkpoint(params, seed=33, path=path)
        loaded, seed = load_checkpoint(path)
        assert seed == 33
        assert loaded.n_branches == 2
        for (_, a), (_, b) in zip(params.tensors(), loaded.tensors()):
            np.testing.assert_array_equal(a, b)
