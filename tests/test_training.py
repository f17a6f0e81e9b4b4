from dataclasses import replace

import numpy as np
import pytest
from counting import count_spmm_calls, planned_graphs

import pgcn.errors
import pgcn.training
from pgcn.data import load_dataset, synth_generate, write_dataset
from pgcn.errors import ConsistencyError, DataError, ParameterError
from pgcn.graphs import build_graph
from pgcn.model import ModelParams, forward, init_params
from pgcn.training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainHistory,
    adam_step,
    as_operators,
    grad_check,
    init_adam_state,
    loss,
    split_masks,
    train,
)


def planted_setup(n=60, d=8, seed=0, strength=2.0, noise=1.0):
    dataset, informative, nuisance = synth_generate(
        n, d, seed=seed, informative_strength=strength, noise=noise
    )
    g_info = build_graph(informative, dataset.X)
    g_nui = build_graph(nuisance, dataset.X)
    return dataset, g_info, g_nui


class TestLoss:
    def test_uniform_predictor(self):
        probs = np.array([[0.5, 0.5]])
        y = np.array([[1.0, 0.0]])
        assert loss(probs, y, [True]) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_perfect_predictor(self):
        y = np.eye(3)
        assert loss(y, y, np.ones(3, dtype=bool)) <= 1e-12 * 3

    def test_frozen_two_row_value(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        # -(ln 0.9 + ln 0.8)/2, frozen from a 50-digit evaluation
        assert loss(probs, y, [True, True]) == pytest.approx(0.16425203348601803, abs=1e-15)

    def test_l2_penalty_added(self):
        params = init_params(3, 2, 2, 1, seed=0)
        y = np.eye(2)
        base = loss(y, y, [True, True])
        norm = sum(float(np.sum(t * t)) for t in params.theta0 + params.theta1)
        with_penalty = loss(y, y, [True, True], params, l2_lambda=0.5)
        assert with_penalty == pytest.approx(base + 0.5 * norm, rel=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ParameterError):
            loss(np.eye(2), np.eye(2), [False, False])

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(size=(6, 3))
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            y = np.eye(3)[rng.integers(0, 3, 6)]
            mask = rng.random(6) < 0.8
            mask[0] = True
            assert loss(p, y, mask) >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 2))
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        y = np.eye(2)[rng.integers(0, 2, 8)]
        mask = np.array([True, False] * 4)
        pi = rng.permutation(8)
        assert loss(p, y, mask) == pytest.approx(loss(p[pi], y[pi], mask[pi]), rel=1e-14)


class TestAdamStep:
    def make_scalar_params(self, value=1.0):
        params = ModelParams(
            theta0=[np.array([[value]])], theta1=[np.array([[value]])], omega=np.array([value])
        )
        return params, init_adam_state(params)

    def zero_grads(self, params):
        return ModelParams(
            theta0=[np.zeros_like(t) for t in params.theta0],
            theta1=[np.zeros_like(t) for t in params.theta1],
            omega=np.zeros_like(params.omega),
        )

    def test_zero_gradients_leave_params(self):
        params, state = self.make_scalar_params()
        before = params.copy()
        adam_step(params, self.zero_grads(params), state, lr=0.1, t=1)
        for (_, a), (_, b) in zip(params.tensors(), before.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_first_step_closed_form(self):
        params, state = self.make_scalar_params(0.0)
        grads = self.zero_grads(params)
        grads.theta0[0][0, 0] = 1.0
        adam_step(params, grads, state, lr=0.1, t=1)
        # m_hat = g, v_hat = g^2 -> delta = -lr * 1 / (1 + eps)
        expected = -0.1 / (1.0 + 1e-8)
        assert params.theta0[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_moment_decay_closed_form(self):
        params, state = self.make_scalar_params(0.0)
        grads = self.zero_grads(params)
        grads.omega[0] = 1.0
        adam_step(params, grads, state, lr=0.01, t=1)
        grads.omega[0] = 0.0
        # closed-form recursion, tracked independently
        m, v = 0.1, 0.001
        x = params.omega[0]
        for t in (2, 3):
            before = params.omega[0]
            adam_step(params, grads, state, lr=0.01, t=t)
            m, v = 0.9 * m, 0.999 * v
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            x = x - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert params.omega[0] == pytest.approx(x, rel=1e-12)
            assert abs(params.omega[0] - before) < 0.01  # drift below lr
        assert state.m.omega[0] == pytest.approx(0.081, rel=1e-12)

    def test_shape_mismatch(self):
        params, state = self.make_scalar_params()
        bad = ModelParams(
            theta0=[np.zeros((2, 2))], theta1=[np.zeros((1, 1))], omega=np.zeros(1)
        )
        with pytest.raises(ConsistencyError):
            adam_step(params, bad, state, lr=0.1, t=1)


class TestTrain:
    def quick_config(self, **kw):
        defaults = dict(max_epochs=40, omega_warmup_epochs=10, seed=3, hidden_width=8)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_learns_planted_data(self):
        dataset, g_info, _ = planted_setup(seed=1)
        params, history = train(dataset, [g_info], self.quick_config())
        assert history.records[-1].val_acc >= 0.9
        best = history.records[history.best_epoch - 1]
        assert best.train_loss < history.records[0].train_loss

    def test_linearly_separable_data_ten_seeds(self):
        # strong planted shift: classes are linearly separable, so the
        # trained model must clear 0.95 validation accuracy every seed
        for seed in range(10):
            dataset, informative, nuisance = synth_generate(
                200, 10, seed=seed, informative_strength=5.0, noise=1.0
            )
            graphs = [build_graph(informative, dataset.X), build_graph(nuisance, dataset.X)]
            _, history = train(dataset, graphs, TrainConfig(seed=seed))
            best = history.records[history.best_epoch - 1]
            assert best.val_acc >= 0.95, f"seed {seed}: {best.val_acc}"

    def test_omega_frozen_during_warmup(self):
        dataset, g_info, g_nui = planted_setup(seed=2)
        config = self.quick_config(omega_warmup_epochs=15)
        _, history = train(dataset, [g_info, g_nui], config)
        omegas = history.omegas()
        np.testing.assert_array_equal(omegas[:15], np.full((15, 2), 0.5))
        assert not np.array_equal(omegas[15], omegas[14])

    def test_fixed_omega_never_moves(self):
        dataset, g_info, g_nui = planted_setup(seed=3)
        _, history = train(
            dataset, [g_info, g_nui], self.quick_config(), fixed_omega=[0.2, 0.8]
        )
        np.testing.assert_array_equal(history.omegas(), np.tile([0.2, 0.8], (len(history), 1)))

    def test_fixed_omega_lands_in_returned_vector(self):
        # (0.8, 0.2) differs from the 1/M start, so a detached omega shows
        dataset, g_info, g_nui = planted_setup(seed=3)
        params, history = train(
            dataset, [g_info, g_nui], self.quick_config(max_epochs=5), fixed_omega=(0.8, 0.2)
        )
        assert tuple(params.omega) == (0.8, 0.2)
        np.testing.assert_array_equal(params.vector[-2:], [0.8, 0.2])
        assert history.records[0].omega == (0.8, 0.2)

    def test_best_snapshot_validation_loss_is_minimal(self):
        dataset, g_info, _ = planted_setup(seed=4)
        _, history = train(dataset, [g_info], self.quick_config(max_epochs=30))
        val_losses = [r.val_loss for r in history.records]
        assert val_losses[history.best_epoch - 1] <= min(val_losses)

    def test_bitwise_deterministic(self):
        dataset, g_info, g_nui = planted_setup(seed=5)
        config = self.quick_config(max_epochs=20)
        params_a, hist_a = train(dataset, [g_info, g_nui], config)
        params_b, hist_b = train(dataset, [g_info, g_nui], config)
        assert hist_a == hist_b
        for (_, a), (_, b) in zip(params_a.tensors(), params_b.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_identical_branches_match_single_branch_trajectory(self):
        # Linearity of the fusion layer: M copies of one branch at
        # omega=1/M behave like the single branch at omega=1.  Adam is
        # scale-invariant only up to its epsilon, so the comparison runs
        # with a tiny epsilon, no dropout, and no L2.
        dataset, g_info, _ = planted_setup(n=40, d=6, seed=6, strength=1.5)
        config = self.quick_config(
            max_epochs=10,
            omega_warmup_epochs=1000,
            dropout_p=0.0,
            l2_lambda=0.0,
            adam_eps=1e-12,
            hidden_width=6,
        )
        single = init_params(dataset.n_features, 6, 2, 1, seed=9)
        double = ModelParams(
            theta0=[single.theta0[0].copy(), single.theta0[0].copy()],
            theta1=[single.theta1[0].copy(), single.theta1[0].copy()],
            omega=np.array([0.5, 0.5]),
        )
        _, hist_single = train(dataset, [g_info], config, initial_params=single)
        _, hist_double = train(dataset, [g_info, g_info], config, initial_params=double)
        assert len(hist_single) == len(hist_double)
        for a, b in zip(hist_single.records, hist_double.records):
            assert abs(a.train_loss - b.train_loss) <= 1e-9
            assert abs(a.val_loss - b.val_loss) <= 1e-9
            assert a.val_acc == b.val_acc

    @pytest.mark.parametrize("dropout_p", [0.3, 0.0])
    def test_features_propagate_once_per_run(self, monkeypatch, dropout_p):
        dataset, g_info, g_nui = planted_setup(seed=4)
        epochs = 7
        config = self.quick_config(max_epochs=epochs, early_stop_patience=epochs, dropout_p=dropout_p)
        calls = count_spmm_calls(monkeypatch)
        _, history = train(dataset, [g_info, g_nui], config)
        assert len(history) == epochs
        # per branch-epoch: two products in each forward (train and eval) and two in the backward
        assert len(calls) == 2 * 6 * epochs

    def test_features_at_the_load_bound_train_to_a_finite_history(self, tmp_path):
        dataset, informative, nuisance = synth_generate(60, 4, seed=0, informative_strength=2.0, noise=1.0)
        fmax = np.finfo(np.float64).max
        scale = np.sqrt(0.999 * fmax / np.max(np.sum(dataset.X * dataset.X, axis=1)))
        huge = load_dataset(*write_dataset(replace(dataset, X=dataset.X * scale), tmp_path))
        assert 0.99 * fmax < np.max(np.sum(huge.X * huge.X, axis=1)) < fmax  # just under the bound
        graphs = [build_graph(col, huge.X) for col in (informative, nuisance)]
        params, history = train(huge, graphs, self.quick_config())
        assert np.all(np.isfinite(params.vector))
        for r in history.records:
            assert np.all(np.isfinite([r.train_loss, r.val_loss, r.val_acc, *r.omega])), r.epoch

    def test_stop_reason_max_epochs(self):
        dataset, g_info, _ = planted_setup(seed=1)
        _, history = train(dataset, [g_info], self.quick_config(max_epochs=12, early_stop_patience=12))
        assert len(history) == 12
        assert history.stop_reason == "max_epochs"

    def test_stop_reason_early_stop(self):
        dataset, g_info, _ = planted_setup(seed=1)
        _, history = train(dataset, [g_info], self.quick_config(max_epochs=300, early_stop_patience=3))
        assert len(history) < 300
        assert len(history) - history.best_epoch == 3
        assert history.stop_reason == "early_stop"

    def test_no_graphs_rejected(self):
        dataset, _, _ = planted_setup(seed=7)
        with pytest.raises(ParameterError):
            train(dataset, [], self.quick_config())

    def test_bare_operator_rejected(self):
        dataset, g_info, _ = planted_setup(seed=7)
        with pytest.raises(ParameterError, match="graph 1 is a SparseSymMatrix, not an AffinityGraph"):
            train(dataset, [g_info, g_info.normalized], self.quick_config())

    def test_hidden_width_beyond_physical_memory_fails_before_init(self, monkeypatch):
        dataset, g_info, _ = planted_setup(n=60, d=8, seed=7)
        needed = (60 + 8) * 8 * 8  # one 60 x 8 hidden layer and the 8 x 8 weights, float64
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: needed)
        train(dataset, [g_info], self.quick_config(max_epochs=1))
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: needed - 1)
        monkeypatch.setattr(pgcn.training, "init_params", None)  # reaching it would raise TypeError
        with pytest.raises(ParameterError, match=rf"hidden_width=8 needs {needed} bytes"):
            train(dataset, [g_info], self.quick_config(max_epochs=1))

    def test_empty_training_mask_rejected(self):
        dataset, g_info, _ = planted_setup(seed=8)
        n = dataset.n_subjects
        with pytest.raises(ParameterError):
            train(
                dataset,
                [g_info],
                self.quick_config(),
                train_mask=np.zeros(n, dtype=bool),
                val_mask=np.ones(n, dtype=bool),
            )

    @pytest.mark.parametrize("given", ["train_mask", "val_mask"])
    def test_one_mask_without_the_other_rejected(self, given):
        dataset, g_info, _ = planted_setup(seed=8)
        masks = dict(zip(("train_mask", "val_mask"), split_masks(dataset, 0.2, 0, 3)))
        with pytest.raises(ParameterError, match="train_mask and val_mask go together: pass both or neither"):
            train(dataset, [g_info], self.quick_config(max_epochs=2), **{given: masks[given]})

    def test_fixed_omega_of_wrong_length_rejected_before_init(self, monkeypatch):
        dataset, g_info, g_nui = planted_setup(seed=8)
        monkeypatch.setattr(pgcn.training, "init_params", None)  # reaching the initialization would raise TypeError
        with pytest.raises(ParameterError, match=r"fixed omega needs 2 entries, got \(3,\)"):
            train(dataset, [g_info, g_nui], self.quick_config(), fixed_omega=(0.2, 0.3, 0.5))

    @pytest.mark.parametrize("shape", ["branches", "features"])
    def test_initial_params_that_do_not_fit_rejected_before_init(self, monkeypatch, shape):
        dataset, g_info, g_nui = planted_setup(n=60, d=8, seed=8)
        params = init_params(8, 4, 2, 1, seed=0) if shape == "branches" else init_params(5, 4, 2, 2, seed=0)
        monkeypatch.setattr(pgcn.training, "init_params", None)  # reaching the initialization would raise TypeError
        with pytest.raises(ConsistencyError, match="initial_params do not fit"):
            train(dataset, [g_info, g_nui], self.quick_config(), initial_params=params)

    @pytest.mark.parametrize("dropout_p", [0.3, 0.0])
    def test_best_probs_are_the_returned_params_evaluated(self, monkeypatch, dropout_p):
        dataset, g_info, g_nui = planted_setup(seed=5)
        config = TrainConfig(max_epochs=60, omega_warmup_epochs=5, early_stop_patience=3, seed=3,
                             hidden_width=16, dropout_p=dropout_p)
        widths = count_spmm_calls(monkeypatch)
        for plan in ("blocks", "csr"):
            graphs = planned_graphs([g_info, g_nui], plan, monkeypatch)
            for r, seed in enumerate(range(11, 14)):
                widths.clear()
                params, history = train(dataset, graphs, replace(config, seed=seed), *split_masks(dataset, 0.2, r, 7))
                assert history.best_epoch < len(history)  # the best epoch is not the last one
                # six products per branch and epoch, on either plan
                assert len(widths) == 2 * 6 * len(history)
                assert max(widths) == 16
                expected = forward(dataset.X, as_operators(graphs), params).probs
                assert history.best_probs.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the case under test
    def test_run_that_never_improves_is_parameter_error(self):
        dataset, g_info, _ = planted_setup(n=40, seed=1)
        config = self.quick_config(learning_rate=1e300, max_epochs=5, early_stop_patience=2)
        with pytest.raises(ParameterError, match="learning_rate"):
            train(dataset, [g_info], config)


class TestGradCheck:
    def small_instance(self, seed):
        dataset, g_info, g_nui = planted_setup(n=20, d=5, seed=seed)
        params = init_params(5, 4, 2, 2, seed=seed + 1)
        return dataset, [g_info, g_nui], params

    def test_below_threshold_with_l2(self):
        dataset, graphs, params = self.small_instance(10)
        assert grad_check(dataset, graphs, params, l2_lambda=5e-4) < 1e-5

    def test_below_threshold_without_l2(self):
        dataset, graphs, params = self.small_instance(11)
        assert grad_check(dataset, graphs, params, l2_lambda=0.0) < 1e-5

    def test_features_propagate_once_per_call(self, monkeypatch):
        dataset, graphs, params = self.small_instance(10)
        calls = count_spmm_calls(monkeypatch)
        grad_check(dataset, graphs, params)
        # per branch: two products each in the forward and backward of the analytic gradient; both
        # probes of a layer weight recompute its own branch's two products, and an omega probe none
        theta_entries = params.vector.size - params.n_branches
        assert len(calls) == 4 * params.n_branches + 4 * theta_entries

    def test_omega_entries_alone(self):
        from pgcn.model import backward, forward
        from pgcn.training import loss as loss_fn

        dataset, graphs, params = self.small_instance(12)
        ops = [g.normalized for g in graphs]
        cache = forward(dataset.X, ops, params)
        analytic = backward(cache, dataset.Y, dataset.labeled_mask, 5e-4).omega
        eps = 1e-6
        for m in range(2):
            orig = params.omega[m]
            params.omega[m] = orig + eps
            up = loss_fn(forward(dataset.X, ops, params).probs, dataset.Y, dataset.labeled_mask, params, 5e-4)
            params.omega[m] = orig - eps
            down = loss_fn(forward(dataset.X, ops, params).probs, dataset.Y, dataset.labeled_mask, params, 5e-4)
            params.omega[m] = orig
            numeric = (up - down) / (2 * eps)
            rel = abs(analytic[m] - numeric) / max(1e-8, abs(analytic[m]) + abs(numeric))
            assert rel < 1e-5


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        dataset, g_info, g_nui = planted_setup(seed=13)
        config = TrainConfig(max_epochs=12, omega_warmup_epochs=4, seed=13, hidden_width=8)
        _, history = train(dataset, [g_info, g_nui], config)
        path = tmp_path / "history.csv"
        history.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,val_acc,omega_1,omega_2"
        loaded = TrainHistory.from_csv(path)
        assert loaded.records == history.records
        assert loaded.stop_reason is None
        assert loaded.best_probs is None

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2\n")
        with pytest.raises(DataError):
            TrainHistory.from_csv(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("epoch,train_loss,val_loss,val_acc\n1,0.5,0.5,1\n", ": malformed omega columns"),
            ("epoch,train_loss,val_loss,val_acc,omega_2\n1,0.5,0.5,1,1\n", ": malformed omega columns"),
            ("epoch,train_loss,val_loss,val_acc,omega_1\n1,0.5,0.5,1,1\n2,0.4,0.5\n", ":3: expected 5 cells"),
            ("epoch,train_loss,val_loss,val_acc,omega_1\n1,0.5,x,1,1\n", ":2: unparseable value"),
            ("epoch,train_loss,val_loss,val_acc,omega_1\n", ": history has no epochs"),
        ],
        ids=["no-omega", "omega-misnumbered", "cell-count", "unparseable", "no-epochs"],
    )
    def test_faulty_file_names_its_fault(self, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(DataError) as exc:
            TrainHistory.from_csv(bad)
        assert str(exc.value) == f"{bad}{message}"

    def test_blank_lines_are_skipped_and_faults_name_the_file_line(self, tmp_path):
        path = tmp_path / "history.csv"
        header = "epoch,train_loss,val_loss,val_acc,omega_1"
        path.write_text(f"\n{header}\n\n1,0.5,0.25,1.0,-0.0\n \n2,nan,inf,0.5,5e-324\n\n")
        loaded = TrainHistory.from_csv(path)
        assert [r.epoch for r in loaded.records] == [1, 2]
        assert loaded.records[1].omega == (5e-324,)
        path.write_text(f"{header}\n\n1,0.5,0.25,1.0,1\n\n2,0.5\n")
        with pytest.raises(DataError, match=r":5: expected 5 cells$"):
            TrainHistory.from_csv(path)

    def test_quoted_cell_is_an_unparseable_value(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text('epoch,train_loss,val_loss,val_acc,omega_1\n"1",0.5,0.25,1.0,1\n')
        with pytest.raises(DataError, match=r":2: unparseable value$"):
            TrainHistory.from_csv(path)

    @pytest.mark.parametrize("omegas", [[], [()], [(0.5,), (0.5, 0.5)]], ids=["no-epochs", "no-omega", "ragged"])
    def test_history_from_csv_cannot_read_is_refused_before_writing(self, tmp_path, omegas):
        records = [EpochRecord(k + 1, 0.5, 0.5, 1.0, omega) for k, omega in enumerate(omegas)]
        with pytest.raises(DataError, match="a history needs epochs with one nonzero count of omegas"):
            TrainHistory(records=records).to_csv(tmp_path / "history.csv")
        assert list(tmp_path.iterdir()) == []
