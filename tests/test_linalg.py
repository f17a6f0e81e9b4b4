import numpy as np
import pytest
import scipy.sparse
from counting import plan_kind
from scipy.sparse.csgraph import connected_components  # a test-only oracle: the package never imports it

import pgcn.errors
from pgcn.errors import DataError, ShapeError
from pgcn.graphs import MetaColumn, build_graph
from pgcn.linalg import SparseSymMatrix, _component_labels, matmul, relu, softmax_rows, spmm


def random_symmetric_sparse(n, density, rng):
    """Dense-first construction of a random symmetric nonnegative matrix."""
    upper = np.triu(rng.random((n, n)), k=1)
    mask = np.triu(rng.random((n, n)) < density, k=1)
    dense = upper * mask
    dense = dense + dense.T
    return SparseSymMatrix.from_dense(dense), dense


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), b), b)

    def test_hand_evaluated_dot(self):
        # [[1,2]] @ [[3],[4]] = [[1*3 + 2*4]] = [[11]]
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, np.array([[11.0]]))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))
        assert "(2, 3)" in str(exc.value)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(5, 4))
            b = rng.normal(size=(4, 6))
            c = rng.normal(size=(6, 3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12)


class TestSpmm:
    def test_sparse_identity(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(spmm(SparseSymMatrix.from_dense(np.eye(4)), b), b)

    def test_permutation(self):
        s = SparseSymMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = spmm(s, np.eye(2))
        np.testing.assert_array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        s, dense = random_symmetric_sparse(8, 0.5, rng)
        b = rng.normal(size=(8, 3))
        assert np.max(np.abs(spmm(s, b) - dense @ b)) <= 1e-12

    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_matches_dense_oracle_over_densities(self, density):
        rng = np.random.default_rng(int(density * 100))
        for _ in range(10):
            n = int(rng.integers(2, 33))
            s, dense = random_symmetric_sparse(n, density, rng)
            b = rng.normal(size=(n, 5))
            # independent oracle: manual densify then numpy matmul
            np.testing.assert_array_equal(s.to_dense(), dense)
            assert np.max(np.abs(spmm(s, b) - s.to_dense() @ b)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            spmm(SparseSymMatrix.from_dense(np.eye(3)), np.zeros((4, 2)))

    def test_operator_must_be_sparse_sym_matrix(self):
        with pytest.raises(ShapeError, match="SparseSymMatrix"):
            spmm(np.eye(3), np.zeros((3, 2)))


def operator_of_kind(kind, n, rng):
    """A random symmetric operator whose components have the shape ``kind`` names.

    ``categorical``: about half of the pairs within each of four codes;
    ``random``: sparse enough to split into many components; ``band``:
    pairs of sorted values less than a threshold apart; ``singleton``:
    a diagonal; ``empty-row``: a sparse graph with no diagonal where a
    third of the rows, the first and the last among them, are empty.
    Every kind but ``empty-row`` has a positive diagonal, as a
    normalized operator does.
    """
    if kind == "categorical":
        codes = rng.integers(0, 4, n)
        adj = (codes[:, None] == codes[None, :]) & (rng.random((n, n)) < 0.5)
    elif kind == "random":
        adj = rng.random((n, n)) < 1.5 / n
    elif kind == "band":
        values = rng.random(n)
        adj = np.abs(values[:, None] - values[None, :]) < 4.0 / n
    elif kind == "singleton":
        adj = np.zeros((n, n), dtype=bool)
    else:
        adj = rng.random((n, n)) < 0.1
        empty = rng.random(n) < 1 / 3
        empty[[0, -1]] = True
        adj[empty] = False
        adj[:, empty] = False
    adj = np.triu(adj, k=1)
    weights = np.triu(rng.random((n, n)), k=1)
    dense = np.where(adj | adj.T, weights + weights.T, 0.0)
    if kind != "empty-row":
        dense += np.diag(0.5 + rng.random(n))
    return SparseSymMatrix.from_dense(dense)


KINDS = ["categorical", "random", "band", "singleton", "empty-row"]


class TestProductPlan:
    @pytest.mark.parametrize("kind", KINDS)
    def test_labels_match_csgraph(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for n in (1, 2, 7, 40, 150):
            s = operator_of_kind(kind, n, rng)
            _, component = connected_components(s.scipy(), directed=False)
            # the oracle numbers components in order of first vertex, so its smallest vertex names each one
            smallest = np.flatnonzero(np.r_[True, np.diff(np.maximum.accumulate(component)) > 0])
            assert _component_labels(s.indptr, s.indices).tolist() == smallest[component].tolist(), n

    def test_labels_of_a_long_path_converge(self):
        n = 5000
        up = np.arange(n - 1)
        s = SparseSymMatrix(n, np.r_[0, np.cumsum(np.bincount(np.r_[up, up + 1], minlength=n))],
                            np.column_stack([np.r_[-1, up], np.r_[up + 1, -1]]).ravel()[1:-1], np.ones(2 * n - 2))
        assert not _component_labels(s.indptr, s.indices).any()

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_matches_csr_within_rounding(self, kind):
        rng = np.random.default_rng(10 + KINDS.index(kind))
        for n in (1, 7, 40, 150):
            s = operator_of_kind(kind, n, rng)
            b = rng.normal(size=(n, 5))
            csr = s.scipy() @ b
            assert np.max(np.abs(spmm(s, b) - csr)) <= 1e-13 * max(1.0, np.max(np.abs(csr)))
            assert s._product_plan() is s._product_plan()  # made once and kept

    @pytest.mark.parametrize("column, kind", [("age", "csr"), ("site", "blocks"), ("dx", "blocks"),
                                              ("sex", "blocks")])
    def test_fill_rule_picks_the_path(self, column, kind):
        # the metadata graphs of the sparse benchmark workload at a fifth of its size: a band graph of
        # ages 1.6 years apart (its blocks about 3% full) stays CSR; 20- and 2-code graphs go dense
        rng = np.random.default_rng(31)
        n = 600
        values = {"age": 20.0 + 60.0 * rng.random(n), "site": rng.integers(0, 20, n),
                  "dx": rng.integers(0, 20, n), "sex": rng.integers(0, 2, n)}[column]
        col = MetaColumn(column, "continuous" if column == "age" else "categorical", values)
        op = build_graph(col, rng.normal(size=(n, 10)), beta=1.6).normalized
        assert plan_kind(op) == kind

    def test_blocks_beyond_physical_memory_keep_csr(self, monkeypatch):
        rng = np.random.default_rng(3)
        s = operator_of_kind("categorical", 40, rng)
        _, sizes = np.unique(_component_labels(s.indptr, s.indices), return_counts=True)
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: 8 * int(np.sum(sizes * sizes)) - 1)
        assert plan_kind(s) == "csr"
        b = rng.normal(size=(40, 3))
        assert spmm(s, b).tobytes() == (s.scipy() @ b).tobytes()


class TestRelu:
    def test_sign_split(self):
        np.testing.assert_array_equal(relu(np.array([[-1.0, 2.0]])), np.array([[0.0, 2.0]]))

    def test_all_zero(self):
        np.testing.assert_array_equal(relu(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_negative_zero_normalized(self):
        out = relu(np.array([[-0.0]]))
        assert out[0, 0] == 0.0
        assert not np.signbit(out[0, 0])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        once = relu(a)
        np.testing.assert_array_equal(relu(once), once)


class TestSoftmaxRows:
    def test_symmetric_row(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_shift_overflow_safety(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_two_zero_row(self):
        # high-precision value of e^2/(1+e^2), frozen from a 50-digit evaluation
        out = softmax_rows(np.array([[2.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.8807970779778824, 0.11920292202211756]], atol=5e-16)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        a = rng.normal(scale=10, size=(40, 7))
        out = softmax_rows(a)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)
        assert np.all(out <= 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(10, 4))
        shifted = a + rng.normal(size=(10, 1))
        assert np.max(np.abs(softmax_rows(a) - softmax_rows(shifted))) <= 1e-12


class TestSparseSymMatrix:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        _, dense = random_symmetric_sparse(12, 0.3, rng)
        s = SparseSymMatrix.from_dense(dense)
        np.testing.assert_array_equal(s.to_dense(), dense)

    def test_rejects_asymmetric_pattern(self):
        dense = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DataError):
            SparseSymMatrix.from_dense(dense)

    def test_rejects_asymmetric_values(self):
        with pytest.raises(DataError):
            SparseSymMatrix(
                2,
                indptr=[0, 1, 2],
                indices=[1, 0],
                data=[1.0, 1.0 + 1e-9],
            )

    @pytest.mark.parametrize("route", ["constructor", "from_dense"])
    @pytest.mark.parametrize("fault", ["pattern", "values"])
    def test_asymmetric_input_is_data_error(self, route, fault):
        dense = np.array([[0.0, 1.0], [0.0 if fault == "pattern" else 1.0 + 1e-9, 0.0]])
        csr = scipy.sparse.csr_matrix(dense)
        with pytest.raises(DataError, match=f"matrix {fault} (is|are) not symmetric"):
            if route == "from_dense":
                SparseSymMatrix.from_dense(dense)
            else:
                SparseSymMatrix(2, csr.indptr, csr.indices, csr.data)

    def test_rejects_a_stored_zero_opposite_a_nonzero(self):
        # within SYMMETRY_TOL, but the sum W + I in normalize drops the zero and keeps its pair
        with pytest.raises(DataError, match="values are not symmetric"):
            SparseSymMatrix(2, [0, 1, 2], [1, 0], [0.0, 1e-13])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            SparseSymMatrix(2, [0, 1, 2], [1, 0], [np.inf, np.inf])

    @pytest.mark.parametrize(
        "indptr, indices, bad_row",
        [
            ([0, 2, 3, 4], [2, 1, 0, 0], 0),      # decrease in the first row
            ([0, 1, 3, 3], [1, 0, 0], 1),         # column repeated inside a row
            ([0, 2, 2, 4], [1, 2, 2, 0], 2),      # decrease in a later row, after an empty row
        ],
        ids=["first-row-decrease", "repeated-column", "later-row-decrease"],
    )
    def test_rejects_unsorted_indices(self, indptr, indices, bad_row):
        with pytest.raises(DataError, match=f"in row {bad_row}$"):
            SparseSymMatrix(3, indptr, indices, np.ones(len(indices)))

    def test_accepts_column_drop_across_empty_row(self):
        # row 0 ends at column 2, row 1 is empty, row 2 starts at column 0
        s = SparseSymMatrix(3, [0, 1, 1, 2], [2, 0], [5.0, 5.0])
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = 5.0
        np.testing.assert_array_equal(s.to_dense(), expected)

    def test_row_sums(self):
        dense = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 0.0]])
        s = SparseSymMatrix.from_dense(dense)
        np.testing.assert_array_equal(s.row_sums(), dense.sum(axis=1))

    def test_row_sums_are_the_bits_of_a_left_to_right_sum(self):
        # values whose sum depends on the order of the additions; rows 0 and 5 store nothing
        rng = np.random.default_rng(8)
        n = 40
        pattern = np.triu(rng.random((n, n)) < 0.4)
        pattern[[0, 5], :] = pattern[:, [0, 5]] = False
        values = rng.choice([1e16, -1e16, 1.0, 1 / 3, -0.0, 5e-324], size=(n, n)) * rng.random((n, n))
        rows, cols = np.nonzero(pattern | pattern.T)
        upper = np.triu(values)
        data = (upper + upper.T)[rows, cols]
        s = SparseSymMatrix(n, np.searchsorted(rows, np.arange(n + 1)), cols, data)
        expected = []
        for i in range(n):
            total = 0.0
            for v in s.data[s.indptr[i]:s.indptr[i + 1]].tolist():
                total += v
            expected.append(total)
        assert s.row_sums()[[0, 5]].tolist() == [0.0, 0.0]
        assert s.row_sums().tobytes() == np.array(expected).tobytes()

    def test_constructor_copies_its_input(self):
        data = np.array([1.0, 1.0])
        s = SparseSymMatrix(2, [0, 1, 2], [1, 0], data)
        data[0] = 5.0
        np.testing.assert_array_equal(s.data, [1.0, 1.0])

    def test_copies_and_freezes_every_array_it_is_given(self):
        indptr, indices, data = np.array([0, 1, 2]), np.array([1, 0]), np.array([0.0, 0.0])
        s = SparseSymMatrix(2, indptr, indices, data)
        for given, held in ((indptr, s.indptr), (indices, s.indices), (data, s.data)):
            assert given.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(given, held)
        indptr[1], indices[0], data[:] = 2, 0, 7.0
        assert s.nnz == 2  # stored zeros stay entries
        np.testing.assert_array_equal(s.indptr, [0, 1, 2])
        np.testing.assert_array_equal(s.indices, [1, 0])
        np.testing.assert_array_equal(s.data, [0.0, 0.0])

    def test_immutability(self):
        s = SparseSymMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            s.data[0] = 2.0
