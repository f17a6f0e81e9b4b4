import numpy as np
import pytest

from pgcn.errors import DataError, ShapeError
from pgcn.linalg import SparseSymMatrix, matmul, relu, softmax_rows, spmm


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
