"""Dense and sparse linear-algebra kernels used throughout the package.

Dense matrices are plain 2-D ``numpy.ndarray`` objects in float64;
:class:`SparseSymMatrix` stores symmetric operators (graph adjacencies and
their normalized forms) in compressed sparse row layout.  Everything here
is a pure function of its inputs: arrays handed to constructors are copied
and frozen.
"""

import numpy as np
import scipy.sparse

from .errors import DataError, ShapeError

__all__ = [
    "SparseSymMatrix",
    "as_dense",
    "matmul",
    "spmm",
    "spmm_blocks",
    "relu",
    "softmax_rows",
]

# Value tolerance when checking that a sparse matrix is symmetric.
SYMMETRY_TOL = 1e-12


def as_dense(a, name="matrix"):
    """Coerce ``a`` to a 2-D float64 array, raising ShapeError otherwise."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def matmul(a, b):
    """Dense matrix product ``a @ b``."""
    a = as_dense(a, "left operand")
    b = as_dense(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ")
    return a @ b


def relu(a):
    """Elementwise max(0, x); negative zeros come out as +0.0."""
    return np.maximum(as_dense(a), 0.0)


def softmax_rows(a):
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    a = as_dense(a)
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def spmm(s, b):
    """Sparse-dense product ``s @ b`` for a symmetric sparse operator."""
    if not isinstance(s, SparseSymMatrix):
        raise ShapeError("spmm expects a SparseSymMatrix on the left")
    b = as_dense(b, "right operand")
    if s.dim != b.shape[0]:
        raise ShapeError(f"cannot multiply sparse ({s.dim}, {s.dim}) by {b.shape}")
    return s.scipy() @ b


def spmm_blocks(s, blocks):
    """``[spmm(s, block) for block in blocks]`` from one product over the blocks laid side by side.

    A CSR product computes each output column from its own input column
    alone, so every block comes back bitwise equal to ``spmm(s, block)``,
    split back into contiguous arrays.
    """
    if len(blocks) == 1:
        return [spmm(s, blocks[0])]
    wide = spmm(s, np.hstack(blocks))
    bounds = np.cumsum([b.shape[1] for b in blocks[:-1]])
    return [np.ascontiguousarray(part) for part in np.hsplit(wide, bounds)]


class SparseSymMatrix:
    """Symmetric sparse matrix: a validated, frozen ``scipy.sparse.csr_matrix``.

    Structure is validated on construction: column indices strictly
    increasing within each row, the nonzero pattern symmetric, paired
    values equal within ``SYMMETRY_TOL``, and every value finite.  The
    underlying arrays are frozen after validation.
    """

    __slots__ = ("dim", "_csr")

    def __init__(self, dim, indptr, indices, data):
        self.dim = int(dim)
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        data = np.asarray(data, dtype=np.float64)
        _validate_structure(self.dim, indptr, indices, data)
        self._csr = scipy.sparse.csr_matrix((data, indices, indptr), shape=(self.dim, self.dim), copy=True)
        _validate_symmetry(self._csr)
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)

    @classmethod
    def from_dense(cls, a):
        """Build from a dense symmetric array, keeping exact nonzeros."""
        a = as_dense(a)
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected a square matrix, got {a.shape}")
        csr = scipy.sparse.csr_matrix(a)
        return cls(a.shape[0], csr.indptr, csr.indices, csr.data)

    @property
    def indptr(self):
        return self._csr.indptr

    @property
    def indices(self):
        return self._csr.indices

    @property
    def data(self):
        return self._csr.data

    @property
    def nnz(self):
        return self._csr.nnz

    def scipy(self):
        """The underlying ``scipy.sparse.csr_matrix``; its arrays are read-only."""
        return self._csr

    def to_dense(self):
        """Expand to a dense array."""
        return self._csr.toarray()

    def row_sums(self):
        sums = np.zeros(self.dim)
        rows = np.repeat(np.arange(self.dim), np.diff(self.indptr))
        np.add.at(sums, rows, self.data)
        return sums

    def __repr__(self):
        return f"SparseSymMatrix(dim={self.dim}, nnz={self.nnz})"


def _validate_structure(n, indptr, indices, data):
    """Check raw CSR arrays before scipy wraps them; finiteness included."""
    if n < 0:
        raise ShapeError("dimension must be nonnegative")
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(indices):
        raise DataError("malformed CSR row offsets")
    row_lengths = np.diff(indptr)
    if np.any(row_lengths < 0):
        raise DataError("CSR row offsets must be nondecreasing")
    if len(indices) != len(data):
        raise DataError("CSR index and value arrays differ in length")
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        raise DataError("CSR column index out of range")
    # A step between neighbouring entries must increase unless it starts a new row.
    rows = np.repeat(np.arange(n), row_lengths)
    bad = np.flatnonzero((np.diff(indices) <= 0) & (np.diff(rows) == 0))
    if bad.size:
        raise DataError(f"column indices not strictly increasing in row {int(rows[bad[0]])}")
    if not np.all(np.isfinite(data)):
        raise DataError("sparse matrix contains non-finite values")


def _validate_symmetry(csr):
    """Identical pattern under transpose and values matching within ``SYMMETRY_TOL``."""
    t = csr.T.tocsr()
    t.sort_indices()
    if not (np.array_equal(t.indptr, csr.indptr) and np.array_equal(t.indices, csr.indices)):
        raise DataError("sparse matrix pattern is not symmetric")
    diff = t.data - csr.data
    if diff.size and np.max(np.abs(diff, out=diff)) > SYMMETRY_TOL:  # in place: one full-length temporary
        raise DataError("sparse matrix values are not symmetric")
