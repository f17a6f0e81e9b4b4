"""Dense and sparse linear-algebra kernels used throughout the package.

Dense matrices are plain 2-D ``numpy.ndarray`` objects in float64;
:class:`SparseSymMatrix` stores symmetric operators (graph adjacencies and
their normalized forms) in compressed sparse row layout.  Everything here
is a pure function of its inputs: the public constructor copies and checks
the arrays it is given, pgcn's graph builders hand over arrays they own, and
every operator's arrays are frozen and its product plan derived from them.
"""

import numpy as np
import scipy.sparse

from .errors import DataError, ShapeError, require_memory

__all__ = [
    "SparseSymMatrix",
    "as_dense",
    "matmul",
    "spmm",
    "relu",
    "softmax_rows",
]

# Value tolerance when checking that a sparse matrix is symmetric.
SYMMETRY_TOL = 1e-12

# Products go through the dense diagonal blocks of an operator's connected components when its stored entries
# fill at least this share of the blocks' cells; sparser operators keep the CSR product.
DENSE_BLOCK_FILL = 0.2


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
    """Sparse-dense product ``s @ b`` for a symmetric sparse operator, by the operator's product plan.

    An operator's first product labels its connected components.  When its
    stored entries fill at least ``DENSE_BLOCK_FILL`` of their dense
    diagonal blocks, and the blocks fit in physical memory, the operator
    keeps those blocks and every product is one dense GEMM per run of
    equal-sized blocks (one plain dense GEMM when one component spans the
    operator); otherwise it is scipy's CSR product.  The two sum each row
    in another order, so they agree to within rounding, and one operator
    always takes the same path.
    """
    if not isinstance(s, SparseSymMatrix):
        raise ShapeError("spmm expects a SparseSymMatrix on the left")
    b = as_dense(b, "right operand")
    if s.dim != b.shape[0]:
        raise ShapeError(f"cannot multiply sparse ({s.dim}, {s.dim}) by {b.shape}")
    plan = s._product_plan()
    if not isinstance(plan, tuple):  # the CSR matrix, or the whole operator as one dense block
        return plan @ b
    out = np.empty(b.shape)
    for rows, blocks in plan:
        out[rows] = blocks @ b[rows]
    return out


class SparseSymMatrix:
    """Symmetric sparse matrix: a validated, frozen ``scipy.sparse.csr_matrix``.

    The constructor copies and validates the arrays it is given: column
    indices strictly increasing within each row, the nonzero pattern
    symmetric, paired values equal within ``SYMMETRY_TOL``, every value
    finite.  :meth:`_built` keeps the arrays of a matrix pgcn built
    symmetric, checked for all but symmetry.  Either way they are frozen.
    """

    __slots__ = ("dim", "_csr", "_plan")

    def __init__(self, dim, indptr, indices, data):
        dim = int(dim)
        indptr, indices, data = np.asarray(indptr), np.asarray(indices), np.asarray(data, dtype=np.float64)
        _validate_structure(dim, indptr, indices, data)
        self._adopt(scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim), copy=True))
        _validate_symmetry(self._csr)

    @classmethod
    def _built(cls, csr):
        """Adopt a float64 CSR matrix whose builder guarantees symmetry; the caller gives up its arrays."""
        _validate_structure(csr.shape[0], csr.indptr, csr.indices, csr.data)
        return cls.__new__(cls)._adopt(csr)

    def _adopt(self, csr):
        self.dim, self._csr, self._plan = csr.shape[0], csr, None
        for arr in (csr.indptr, csr.indices, csr.data):
            arr.setflags(write=False)
        return self

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

    def _product_plan(self):
        """What :func:`spmm` multiplies by, made on the first product and kept; see :func:`_plan_products`."""
        if self._plan is None:
            self._plan = _plan_products(self._csr)
        return self._plan

    def row_sums(self):
        """Each row's stored entries added left to right from 0.0; an empty row sums to 0.0."""
        return self._csr @ np.ones(self.dim)

    def __repr__(self):
        return f"SparseSymMatrix(dim={self.dim}, nnz={self.nnz})"


def _plan_products(csr):
    """The CSR matrix, the whole operator as one dense array, or ``(rows, blocks)`` runs of dense blocks.

    Components are ranked by size, then by smallest vertex, and their
    blocks scattered into one flat buffer, so the components of one size
    form one run: ``rows`` is a ``(c, k)`` array of each component's
    vertices in ascending order and ``blocks`` the ``(c, k, k)`` stack of
    their diagonal blocks, both read-only views.
    """
    n = csr.shape[0]
    _, component, sizes = np.unique(_component_labels(csr.indptr, csr.indices), return_inverse=True,
                                    return_counts=True)
    cells = int(np.sum(sizes * sizes))
    if not n or csr.nnz < DENSE_BLOCK_FILL * cells:
        return csr
    try:
        require_memory(8 * cells, DataError, "dense diagonal blocks")
    except DataError:
        return csr
    if len(sizes) == 1:
        return csr.toarray()
    by_size = np.argsort(sizes, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(len(sizes))
    sizes = sizes[by_size]
    vertex_rank = rank[component]
    order = np.argsort(vertex_rank, kind="stable")  # vertices by component rank, ascending within one
    starts = np.cumsum(sizes) - sizes               # each component's first place in order
    place = np.empty(n, dtype=np.intp)              # each vertex's place inside its component
    place[order] = np.arange(n) - np.repeat(starts, sizes)
    offsets = np.cumsum(sizes * sizes) - sizes * sizes
    flat = np.zeros(cells)
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    ranks = vertex_rank[rows]
    flat[offsets[ranks] + place[rows] * sizes[ranks] + place[csr.indices]] = csr.data
    for arr in (order, flat):
        arr.setflags(write=False)
    plan = []
    for k in np.unique(sizes):
        lo, hi = np.searchsorted(sizes, [k, k + 1])
        c = hi - lo
        plan.append((order[starts[lo]:starts[lo] + c * k].reshape(c, k),
                     flat[offsets[lo]:offsets[lo] + c * k * k].reshape(c, k, k)))
    return tuple(plan)


def _component_labels(indptr, indices):
    """Each vertex's connected component in a symmetric pattern, named by the component's smallest vertex.

    Min-label propagation with pointer jumping: a vertex takes the smallest
    label among itself and its neighbours, then every label is replaced by
    its own label until none changes.  A label is always a vertex of the
    same component and never larger than the vertex it labels, so when a
    round changes nothing each component carries its smallest vertex.
    """
    labels = np.arange(len(indptr) - 1, dtype=indices.dtype)
    # reduceat over empty rows would hand each one the next row's first entry, so reduce the others only
    filled = np.flatnonzero(indptr[:-1] < indptr[1:])
    starts = indptr[filled]
    while True:
        low = labels.copy()
        if filled.size:
            low[filled] = np.minimum(low[filled], np.minimum.reduceat(labels[indices], starts))
        jumped = low[low]
        while not np.array_equal(jumped, low):
            low, jumped = jumped, jumped[jumped]
        if np.array_equal(low, labels):
            return labels
        labels = low


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
    """Identical pattern under transpose, paired values within ``SYMMETRY_TOL``, and a zero only opposite a zero."""
    t = csr.T.tocsr()
    t.sort_indices()
    if not (np.array_equal(t.indptr, csr.indptr) and np.array_equal(t.indices, csr.indices)):
        raise DataError("sparse matrix pattern is not symmetric")
    diff = t.data - csr.data  # abs in place: one full-length temporary; normalize's W + I drops zeros, so they pair
    if diff.size and (np.max(np.abs(diff, out=diff)) > SYMMETRY_TOL or np.any((t.data == 0) != (csr.data == 0))):
        raise DataError("sparse matrix values are not symmetric")
