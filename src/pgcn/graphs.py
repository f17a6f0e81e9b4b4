"""Population-graph construction from per-subject metadata.

One graph is built per metadata element (age, gender, acquisition site,
...): subjects become vertices, an edge joins two subjects whose values
for that element agree (categorical) or differ by less than a threshold
(continuous), and each surviving edge is weighted by the feature
similarity of its endpoints.  The propagation operator used by the model
is the symmetrically normalized weight matrix with self-loops,
``D^{-1/2} (W + I) D^{-1/2}``.
"""

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import DataError, ParameterError, ShapeError, read_text
from .linalg import SparseSymMatrix, as_dense

__all__ = [
    "MetaColumn",
    "AffinityGraph",
    "build_edges",
    "similarity_matrix",
    "build_affinity",
    "normalize",
    "random_graph",
    "build_graph",
    "save_edge_list",
    "load_edge_list",
]

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

DEFAULT_BETA = 2.0

# Bytes per vertex sized from an edge list's header: load_edge_list and normalize hold at most twelve
# N-entry arrays of 8-byte values at once.
EDGE_LIST_VERTEX_BYTES = 12 * 8


@dataclass(frozen=True, eq=False)
class MetaColumn:
    """One metadata element: a named categorical or continuous column."""

    name: str
    kind: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise ParameterError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == CONTINUOUS:
            vals = np.asarray(self.values, dtype=np.float64)
            if not np.all(np.isfinite(vals)):
                bad = int(np.flatnonzero(~np.isfinite(vals))[0])
                raise DataError(f"column {self.name!r} has non-finite value at row {bad}")
        else:
            vals = np.asarray([str(v) for v in self.values])
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    """Similarity weights and normalized operator for one element.

    The stored pattern of ``weights`` is the edge set: an edge whose
    clamped similarity is zero is a stored ``0.0``.
    """

    weights: SparseSymMatrix      # W >= 0, stored exactly on the edges
    normalized: SparseSymMatrix   # D^{-1/2} (W + I) D^{-1/2}
    source: str

    @property
    def edges(self):
        """The edge set as a boolean CSR matrix over W's frozen index arrays."""
        w = self.weights
        flags = np.ones(w.nnz, dtype=bool)
        flags.setflags(write=False)
        return scipy.sparse.csr_matrix((flags, w.indices, w.indptr), shape=(w.dim, w.dim))

    @property
    def n(self):
        return self.weights.dim

    @property
    def edge_count(self):
        return self.weights.nnz // 2

    @property
    def density(self):
        pairs = self.n * (self.n - 1) // 2
        return self.edge_count / pairs if pairs else 0.0


def build_edges(col, beta=None):
    """Boolean adjacency from one metadata column.

    Continuous columns connect subjects whose values differ by strictly
    less than ``beta``; categorical columns connect equal codes.  The
    result is symmetric with an empty diagonal.
    """
    n = len(col)
    if n < 2:
        raise ParameterError(f"need at least 2 subjects to build a graph, got {n}")
    if col.kind == CONTINUOUS:
        if beta is None:
            beta = DEFAULT_BETA
        if not beta > 0:
            raise ParameterError(f"threshold for continuous column {col.name!r} must be > 0, got {beta}")
        v = col.values
        diff = v[:, None] - v[None, :]
        adj = np.abs(diff, out=diff) < beta
    else:
        v = col.values
        adj = v[:, None] == v[None, :]
    np.fill_diagonal(adj, False)
    return adj


def similarity_matrix(x, metric="pearson"):
    """Pairwise feature similarity between subjects (rows of ``x``).

    ``pearson`` (the default) is the correlation coefficient of the two
    feature rows; ``cosine`` is the angle-based alternative.  Values are
    clamped to [-1, 1] and the diagonal is fixed at 1.
    """
    x = as_dense(x, "feature matrix")
    if metric == "pearson":
        stds = x.std(axis=1)
        degenerate = np.flatnonzero(~(stds > 0))
        if degenerate.size:
            raise DataError(f"subject {int(degenerate[0])} has zero feature variance")
        sim = np.atleast_2d(np.corrcoef(x))  # corrcoef of one row is a scalar
    elif metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        degenerate = np.flatnonzero(~(norms > 0))
        if degenerate.size:
            raise DataError(f"subject {int(degenerate[0])} has a zero feature vector")
        unit = x / norms[:, None]
        sim = unit @ unit.T
    else:
        raise ParameterError(f"unknown similarity metric {metric!r}")
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return sim


def build_affinity(sim, edges):
    """Mask similarities onto the edge set, clamping negatives to zero.

    Normalization assumes nonnegative weights, so an edge whose endpoint
    features anti-correlate keeps the edge as a stored zero weight.  Only
    edge pairs are weighted, each by ``0.5 * (w_ij + w_ji)`` of its
    clamped similarities, which forces bitwise symmetry against BLAS
    rounding in ``sim``.
    """
    sim = as_dense(sim, "similarity matrix")
    edges = np.asarray(edges, dtype=bool)
    if edges.ndim != 2 or edges.shape[0] != edges.shape[1]:
        raise ShapeError(f"adjacency must be square, got {edges.shape}")
    if sim.shape != edges.shape:
        raise ShapeError(f"similarity {sim.shape} does not match adjacency {edges.shape}")
    if not np.array_equal(edges, edges.T):
        raise DataError("adjacency is not symmetric")
    rows, cols = np.nonzero(edges)  # row-major, the order CSR stores
    w = np.maximum(sim[rows, cols], 0.0)
    w += np.maximum(sim[cols, rows], 0.0)
    w *= 0.5  # 0.5 * (w_ij + w_ji) exactly, in place to keep the peak low
    return _csr_from_row_major(edges.shape[0], rows, cols, w)


def _csr_from_row_major(n, rows, cols, values):
    """Symmetric CSR from its nonzero entries listed in row-major order."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return SparseSymMatrix(n, indptr, cols, values)


def normalize(w):
    """Self-loop-augmented symmetric normalization D^{-1/2} (W + I) D^{-1/2}."""
    if not isinstance(w, SparseSymMatrix):
        w = SparseSymMatrix.from_dense(w)
    degrees = w.row_sums() + 1.0  # +1 from the identity self-loop
    bad = np.flatnonzero(degrees <= 0)
    if bad.size:
        raise DataError(f"vertex {bad[0]} has degree {float(degrees[bad[0]])!r} <= 0 (1 + row sum); "
                        "normalization needs positive degrees")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    a = w.scipy() + scipy.sparse.identity(w.dim, format="csr")
    rows = np.repeat(np.arange(w.dim), np.diff(a.indptr))
    # (W + I)_ij * s_i * s_j, multiplied in that order
    return SparseSymMatrix(w.dim, a.indptr, a.indices, a.data * inv_sqrt[rows] * inv_sqrt[a.indices])


def random_graph(n, density, seed):
    """Erdos-Renyi graph with unit edge weights; deterministic per seed."""
    if n < 2:
        raise ParameterError(f"random graph needs n >= 2, got {n}")
    if not 0.0 < density <= 1.0:
        raise ParameterError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    weights = SparseSymMatrix.from_dense((upper | upper.T).astype(np.float64))
    return AffinityGraph(weights=weights, normalized=normalize(weights), source="random")


def build_graph(col, features, beta=None, metric="pearson"):
    """Full pipeline for one metadata element: edges, weights, normalization."""
    edges = build_edges(col, beta=beta)  # before the similarity, so the two peaks do not overlap
    weights = build_affinity(similarity_matrix(features, metric=metric), edges)
    return AffinityGraph(weights=weights, normalized=normalize(weights), source=col.name)


def save_edge_list(graph, path):
    """Write a graph as a text edge list: ``n <N>`` then ``i j weight`` per edge.

    Every edge, the stored pattern of W, is listed once (i < j), including
    edges whose clamped weight is zero; weights carry 17 significant
    digits so a reload is bit-exact.
    """
    w = graph.weights
    rows = np.repeat(np.arange(w.dim), np.diff(w.indptr))
    upper = np.flatnonzero(w.indices > rows)  # row-major, as CSR stores it
    rows, cols, weights = rows[upper], w.indices[upper], w.data[upper]
    triples = itertools.chain.from_iterable(zip(rows.tolist(), cols.tolist(), weights.tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {graph.n}\n" + ("%d %d %.17g\n" * len(rows)) % tuple(triples))


def _physical_memory_bytes():
    """Physical memory of the machine, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def load_edge_list(path, source=None):
    """Read a graph written by :func:`save_edge_list` and renormalize it.

    Blank lines are allowed anywhere.  The ``n <N>`` header is checked
    against physical memory, ``EDGE_LIST_VERTEX_BYTES`` per vertex for
    the arrays sized from N, before anything is sized from it.  A
    zero-weight edge is a stored zero of the weights.  A faulty file
    raises :class:`DataError` naming the 1-based file line of its first
    faulty line.
    """
    if source is None:
        source = os.path.splitext(os.path.basename(path))[0]
    lines = read_text(path, "ascii", DataError).split("\n")
    start = next((k for k, line in enumerate(lines) if line.strip()), len(lines))
    header = lines[start].strip() if start < len(lines) else ""
    if not header.startswith("n "):
        raise DataError(f"{path}: missing 'n <N>' header")
    try:
        n = int(header.split()[1])
    except (IndexError, ValueError) as exc:
        raise DataError(f"{path}: malformed header {header!r}") from exc
    if n < 1:
        raise DataError(f"{path}: vertex count must be positive, got {n}")
    memory = _physical_memory_bytes()
    if memory is not None and n * EDGE_LIST_VERTEX_BYTES > memory:
        raise DataError(f"{path}: n={n} needs {n * EDGE_LIST_VERTEX_BYTES} bytes of vertex arrays, "
                        f"more than the {memory} bytes of physical memory")
    i, j, weight = _parse_edges(path, start + 2, lines[start + 1:], n)
    weight += 0.0  # a "-0" weight is stored as +0.0, so the writer prints "0" as for every other zero
    rows, cols, values = np.concatenate((i, j)), np.concatenate((j, i)), np.concatenate((weight, weight))
    order = np.argsort(rows * n + cols)
    weights = _csr_from_row_major(n, rows[order], cols[order], values[order])
    return AffinityGraph(weights=weights, normalized=normalize(weights), source=source)


def _parse_edges(path, first_line, body, n):
    """Parse the ``i j weight`` lines of an edge list into ``i``, ``j`` and ``weight`` arrays.

    ``body[k]`` is line ``first_line + k`` of the file; blank lines are
    skipped.  Every line is checked at once: three fields, tokens that
    parse, ``0 <= i < j < n``, finite nonnegative weights and no edge
    listed twice.  A file that fails any check goes to :func:`_first_fault`.
    """
    counts = np.fromiter(map(len, map(str.split, body)), np.intp, len(body))
    if np.all((counts == 3) | (counts == 0)):  # before the parse, so no line's tokens shift into another's
        tokens = " ".join(body).split()
        try:
            i, j = np.array(tokens[0::3], dtype=np.int64), np.array(tokens[1::3], dtype=np.int64)
            weight = np.array(tokens[2::3], dtype=np.float64)
        except (ValueError, OverflowError):  # numpy parses as int and float do, and rejects beyond int64
            pass
        else:
            if np.all((0 <= i) & (i < j) & (j < n)) and np.all(np.isfinite(weight) & (weight >= 0)):
                keys = np.sort(i * n + j, kind="stable")  # linear on the sorted keys save_edge_list writes
                if not np.any(keys[1:] == keys[:-1]):
                    return i, j, weight
    _first_fault(path, first_line, body, n)


def _first_fault(path, first_line, body, n):
    """Raise the DataError of the first faulty line of an edge list that :func:`_parse_edges` rejected.

    Each line is checked in turn for its field count, then parsed with
    ``int`` and ``float``, then checked for ``0 <= i < j < n``, a finite
    nonnegative weight, and an edge listed before it.
    """
    seen = set()
    for lineno, line in enumerate(body, start=first_line):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 'i j weight', got {line.strip()!r}")
        try:
            i, j, weight = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable edge {line.strip()!r}") from None
        if not 0 <= i < j < n:
            raise DataError(f"{path}:{lineno}: edge ({i}, {j}) out of range for n={n}")
        if not 0 <= weight < math.inf:
            raise DataError(f"{path}:{lineno}: invalid weight {fields[2]}")
        if (i, j) in seen:
            raise DataError(f"{path}:{lineno}: duplicate edge ({i}, {j})")
        seen.add((i, j))
    raise AssertionError("the bulk parse rejected an edge list with no faulty line")
