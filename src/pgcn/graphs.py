"""Population-graph construction from per-subject metadata.

One graph is built per metadata element (age, gender, acquisition site,
...): subjects become vertices, an edge joins two subjects whose values
for that element agree (categorical) or differ by less than a threshold
(continuous), and each surviving edge is weighted by the feature
similarity of its endpoints.  The propagation operator used by the model
is the symmetrically normalized weight matrix with self-loops,
``D^{-1/2} (W + I) D^{-1/2}``.

:func:`build_graph` works on edge pairs and never holds an N x N array:
a categorical column's edges come from grouping its codes, a continuous
column's from runs of its sorted values, and only the similarities on
those edges are kept from each block of rows.  :func:`build_edges` and
:func:`similarity_matrix` are the same rules laid out densely, so
``build_affinity(similarity_matrix(x), build_edges(col))`` holds the
same bytes as ``build_graph(col, x).weights``.
"""

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import DataError, ParameterError, ShapeError, read_text, require_memory
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

# Bytes per vertex sized from an edge list's header: load_edge_list, and normalize when the loaded graph's
# operator is first used, each hold at most twelve N-entry arrays of 8-byte values at once.
EDGE_LIST_VERTEX_BYTES = 12 * 8

# Bytes per vertex pair that random_graph holds at least, one N x N float64 and one N x N bool.
GRAPH_BUILD_PAIR_BYTES = 8 + 1

# One parsed edge-list line.
_EDGE_FIELDS = [("i", np.int64), ("j", np.int64), ("weight", np.float64)]

# Similarities are taken as the dot products of this many rows against all rows at a time.
_BLOCK_ROWS = 256

# Bytes that build_graph holds per entry of its subjects' runs (each subject and each of its neighbours), besides one
# block of similarity products and one copy of the features.  Tracemalloc peaks read 48 to 56 from n = 100 up.
_BUILD_ENTRY_BYTES = 64


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
    """Similarity weights for one element and the normalized operator derived from them.

    The stored pattern of ``weights`` is the edge set: an edge whose
    clamped similarity is zero is a stored ``0.0``.  ``normalized`` is
    computed from ``weights`` on first use and kept, so the two always
    agree and a graph that is only exported is never normalized.
    """

    weights: SparseSymMatrix      # W >= 0, stored exactly on the edges
    source: str

    @functools.cached_property
    def normalized(self):
        """The propagation operator D^{-1/2} (W + I) D^{-1/2}."""
        return normalize(self.weights)

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
    result is symmetric with an empty diagonal: the dense view of the
    edge pairs :func:`build_graph` uses.
    """
    n = len(col)
    rows, cols = _edge_pairs(col, *_neighbour_runs(col, beta))
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, cols] = True
    return adj


def _neighbour_runs(col, beta):
    """``(members, start, stop)``: subject i and its neighbours are ``members[start[i]:stop[i]]``.

    This is the edge rule.  A categorical column groups ``members`` by
    code, each group in subject order, so the run of i is its group.  A
    continuous column sorts ``members`` by value: ``fl(v_i - v_j)`` falls
    as ``v_j`` grows, so the subjects with ``|fl(v_i - v_j)| < beta`` are
    one run of that order, and its ends are found by bisection on exactly
    that test.
    """
    n = len(col)
    if n < 2:
        raise ParameterError(f"need at least 2 subjects to build a graph, got {n}")
    if col.kind == CATEGORICAL:
        codes = np.unique(col.values, return_inverse=True)[1]
        sizes = np.bincount(codes)
        stop = np.cumsum(sizes)
        return np.argsort(codes, kind="stable"), (stop - sizes)[codes], stop[codes]
    if beta is None:
        beta = DEFAULT_BETA
    if not beta > 0:
        raise ParameterError(f"threshold for continuous column {col.name!r} must be > 0, got {beta}")
    members = np.argsort(col.values, kind="stable")
    v = col.values[members]
    start = _prefix_lengths(n, lambda k: v - v[k] >= beta)
    stop = _prefix_lengths(n, lambda k: v[k] - v < beta)
    rank = np.empty(n, dtype=np.intp)
    rank[members] = np.arange(n)
    return members, start[rank], stop[rank]


def _prefix_lengths(n, holds):
    """For each of n lanes, the length of the prefix of ``k = 0 .. n-1`` on which ``holds(k)[lane]`` is true.

    ``holds`` takes one ``k`` per lane and must be true on a prefix of ``k``
    in every lane; the lengths are found by bisection, ``log2(n)`` calls.
    """
    length = np.zeros(n, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        grown = length + step
        ok = grown <= n
        ok &= holds(np.minimum(grown, n) - 1)
        length[ok] = grown[ok]
        step >>= 1
    return length


def _edge_pairs(col, members, start, stop):
    """The edges of :func:`_neighbour_runs` as row-major ``(rows, cols)`` entries, both ends of each edge."""
    n = len(members)
    lengths = stop - start
    rows = np.repeat(np.arange(n), lengths)
    at = np.repeat(start - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(len(rows))
    cols = members[at]
    del at
    keep = cols != rows
    rows, cols = rows[keep], cols[keep]
    if col.kind == CONTINUOUS:  # each run lists its subjects by value, and a row's columns must ascend
        base = rows * n
        cols += base
        cols.sort()
        cols -= base
    return rows, cols


def similarity_matrix(x, metric="pearson"):
    """Pairwise feature similarity between subjects (rows of ``x``).

    ``pearson`` (the default) is the correlation coefficient of the two
    feature rows, in ``np.corrcoef``'s order of operations; ``cosine`` is
    the angle-based alternative.  Values are clamped to [-1, 1] and the
    diagonal is fixed at 1.  The dot products are those of
    :func:`build_graph`, taken in blocks of rows, so they can differ from
    ``np.corrcoef`` (which takes one symmetric product) in the last bit.
    """
    rows, scale = _similarity_rows(x, metric)
    n = len(rows)
    sim = np.empty((n, n))
    for start, block in _dot_blocks(rows):
        sim[start:start + len(block)] = block
    _finish_similarity(sim, np.diagonal(sim).copy(), scale, np.s_[:, None], np.s_[None, :])  # a copy: sim is scaled
    np.fill_diagonal(sim, 1.0)
    return sim


def _similarity_rows(x, metric):
    """``(rows, scale)``: the similarity of subjects i and j is built from ``rows_i . rows_j``.

    ``pearson`` centres each feature row and ``scale`` is ``1 / (d - 1)``;
    ``cosine`` scales each row to unit length and ``scale`` is None.  A
    subject whose similarity is undefined is refused.
    """
    x = as_dense(x, "feature matrix")
    if metric == "pearson":
        stds = x.std(axis=1)
        degenerate = np.flatnonzero(~(stds > 0))
        if degenerate.size:
            raise DataError(f"subject {int(degenerate[0])} has zero feature variance")
        return x - x.mean(axis=1)[:, None], 1 / (x.shape[1] - 1)
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        degenerate = np.flatnonzero(~(norms > 0))
        if degenerate.size:
            raise DataError(f"subject {int(degenerate[0])} has a zero feature vector")
        return x / norms[:, None], None
    raise ParameterError(f"unknown similarity metric {metric!r}")


def _dot_blocks(rows):
    """``(start, rows[start:start + len(block)] @ rows.T)`` for consecutive blocks of ``_BLOCK_ROWS`` rows.

    Every similarity is one of these products.  The blocks share one
    buffer, so a block is valid until the next one is drawn.
    """
    n = len(rows)
    buffer = np.empty((min(_BLOCK_ROWS, n), n))
    for start in range(0, n, _BLOCK_ROWS):
        block = buffer[:min(_BLOCK_ROWS, n - start)]
        np.matmul(rows[start:start + len(block)], rows.T, out=block)
        yield start, block


def _finish_similarity(dots, diagonal, scale, at_i, at_j):
    """Similarities from the dot products ``dots`` of entries (i, j), in place, by ``np.corrcoef``'s steps.

    For pearson, ``dots`` are multiplied by ``scale``, then divided by the
    standard deviation ``sqrt(scale * diagonal)`` of i, then by that of j,
    where ``std[at_i]`` and ``std[at_j]`` line them up with ``dots``; then
    every metric clips to [-1, 1].
    """
    if scale is not None:
        dots *= scale
        std = np.sqrt(diagonal * scale)
        dots /= std[at_i]
        dots /= std[at_j]
    return np.clip(dots, -1.0, 1.0, out=dots)


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
    rows, cols = np.nonzero(edges)  # row-major, the order CSR stores
    n = edges.shape[0]
    return SparseSymMatrix(n, _row_starts(n, rows), cols, _edge_weights(sim[rows, cols], sim[cols, rows]))


def _edge_weights(sim_ij, sim_ji):
    """``0.5 * (max(sim_ij, 0) + max(sim_ji, 0))``, computed in place in both arguments.

    Entry (i, j) and entry (j, i) add the same two numbers, so W is
    symmetric to the bit whatever rounding the similarities carry.
    """
    w = np.maximum(sim_ij, 0.0, out=sim_ij)
    w += np.maximum(sim_ji, 0.0, out=sim_ji)
    w *= 0.5
    return w


def _row_starts(n, rows):
    """CSR ``indptr`` of entries listed in row-major order."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def normalize(w):
    """Self-loop-augmented symmetric normalization D^{-1/2} (W + I) D^{-1/2} of a :class:`SparseSymMatrix`."""
    if not isinstance(w, SparseSymMatrix):
        raise ShapeError("normalize expects a SparseSymMatrix")
    degrees = w.row_sums() + 1.0  # +1 from the identity self-loop
    bad = np.flatnonzero(degrees <= 0)
    if bad.size:
        raise DataError(f"vertex {bad[0]} has degree {float(degrees[bad[0]])!r} <= 0 (1 + row sum); "
                        "normalization needs positive degrees")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    a = w.scipy() + scipy.sparse.identity(w.dim, format="csr")
    indptr, indices, data = a.indptr, a.indices, a.data
    del a  # the sum is ours: scale its values in place, one full-length temporary at a time
    # (W + I)_ij * s_i * s_j, multiplied in that order
    data *= np.repeat(inv_sqrt, np.diff(indptr))
    data *= inv_sqrt[indices]
    return SparseSymMatrix(w.dim, indptr, indices, data)


def random_graph(n, density, seed):
    """Erdos-Renyi graph with unit edge weights; deterministic per seed."""
    if n < 2:
        raise ParameterError(f"random graph needs n >= 2, got {n}")
    if not 0.0 < density <= 1.0:
        raise ParameterError(f"density must lie in (0, 1], got {density}")
    nbytes = n * n * GRAPH_BUILD_PAIR_BYTES
    require_memory(nbytes, ParameterError, f"n={n} needs {nbytes} bytes of N x N arrays to build a graph")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    weights = SparseSymMatrix.from_dense((upper | upper.T).astype(np.float64))
    return AffinityGraph(weights, "random")


def build_graph(col, features, beta=None, metric="pearson"):
    """Full pipeline for one metadata element: edges, then similarity weights on them.

    Holds no N x N array.  The edge entries are counted before any array
    is sized by them, and the build is refused with :class:`DataError`
    when ``_BUILD_ENTRY_BYTES`` per edge entry and per subject, one block
    of ``_BLOCK_ROWS`` rows of similarity products and one copy of the
    features exceed physical memory.  Each block of rows keeps only its
    edge entries and its diagonal, and ``np.corrcoef``'s scaling then runs
    on those.
    """
    members, start, stop = _neighbour_runs(col, beta)
    rows_x, scale = _similarity_rows(features, metric)
    n = len(col)
    if len(rows_x) != n:
        raise ShapeError(f"features have {len(rows_x)} rows for {n} subjects")
    run_entries = int(np.sum(stop - start))
    nbytes = run_entries * _BUILD_ENTRY_BYTES + 8 * n * min(_BLOCK_ROWS, n) + rows_x.nbytes
    require_memory(nbytes, DataError,
                   f"n={n} with {run_entries - n} edge entries needs {nbytes} bytes to build a graph")
    rows, cols = _edge_pairs(col, members, start, stop)
    indptr = _row_starts(n, rows)
    dots, diagonal = np.empty(len(rows)), np.empty(n)
    for first, block in _dot_blocks(rows_x):
        last = first + len(block)
        lo, hi = indptr[first], indptr[last]
        dots[lo:hi] = block[rows[lo:hi] - first, cols[lo:hi]]
        diagonal[first:last] = block.diagonal(first)
    sim = _finish_similarity(dots, diagonal, scale, rows, cols)
    del rows
    weights = _edge_weights(sim, _transposed(n, indptr, cols, sim))
    return AffinityGraph(SparseSymMatrix(n, indptr, cols, weights), col.name)


def _transposed(n, indptr, cols, values):
    """The values of a symmetric CSR pattern at the transposed entries: entry (i, j) gets the value of (j, i)."""
    return scipy.sparse.csr_matrix((values, cols, indptr), shape=(n, n)).T.tocsr().data


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


def load_edge_list(path):
    """Read a graph written by :func:`save_edge_list`.

    The graph's source is the file name without its extension.  Blank
    lines are allowed anywhere.  The ``n <N>`` header is checked
    against physical memory, ``EDGE_LIST_VERTEX_BYTES`` per vertex for
    the arrays sized from N, before anything is sized from it; that
    covers the arrays of :func:`normalize` too, which runs when the
    graph's operator is first used rather than here.  A
    zero-weight edge is a stored zero of the weights.  A faulty file
    raises :class:`DataError` naming the 1-based file line of its first
    faulty line.
    """
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
    nbytes = n * EDGE_LIST_VERTEX_BYTES
    require_memory(nbytes, DataError, f"{path}: n={n} needs {nbytes} bytes of vertex arrays")
    i, j, weight = _parse_edges(path, start + 2, lines[start + 1:], n)
    weight += 0.0  # a "-0" weight is stored as +0.0, so the writer prints "0" as for every other zero
    rows, cols, values = np.concatenate((i, j)), np.concatenate((j, i)), np.concatenate((weight, weight))
    order = np.argsort(rows * n + cols)
    rows, cols, values = rows[order], cols[order], values[order]
    weights = SparseSymMatrix(n, _row_starts(n, rows), cols, values)
    return AffinityGraph(weights, os.path.splitext(os.path.basename(path))[0])


def _parse_edges(path, first_line, body, n):
    """Parse the ``i j weight`` lines of an edge list into ``i``, ``j`` and ``weight`` arrays.

    ``body[k]`` is line ``first_line + k`` of the file; blank lines are
    skipped.  The whole body is parsed at once by ``np.loadtxt`` and then
    checked at once: ``0 <= i < j < n``, finite nonnegative weights and
    no edge listed twice.  A body that ``np.loadtxt`` or a check rejects
    goes to :func:`_scan_edges`, which parses as ``int`` and ``float`` do:
    those accept some tokens ``np.loadtxt`` does not, such as ``1_0``.
    """
    if not any(map(str.split, body)):  # np.loadtxt warns on a body without data
        return _scan_edges(path, first_line, body, n)
    try:
        edges = np.loadtxt(body, dtype=_EDGE_FIELDS, comments=None, ndmin=1)
    except ValueError:
        return _scan_edges(path, first_line, body, n)
    i, j, weight = edges["i"], edges["j"], edges["weight"]
    if np.all((0 <= i) & (i < j) & (j < n)) and np.all(np.isfinite(weight) & (weight >= 0)):
        keys = np.sort(i * n + j, kind="stable")  # linear on the sorted keys save_edge_list writes
        if not np.any(keys[1:] == keys[:-1]):
            return i, j, weight
    return _scan_edges(path, first_line, body, n)


def _scan_edges(path, first_line, body, n):
    """Parse an edge list's body line by line into ``i``, ``j`` and ``weight`` arrays, or name its first faulty line.

    Each line is checked in turn for its field count, then parsed with
    ``int`` and ``float``, then checked for ``0 <= i < j < n``, a finite
    nonnegative weight, and an edge listed before it; the first line that
    fails raises :class:`DataError` naming its 1-based file line.
    """
    seen, edges = set(), []
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
        edges.append((i, j, weight))
    edges = np.array(edges, dtype=_EDGE_FIELDS)
    return edges["i"], edges["j"], edges["weight"]
