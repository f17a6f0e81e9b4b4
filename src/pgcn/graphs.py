"""Population-graph construction from per-subject metadata.

One graph is built per metadata element (age, gender, acquisition site,
...): subjects become vertices, an edge joins two subjects whose values
for that element agree (categorical) or differ by less than a threshold
(continuous), and each surviving edge is weighted by the feature
similarity of its endpoints.  The propagation operator used by the model
is the symmetrically normalized weight matrix with self-loops,
``D^{-1/2} (W + I) D^{-1/2}``.
"""

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import DataError, ParameterError, ShapeError
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
    """Edge set, similarity weights, and normalized operator for one element."""

    edges: np.ndarray             # N x N boolean, symmetric, no self-edges
    weights: SparseSymMatrix      # W >= 0, nonzero only on edges
    normalized: SparseSymMatrix   # D^{-1/2} (W + I) D^{-1/2}
    source: str

    def __post_init__(self):
        frozen = np.array(self.edges, dtype=bool)
        frozen.setflags(write=False)
        object.__setattr__(self, "edges", frozen)

    @property
    def n(self):
        return self.edges.shape[0]

    @property
    def edge_count(self):
        return int(np.count_nonzero(np.triu(self.edges, k=1)))

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
        adj = np.abs(v[:, None] - v[None, :]) < beta
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
        sim = np.corrcoef(x)
    elif metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        degenerate = np.flatnonzero(~(norms > 0))
        if degenerate.size:
            raise DataError(f"subject {int(degenerate[0])} has a zero feature vector")
        unit = x / norms[:, None]
        sim = unit @ unit.T
    else:
        raise ParameterError(f"unknown similarity metric {metric!r}")
    sim = np.clip(sim, -1.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    return sim


def build_affinity(sim, edges):
    """Mask similarities onto the edge set, clamping negatives to zero.

    Normalization assumes nonnegative weights, so an edge whose endpoint
    features anti-correlate keeps the edge but contributes zero weight.
    """
    sim = as_dense(sim, "similarity matrix")
    edges = np.asarray(edges, dtype=bool)
    if edges.ndim != 2 or edges.shape[0] != edges.shape[1]:
        raise ShapeError(f"adjacency must be square, got {edges.shape}")
    if sim.shape != edges.shape:
        raise ShapeError(f"similarity {sim.shape} does not match adjacency {edges.shape}")
    if not np.array_equal(edges, edges.T):
        raise DataError("adjacency is not symmetric")
    w = np.where(edges, sim, 0.0)
    w = np.maximum(w, 0.0)
    w = 0.5 * (w + w.T)  # force bitwise symmetry against BLAS rounding
    return SparseSymMatrix.from_dense(w)


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
    edges = upper | upper.T
    weights = SparseSymMatrix.from_dense(edges.astype(np.float64))
    return AffinityGraph(edges=edges, weights=weights, normalized=normalize(weights), source="random")


def build_graph(col, features, beta=None, metric="pearson"):
    """Full pipeline for one metadata element: edges, weights, normalization."""
    edges = build_edges(col, beta=beta)
    sim = similarity_matrix(features, metric=metric)
    weights = build_affinity(sim, edges)
    return AffinityGraph(edges=edges, weights=weights, normalized=normalize(weights), source=col.name)


def save_edge_list(graph, path):
    """Write a graph as a text edge list: ``n <N>`` then ``i j weight`` per edge.

    Every edge of the adjacency is listed once (i < j), including edges
    whose clamped weight is zero; weights carry 17 significant digits so
    a reload is bit-exact.
    """
    dense_w = graph.weights.to_dense()
    rows, cols = np.nonzero(np.triu(graph.edges, k=1))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {graph.n}\n")
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i} {j} {dense_w[i, j]:.17g}\n")


def load_edge_list(path, source=None):
    """Read a graph written by :func:`save_edge_list` and renormalize it."""
    if source is None:
        source = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise DataError(f"{path}: missing 'n <N>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise DataError(f"{path}: malformed header {lines[0]!r}") from exc
    if n < 1:
        raise DataError(f"{path}: vertex count must be positive, got {n}")
    edges = np.zeros((n, n), dtype=bool)
    w = np.zeros((n, n))
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'i j weight', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            weight = float(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparseable edge {line!r}") from exc
        if not 0 <= i < j < n:
            raise DataError(f"{path}:{lineno}: edge ({i}, {j}) out of range for n={n}")
        if not np.isfinite(weight) or weight < 0:
            raise DataError(f"{path}:{lineno}: invalid weight {parts[2]}")
        if edges[i, j]:
            raise DataError(f"{path}:{lineno}: duplicate edge ({i}, {j})")
        edges[i, j] = edges[j, i] = True
        w[i, j] = w[j, i] = weight
    weights = SparseSymMatrix.from_dense(w)
    return AffinityGraph(edges=edges, weights=weights, normalized=normalize(weights), source=source)
