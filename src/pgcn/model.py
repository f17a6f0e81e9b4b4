"""Parallel graph-convolution model with a trainable graph-ranking layer.

The model runs M branches over the same node features X, one branch per
affinity graph.  Each branch is two graph-convolution layers

    H1 = relu(A_hat @ X @ Theta0)        logits_m = A_hat @ H1 @ Theta1

(no bias terms, no nonlinearity on the second layer).  A ranking layer
fuses the branch logits with scalar weights,

    Z = sum_m omega_m * logits_m         Y_hat = softmax_rows(Z)

so the learned magnitude of each omega_m expresses how much its graph
contributes to the prediction.  Backward passes are hand-derived; the
softmax/cross-entropy pair collapses to (Y_hat - Y) / L on labeled rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ParameterError, ShapeError
from .linalg import SparseSymMatrix, as_dense, relu, softmax_rows, spmm

__all__ = [
    "ModelParams",
    "BranchCache",
    "ForwardCache",
    "init_params",
    "propagate",
    "branch_forward",
    "rank_combine",
    "forward",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]


class ModelParams:
    """Per-branch layer weights plus the ranking weights, in one vector.

    ``theta0[m]`` maps d -> h, ``theta1[m]`` maps h -> K, and ``omega`` has
    one scalar per branch.  The constructor copies its inputs into the
    float64 ``vector``; every tensor is a view into it, laid out in
    :meth:`tensors` order.  Gradients and Adam moments use the same class,
    so the optimizer works on whole vectors.  Assigning ``omega`` writes
    through to the vector.
    """

    def __init__(self, theta0, theta1, omega):
        if len(theta0) != len(theta1) or len(theta0) != len(omega):
            raise ShapeError("theta lists and omega must have one entry per branch")
        if len(theta0) < 1:
            raise ParameterError("model needs at least one branch")
        tensors = [np.asarray(t, dtype=np.float64) for t in [*theta0, *theta1, omega]]
        self.vector = np.concatenate([t.ravel() for t in tensors])
        self.layout = tuple(t.shape for t in tensors)
        parts = np.split(self.vector, np.cumsum([t.size for t in tensors])[:-1])
        views = [part.reshape(t.shape) for part, t in zip(parts, tensors)]
        m = len(theta0)
        self.theta0, self.theta1, self._omega = tuple(views[:m]), tuple(views[m:-1]), views[-1]

    @property
    def omega(self):
        return self._omega

    @omega.setter
    def omega(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self._omega.shape:
            raise ShapeError(f"omega needs shape {self._omega.shape}, got {value.shape}")
        self._omega[...] = value

    @property
    def n_branches(self):
        return len(self.theta0)

    @property
    def d_in(self):
        return self.theta0[0].shape[0]

    @property
    def hidden(self):
        return self.theta0[0].shape[1]

    @property
    def n_classes(self):
        return self.theta1[0].shape[1]

    def copy(self):
        return ModelParams(self.theta0, self.theta1, self.omega)

    def tensors(self):
        """(name, array) pairs over every trainable tensor, fixed order."""
        for m, t in enumerate(self.theta0):
            yield f"theta0[{m}]", t
        for m, t in enumerate(self.theta1):
            yield f"theta1[{m}]", t
        yield "omega", self.omega


@dataclass
class BranchCache:
    """Intermediates of one branch, retained for the backward pass."""

    propagated0: np.ndarray      # A_hat @ (X with the layer-1 dropout mask applied); shared read-only without one
    preact: np.ndarray           # propagated0 @ theta0
    propagated1: np.ndarray      # A_hat @ (relu(preact) with the layer-2 dropout mask applied)
    logits: np.ndarray           # propagated1 @ theta1
    mask1: np.ndarray | None     # the layer-2 dropout mask


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward evaluation."""

    branches: list
    graphs: list
    probs: np.ndarray            # softmax_rows(Z)
    params: ModelParams = field(repr=False)


def init_params(d, h, k, m, seed):
    """Glorot-uniform layer weights; ranking weights start uniform at 1/M."""
    if min(d, h, k, m) < 1:
        raise ParameterError(f"dimensions must be >= 1, got d={d}, h={h}, k={k}, m={m}")
    rng = np.random.default_rng(seed)
    theta0, theta1 = [], []
    for _ in range(m):
        bound0 = np.sqrt(6.0 / (d + h))
        theta0.append(rng.uniform(-bound0, bound0, size=(d, h)))
        bound1 = np.sqrt(6.0 / (h + k))
        theta1.append(rng.uniform(-bound1, bound1, size=(h, k)))
    omega = np.full(m, 1.0 / m)
    return ModelParams(theta0=theta0, theta1=theta1, omega=omega)


def _dropout_mask(rng, shape, p):
    """Inverted-scaling dropout mask: entries are 0 or 1/(1-p)."""
    keep = rng.random(shape) >= p
    return keep / (1.0 - p)


def propagate(x, graphs):
    """``A_hat @ X`` for each operator, frozen read-only.

    Neither factor changes within a run, so one product per branch serves
    every pass that draws no layer-1 dropout mask (the precomputation of
    SGC, Wu et al. 2019).
    """
    x = as_dense(x, "features")
    products = [spmm(a_hat, x) for a_hat in graphs]
    for product in products:
        product.setflags(write=False)
    return products


def branch_forward(x, a_hat, theta0, theta1, dropout=None, propagated_x=None):
    """One branch: two graph convolutions over a single normalized operator.

    ``dropout`` is either None (evaluation) or a pair of pre-scaled masks
    applied to the inputs of layer 1 and layer 2 respectively.
    ``propagated_x``, if given, is this branch's ``A_hat @ X`` from
    :func:`propagate`; it stands in for that product whenever the layer-1
    mask is absent, which keeps every output byte.
    """
    x = as_dense(x, "features")
    if not isinstance(a_hat, SparseSymMatrix):
        raise ShapeError("branch_forward expects a SparseSymMatrix operator")
    if a_hat.dim != x.shape[0]:
        raise ShapeError(f"operator dim {a_hat.dim} does not match {x.shape[0]} subjects")
    if x.shape[1] != theta0.shape[0]:
        raise ShapeError(f"features {x.shape} do not match layer-1 weights {theta0.shape}")
    if theta0.shape[1] != theta1.shape[0]:
        raise ShapeError(f"layer weights {theta0.shape} and {theta1.shape} do not chain")
    if propagated_x is not None and np.shape(propagated_x) != x.shape:
        raise ShapeError(f"propagated features {np.shape(propagated_x)} do not match features {x.shape}")

    mask0, mask1 = (None, None) if dropout is None else dropout
    if mask0 is None and propagated_x is not None:
        propagated0 = propagated_x
    else:
        propagated0 = spmm(a_hat, x if mask0 is None else x * mask0)
    preact = propagated0 @ theta0
    hidden = relu(preact)
    propagated1 = spmm(a_hat, hidden if mask1 is None else hidden * mask1)
    logits = propagated1 @ theta1
    cache = BranchCache(propagated0=propagated0, preact=preact, propagated1=propagated1,
                        logits=logits, mask1=mask1)
    return cache, logits


def rank_combine(branch_logits, omega):
    """Weighted sum of branch logits followed by a row softmax."""
    omega = np.asarray(omega, dtype=np.float64)
    if len(branch_logits) != len(omega):
        raise ShapeError(f"{len(branch_logits)} branch outputs but {len(omega)} ranking weights")
    if not branch_logits:
        raise ParameterError("rank_combine needs at least one branch")
    shape = branch_logits[0].shape
    for logits in branch_logits[1:]:
        if logits.shape != shape:
            raise ShapeError(f"branch logits disagree in shape: {shape} vs {logits.shape}")
    fused = np.zeros(shape)
    for weight, logits in zip(omega, branch_logits):  # fixed branch order
        fused += weight * logits
    return fused, softmax_rows(fused)


def forward(x, graphs, params, dropout_seed=None, dropout_p=0.3, propagated_x=None):
    """Full model evaluation over all branches.

    With ``dropout_seed=None`` (or ``dropout_p=0``) the pass is
    deterministic (evaluation mode); otherwise per-branch masks are drawn
    from a generator seeded with ``dropout_seed`` and applied to each
    layer's input.  ``propagated_x``, the list :func:`propagate` returns
    for these ``x`` and ``graphs``, saves one width-d product per branch
    in a pass without dropout; the result is byte-identical either way.
    """
    x = as_dense(x, "features")
    if len(graphs) != params.n_branches:
        raise ShapeError(f"{len(graphs)} graphs for {params.n_branches} branches")
    if propagated_x is None:
        propagated_x = [None] * len(graphs)
    elif len(propagated_x) != len(graphs):
        raise ShapeError(f"{len(propagated_x)} propagated feature sets for {len(graphs)} graphs")
    rng = None
    if dropout_seed is not None and dropout_p > 0.0:
        if not 0.0 <= dropout_p < 1.0:
            raise ParameterError(f"dropout rate must lie in [0, 1), got {dropout_p}")
        rng = np.random.default_rng(dropout_seed)

    branches = []
    branch_logits = []
    for m in range(params.n_branches):
        dropout = None
        if rng is not None:
            dropout = (
                _dropout_mask(rng, x.shape, dropout_p),
                _dropout_mask(rng, (x.shape[0], params.hidden), dropout_p),
            )
        cache, logits = branch_forward(x, graphs[m], params.theta0[m], params.theta1[m], dropout,
                                       propagated_x[m])
        branches.append(cache)
        branch_logits.append(logits)
    _, probs = rank_combine(branch_logits, params.omega)
    return ForwardCache(branches=branches, graphs=list(graphs), probs=probs, params=params)


def backward(cache, y, labeled_mask, params, l2_lambda=0.0):
    """Analytic gradients of the masked cross-entropy plus L2 penalty.

    Unlabeled rows contribute nothing; the loss is normalized by the
    labeled count.  The L2 penalty ``l2_lambda * sum ||Theta||_F^2``
    affects layer weights only, never the ranking weights.
    """
    y = as_dense(y, "labels")
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    if cache.params.n_branches != params.n_branches:
        raise ConsistencyError("cache and params disagree on branch count")
    for m in range(params.n_branches):
        if cache.branches[m].preact.shape[1] != params.theta0[m].shape[1]:
            raise ConsistencyError("cache does not match these layer weights")
    if y.shape != cache.probs.shape:
        raise ShapeError(f"labels {y.shape} do not match predictions {cache.probs.shape}")
    if labeled_mask.shape != (y.shape[0],):
        raise ShapeError(f"mask shape {labeled_mask.shape} does not match {y.shape[0]} subjects")

    n_labeled = int(labeled_mask.sum())
    grad_fused = np.zeros_like(cache.probs)
    if n_labeled > 0:
        grad_fused[labeled_mask] = (cache.probs[labeled_mask] - y[labeled_mask]) / n_labeled

    grad_theta0, grad_theta1 = [], []
    grad_omega = np.zeros_like(params.omega)
    for m in range(params.n_branches):
        br = cache.branches[m]
        a_hat = cache.graphs[m]
        grad_omega[m] = np.sum(grad_fused * br.logits)

        grad_logits = params.omega[m] * grad_fused
        g_t1 = br.propagated1.T @ grad_logits + 2.0 * l2_lambda * params.theta1[m]
        grad_prop1 = grad_logits @ params.theta1[m].T
        grad_dropped_hidden = spmm(a_hat, grad_prop1)  # A_hat is symmetric
        grad_hidden = grad_dropped_hidden if br.mask1 is None else grad_dropped_hidden * br.mask1
        grad_preact = grad_hidden * (br.preact > 0)
        g_t0 = br.propagated0.T @ grad_preact + 2.0 * l2_lambda * params.theta0[m]
        grad_theta0.append(g_t0)
        grad_theta1.append(g_t1)

    return ModelParams(theta0=grad_theta0, theta1=grad_theta1, omega=grad_omega)


def save_checkpoint(params, seed, path):
    """Write a self-describing .npz checkpoint; reload is bit-exact."""
    arrays = {
        "n_branches": np.asarray(params.n_branches),
        "omega": params.omega,
        "seed": np.asarray(int(seed)),
    }
    for m in range(params.n_branches):
        arrays[f"theta0_{m}"] = params.theta0[m]
        arrays[f"theta1_{m}"] = params.theta1[m]
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``(params, seed)``.
    """
    with np.load(path) as archive:
        m = int(archive["n_branches"])
        params = ModelParams(
            theta0=[archive[f"theta0_{i}"] for i in range(m)],
            theta1=[archive[f"theta1_{i}"] for i in range(m)],
            omega=archive["omega"],
        )
        seed = int(archive["seed"])
    return params, seed
