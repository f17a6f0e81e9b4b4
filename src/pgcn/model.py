"""Parallel graph-convolution model with a trainable graph-ranking layer.

The model runs M branches over the same node features X, one branch per
affinity graph.  Each branch is two graph-convolution layers

    H1 = relu(A_hat @ (X @ Theta0))      logits_m = A_hat @ (H1 @ Theta1)

(no bias terms, no nonlinearity on the second layer), associated so that
the operator multiplies h or K columns, never d.  A ranking layer fuses
the branch logits with scalar weights,

    Z = sum_m omega_m * logits_m         Y_hat = softmax_rows(Z)

so the learned magnitude of each omega_m expresses how much its graph
contributes to the prediction.  Backward passes are hand-derived; the
softmax/cross-entropy pair collapses to (Y_hat - Y) / L on labeled rows.
"""

import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .linalg import as_dense, relu, softmax_rows, spmm

__all__ = [
    "ModelParams",
    "BranchCache",
    "ForwardCache",
    "init_params",
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

    dropped0: np.ndarray         # the layer-1 input as given: X, or X with forward's dropout mask applied
    preact: np.ndarray           # A_hat @ (dropped0 @ theta0)
    dropped1: np.ndarray         # relu(preact) with the layer-2 dropout mask applied
    logits: np.ndarray           # A_hat @ (dropped1 @ theta1)
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


def branch_forward(x, a_hat, theta0, theta1, mask1=None):
    """One branch: two graph convolutions over a single normalized operator.

    ``x`` enters layer 1 as given, so a layer-1 dropout mask is applied
    by the caller; ``mask1`` is None (evaluation) or the pre-scaled
    dropout mask of layer 2's input.  Each layer multiplies by its
    weights before it propagates, so the operator runs over h columns in
    layer 1 and K in layer 2.
    """
    x = as_dense(x, "features")
    if x.shape[1] != theta0.shape[0]:
        raise ShapeError(f"features {x.shape} do not match layer-1 weights {theta0.shape}")
    if theta0.shape[1] != theta1.shape[0]:
        raise ShapeError(f"layer weights {theta0.shape} and {theta1.shape} do not chain")
    preact = spmm(a_hat, x @ theta0)
    hidden = relu(preact)
    dropped1 = hidden if mask1 is None else hidden * mask1
    logits = spmm(a_hat, dropped1 @ theta1)
    return BranchCache(x, preact, dropped1, logits, mask1), logits


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


def forward(x, graphs, params, dropout_seed=None, dropout_p=0.3):
    """Full model evaluation: one :func:`branch_forward` per graph, fused by :func:`rank_combine`.

    ``dropout_p`` must lie in [0, 1).  With ``dropout_seed=None`` or
    ``dropout_p=0`` the pass is deterministic (evaluation mode);
    otherwise per-branch masks are drawn from a generator seeded with
    ``dropout_seed`` and applied to each layer's input.  The layer-1 mask
    is applied here, so only the masked features outlive it.  Each
    branch runs two operator products, at widths h and K.
    """
    x = as_dense(x, "features")
    if not 0.0 <= dropout_p < 1.0:
        raise ParameterError(f"dropout rate must lie in [0, 1), got {dropout_p}")
    if len(graphs) != params.n_branches:
        raise ShapeError(f"{len(graphs)} graphs for {params.n_branches} branches")
    rng = None if dropout_seed is None or dropout_p == 0.0 else np.random.default_rng(dropout_seed)
    branches = []
    for a_hat, theta0, theta1 in zip(graphs, params.theta0, params.theta1):
        dropped0, mask1 = x, None
        if rng is not None:
            dropped0 = x * _dropout_mask(rng, x.shape, dropout_p)
            mask1 = _dropout_mask(rng, (x.shape[0], params.hidden), dropout_p)
        branches.append(branch_forward(dropped0, a_hat, theta0, theta1, mask1)[0])
    _, probs = rank_combine([br.logits for br in branches], params.omega)
    return ForwardCache(branches=branches, graphs=list(graphs), probs=probs, params=params)


def backward(cache, y, labeled_mask, l2_lambda=0.0):
    """Analytic gradients at ``cache.params`` of the masked cross-entropy plus L2 penalty.

    Unlabeled rows contribute nothing; the loss is normalized by the
    labeled count.  The L2 penalty ``l2_lambda * sum ||Theta||_F^2``
    affects layer weights only, never the ranking weights.  Each branch
    runs two operator products, at widths K and h.
    """
    y = as_dense(y, "labels")
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    if y.shape != cache.probs.shape:
        raise ShapeError(f"labels {y.shape} do not match predictions {cache.probs.shape}")
    if labeled_mask.shape != (y.shape[0],):
        raise ShapeError(f"mask shape {labeled_mask.shape} does not match {y.shape[0]} subjects")
    n_labeled = int(labeled_mask.sum())
    grad_fused = np.zeros_like(cache.probs)
    if n_labeled > 0:
        grad_fused[labeled_mask] = (cache.probs[labeled_mask] - y[labeled_mask]) / n_labeled

    params = cache.params
    grads = params.copy()  # every entry is overwritten below
    for m, (a_hat, br) in enumerate(zip(cache.graphs, cache.branches)):
        # A_hat is symmetric, so each layer's propagation passes its gradient G back as A_hat @ G
        projected1 = spmm(a_hat, params.omega[m] * grad_fused)
        grads.omega[m] = np.sum(grad_fused * br.logits)
        grads.theta1[m][...] = br.dropped1.T @ projected1 + 2.0 * l2_lambda * params.theta1[m]
        grad_dropped_hidden = projected1 @ params.theta1[m].T
        grad_hidden = grad_dropped_hidden if br.mask1 is None else grad_dropped_hidden * br.mask1
        projected0 = spmm(a_hat, grad_hidden * (br.preact > 0))
        grads.theta0[m][...] = br.dropped0.T @ projected0 + 2.0 * l2_lambda * params.theta0[m]
    return grads


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

    Returns ``(params, seed)``.  A file that cannot be read, is not an
    ``.npz`` archive or lacks a tensor raises :class:`DataError` naming ``path``.
    """
    try:
        archive = np.load(path)  # refuses pickled data with ValueError
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"checkpoint {path} is not an .npz archive")
    with archive:
        try:
            m = int(archive["n_branches"])
            params = ModelParams(
                theta0=[archive[f"theta0_{i}"] for i in range(m)],
                theta1=[archive[f"theta1_{i}"] for i in range(m)],
                omega=archive["omega"],
            )
            seed = int(archive["seed"])
        except KeyError as exc:
            raise DataError(f"checkpoint {path} lacks a tensor: {exc.args[0]}") from exc
    return params, seed
