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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ParameterError, ShapeError
from .linalg import SparseSymMatrix, as_dense, relu, softmax_rows, spmm

__all__ = [
    "ModelParams",
    "BranchCache",
    "ForwardCache",
    "init_params",
    "branch_forward",
    "rank_combine",
    "forward",
    "forward_cohort",
    "backward",
    "backward_cohort",
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

    dropped0: np.ndarray         # X with the layer-1 dropout mask applied; X itself without one
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


def _check_branch(x, a_hat, theta0, theta1):
    if not isinstance(a_hat, SparseSymMatrix):
        raise ShapeError("branch_forward expects a SparseSymMatrix operator")
    if a_hat.dim != x.shape[0]:
        raise ShapeError(f"operator dim {a_hat.dim} does not match {x.shape[0]} subjects")
    if x.shape[1] != theta0.shape[0]:
        raise ShapeError(f"features {x.shape} do not match layer-1 weights {theta0.shape}")
    if theta0.shape[1] != theta1.shape[0]:
        raise ShapeError(f"layer weights {theta0.shape} and {theta1.shape} do not chain")


def _spmm_side_by_side(a_hat, blocks):
    """One operator product over the blocks laid side by side, split back into contiguous blocks.

    A CSR product computes each output column from its own input column
    alone, so every block comes back bitwise equal to ``spmm(a_hat, block)``.
    """
    if len(blocks) == 1:
        return [spmm(a_hat, blocks[0])]
    wide = spmm(a_hat, np.hstack(blocks))
    bounds = np.cumsum([b.shape[1] for b in blocks[:-1]])
    return [np.ascontiguousarray(part) for part in np.hsplit(wide, bounds)]


def _branch_cohort(a_hat, dropped0, theta0, theta1, mask1):
    """One branch for every member of a cohort; each argument but ``a_hat`` holds one entry per member.

    Each layer runs one operator product over all members' columns.
    """
    preacts = _spmm_side_by_side(a_hat, [d @ t for d, t in zip(dropped0, theta0)])
    dropped1 = []
    for preact, mask in zip(preacts, mask1):
        hidden = relu(preact)
        dropped1.append(hidden if mask is None else hidden * mask)
    logits = _spmm_side_by_side(a_hat, [d @ t for d, t in zip(dropped1, theta1)])
    return [BranchCache(*fields) for fields in zip(dropped0, preacts, dropped1, logits, mask1)]


def branch_forward(x, a_hat, theta0, theta1, dropout=None):
    """One branch: two graph convolutions over a single normalized operator.

    ``dropout`` is either None (evaluation) or a pair of pre-scaled masks
    applied to the inputs of layer 1 and layer 2 respectively.  Each layer
    multiplies by its weights before it propagates, so the operator runs
    over h columns in layer 1 and K in layer 2.
    """
    x = as_dense(x, "features")
    _check_branch(x, a_hat, theta0, theta1)
    mask0, mask1 = (None, None) if dropout is None else dropout
    dropped0 = x if mask0 is None else x * mask0
    (cache,) = _branch_cohort(a_hat, [dropped0], [theta0], [theta1], [mask1])
    return cache, cache.logits


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
    """Full model evaluation over all branches.

    With ``dropout_seed=None`` (or ``dropout_p=0``) the pass is
    deterministic (evaluation mode); otherwise per-branch masks are drawn
    from a generator seeded with ``dropout_seed`` and applied to each
    layer's input.  Each branch runs two operator products, at widths h
    and K.  This is :func:`forward_cohort` for a cohort of one.
    """
    return forward_cohort(x, graphs, [params], [dropout_seed], dropout_p)[0]


def forward_cohort(x, graphs, cohort, dropout_seeds=None, dropout_p=0.3):
    """:func:`forward` for several parameter sets over the same features and graphs.

    ``cohort`` holds one :class:`ModelParams` per member and
    ``dropout_seeds`` one dropout seed (or None) per member; None
    evaluates every member.  Each member draws its masks in the order
    :func:`forward` does, and each branch runs two operator products for
    the whole cohort, at widths R*h and R*K for R members, so every
    member's result is bitwise equal to its own :func:`forward`.
    Returns one :class:`ForwardCache` per member.
    """
    x = as_dense(x, "features")
    if dropout_seeds is None:
        dropout_seeds = [None] * len(cohort)
    inputs = []  # per member, per branch: the dropped layer-1 input and the layer-2 mask
    for params, seed in zip(cohort, dropout_seeds):
        if len(graphs) != params.n_branches:
            raise ShapeError(f"{len(graphs)} graphs for {params.n_branches} branches")
        for m in range(params.n_branches):
            _check_branch(x, graphs[m], params.theta0[m], params.theta1[m])
        rng = None
        if seed is not None and dropout_p > 0.0:
            if not 0.0 <= dropout_p < 1.0:
                raise ParameterError(f"dropout rate must lie in [0, 1), got {dropout_p}")
            rng = np.random.default_rng(seed)
        member = []
        for _ in range(params.n_branches):
            if rng is None:
                member.append((x, None))
            else:
                mask0 = _dropout_mask(rng, x.shape, dropout_p)
                member.append((x * mask0, _dropout_mask(rng, (x.shape[0], params.hidden), dropout_p)))
        inputs.append(member)

    branches = [
        _branch_cohort(
            graphs[m],
            [member[m][0] for member in inputs],
            [params.theta0[m] for params in cohort],
            [params.theta1[m] for params in cohort],
            [member[m][1] for member in inputs],
        )
        for m in range(len(graphs))
    ]
    caches = []
    for r, params in enumerate(cohort):
        member = [branch[r] for branch in branches]
        _, probs = rank_combine([br.logits for br in member], params.omega)
        caches.append(ForwardCache(branches=member, graphs=list(graphs), probs=probs, params=params))
    return caches


def backward(cache, y, labeled_mask, l2_lambda=0.0):
    """Analytic gradients at ``cache.params`` of the masked cross-entropy plus L2 penalty.

    Unlabeled rows contribute nothing; the loss is normalized by the
    labeled count.  The L2 penalty ``l2_lambda * sum ||Theta||_F^2``
    affects layer weights only, never the ranking weights.  This is
    :func:`backward_cohort` for a cohort of one.
    """
    return backward_cohort([cache], y, [labeled_mask], l2_lambda)[0]


def backward_cohort(caches, y, labeled_masks, l2_lambda=0.0):
    """:func:`backward` for the members of one :func:`forward_cohort` call.

    ``caches`` and ``labeled_masks`` hold one entry per member.  Each
    branch runs its two operator products once for the whole cohort, so
    every member's gradient is bitwise equal to its own :func:`backward`.
    Returns one gradient :class:`ModelParams` per member.
    """
    y = as_dense(y, "labels")
    cohort = [cache.params for cache in caches]
    grad_fused = []
    for cache, labeled_mask in zip(caches, labeled_masks):
        labeled_mask = np.asarray(labeled_mask, dtype=bool)
        if cache.graphs != caches[0].graphs:
            raise ConsistencyError("cohort members do not share their graphs")
        if y.shape != cache.probs.shape:
            raise ShapeError(f"labels {y.shape} do not match predictions {cache.probs.shape}")
        if labeled_mask.shape != (y.shape[0],):
            raise ShapeError(f"mask shape {labeled_mask.shape} does not match {y.shape[0]} subjects")
        n_labeled = int(labeled_mask.sum())
        grad = np.zeros_like(cache.probs)
        if n_labeled > 0:
            grad[labeled_mask] = (cache.probs[labeled_mask] - y[labeled_mask]) / n_labeled
        grad_fused.append(grad)

    grads = [params.copy() for params in cohort]  # every entry is overwritten below
    for m, a_hat in enumerate(caches[0].graphs):
        # A_hat is symmetric, so each layer's propagation passes its gradient G back as A_hat @ G
        projected1 = _spmm_side_by_side(a_hat, [p.omega[m] * g for p, g in zip(cohort, grad_fused)])
        grad_preacts = []
        for cache, params, grad, g, gp1 in zip(caches, cohort, grads, grad_fused, projected1):
            br = cache.branches[m]
            grad.omega[m] = np.sum(g * br.logits)
            grad.theta1[m][...] = br.dropped1.T @ gp1 + 2.0 * l2_lambda * params.theta1[m]
            grad_dropped_hidden = gp1 @ params.theta1[m].T
            grad_hidden = grad_dropped_hidden if br.mask1 is None else grad_dropped_hidden * br.mask1
            grad_preacts.append(grad_hidden * (br.preact > 0))
        projected0 = _spmm_side_by_side(a_hat, grad_preacts)
        for cache, params, grad, gp0 in zip(caches, cohort, grads, projected0):
            grad.theta0[m][...] = cache.branches[m].dropped0.T @ gp0 + 2.0 * l2_lambda * params.theta0[m]
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
