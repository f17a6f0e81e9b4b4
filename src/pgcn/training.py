"""Full-batch transductive training with Adam and staged ranking warm-up.

Every epoch runs one forward (training mode, dropout on), one hand-derived
backward, and one Adam step over all layer weights.  Ranking weights stay
frozen at their uniform 1/M start for the first warm-up epochs so the
convolution filters settle before the fusion layer is allowed to move;
afterwards they train like any other parameter.  Early stopping tracks
validation loss and the best snapshot is returned.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DataError, ParameterError, read_rows, require_memory
from .graphs import AffinityGraph
from .linalg import as_dense
from .model import ModelParams, backward, branch_forward, forward, init_params, rank_combine
from .stats import accuracy, stratified_mc_split

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "AdamState",
    "init_adam_state",
    "adam_step",
    "loss",
    "as_operators",
    "split_masks",
    "train",
    "grad_check",
]

LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule knobs with their stock defaults."""

    learning_rate: float = 0.005
    max_epochs: int = 150
    dropout_p: float = 0.3
    l2_lambda: float = 5e-4
    omega_warmup_epochs: int = 30
    early_stop_patience: int = 25
    seed: int = 0
    hidden_width: int = 16
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ParameterError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ParameterError(f"dropout rate must lie in [0, 1), got {self.dropout_p}")
        if self.early_stop_patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.early_stop_patience}")
        if self.max_epochs < 1:
            raise ParameterError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ParameterError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if self.omega_warmup_epochs < 0:
            raise ParameterError(f"warm-up epochs must be >= 0, got {self.omega_warmup_epochs}")
        if self.hidden_width < 1:
            raise ParameterError(f"hidden width must be >= 1, got {self.hidden_width}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ParameterError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ParameterError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float
    omega: tuple


@dataclass
class TrainHistory:
    """Per-epoch trajectory of losses, accuracy, and ranking weights.

    ``stop_reason`` is ``"early_stop"`` when patience ended the run and
    ``"max_epochs"`` when the epoch cap did.  ``best_probs`` holds the
    predictions of the best epoch's evaluation forward, so a run can be
    scored without another forward; it takes no part in comparisons.  A
    history read back from CSV has ``None`` for both, since the file
    records neither.
    """

    records: list
    best_epoch: int | None = None
    stop_reason: str | None = None
    best_probs: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.records)

    def omegas(self):
        return np.array([r.omega for r in self.records])

    def final_omega(self):
        return np.asarray(self.records[-1].omega)

    def to_csv(self, path):
        """One line per epoch, each cell after the epoch the repr of its float; :meth:`from_csv`'s code reads it first.

        A history it refuses, or reads back as other values (a nan matching
        any nan), raises :class:`DataError` before anything is written.
        """
        def cell(value):  # a value float does not take is written as its str, for the reader to judge
            try:
                return repr(float(value))
            except (TypeError, ValueError, OverflowError):
                return str(value)

        given = [(r.epoch, r.train_loss, r.val_loss, r.val_acc, *r.omega) for r in self.records]
        n_omega = len(self.records[0].omega) if self.records else 0
        lines = [",".join(["epoch", "train_loss", "val_loss", "val_acc"] + [f"omega_{i + 1}" for i in range(n_omega)])]
        lines += [",".join([str(values[0]), *map(cell, values[1:])]) for values in given]
        raw = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")  # from_csv's ascii decode refuses the rest
        try:
            read = _read_values(path, raw)
        except DataError as exc:
            raise DataError(f"refusing to write {path}: {exc}") from None
        # a record whose text spans lines or cells holds a str, which no value read back equals
        for k, (got, want) in enumerate(zip(read, given), 1):
            if not all(a == b or a != a and b != b for a, b in zip(got, want)):
                raise DataError(f"refusing to write {path}: record {k} would read back as {got}, not {want}")
        with open(path, "wb") as fh:
            fh.write(raw)

    @classmethod
    def from_csv(cls, path):
        """Read a file :meth:`to_csv` wrote; blank lines are skipped, and cells are split at commas, unquoted."""
        return cls(records=[EpochRecord(*values[:4], values[4:]) for values in _read_values(path)])


def _read_values(path, raw=None):
    """Per epoch, ``(epoch, train_loss, val_loss, val_acc, *omega)`` read from ``path`` or its bytes ``raw``."""
    rows = read_rows(path, "ascii", DataError, raw)
    header = rows[0][1] if rows else []
    if header[:4] != ["epoch", "train_loss", "val_loss", "val_acc"]:
        raise DataError(f"{path}: not a training-history file")
    if len(header) < 5 or header[4:] != [f"omega_{i + 1}" for i in range(len(header) - 4)]:
        raise DataError(f"{path}: malformed omega columns")
    values = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
        try:
            values.append((int(row[0]), *map(float, row[1:])))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparseable value") from exc
    if not values:
        raise DataError(f"{path}: history has no epochs")
    return values


def loss(probs, y, labeled_mask, params=None, l2_lambda=0.0):
    """Cross-entropy over labeled rows (averaged by labeled count) plus L2.

    Logs are floored at 1e-12 so a saturated wrong prediction cannot
    produce an infinite loss.
    """
    probs = as_dense(probs, "predictions")
    y = as_dense(y, "labels")
    mask = np.asarray(labeled_mask, dtype=bool)
    n_labeled = int(mask.sum())
    if n_labeled == 0:
        raise ParameterError("loss needs at least one labeled subject")
    ce = -float(np.sum(y[mask] * np.log(np.maximum(probs[mask], LOG_FLOOR)))) / n_labeled
    penalty = 0.0
    if l2_lambda:
        if params is None:
            raise ParameterError("params required when l2_lambda > 0")
        penalty = l2_lambda * sum(float(np.sum(t * t)) for t in params.theta0 + params.theta1)
    return ce + penalty


@dataclass
class AdamState:
    """First and second moment accumulators, laid out like the parameters."""

    m: ModelParams
    v: ModelParams


def init_adam_state(params):
    zeros = params.copy()
    zeros.vector[:] = 0.0
    return AdamState(m=zeros, v=zeros.copy())


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8, t=1):
    """One bias-corrected Adam update, applied in place to the parameter vector."""
    if t < 1:
        raise ParameterError(f"Adam step count must be >= 1, got {t}")
    if not params.layout == grads.layout == state.m.layout == state.v.layout:
        raise ConsistencyError("gradient/state layout does not match the parameters")
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m, v, g = state.m.vector, state.v.vector, grads.vector
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    params.vector -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params, state


def as_operators(graphs):
    """The normalized operators of a nonempty list of :class:`~pgcn.graphs.AffinityGraph`."""
    if not graphs:
        raise ParameterError("need at least one graph")
    for k, graph in enumerate(graphs):
        if not isinstance(graph, AffinityGraph):
            raise ParameterError(f"graph {k} is a {type(graph).__name__}, not an AffinityGraph")
    return [graph.normalized for graph in graphs]


def split_masks(dataset, val_fraction, repeat, seed):
    """Train and validation masks over all subjects from one stratified split of the labeled ones."""
    labeled = np.flatnonzero(dataset.labeled_mask)
    classes = dataset.labels()[labeled]
    plan = stratified_mc_split(classes, val_fraction=val_fraction, repeat=repeat, seed=seed)
    train_mask = np.zeros(dataset.n_subjects, dtype=bool)
    val_mask = np.zeros_like(train_mask)
    train_mask[labeled[plan.train_indices]] = True
    val_mask[labeled[plan.val_indices]] = True
    return train_mask, val_mask


def train(dataset, graphs, config, train_mask=None, val_mask=None, fixed_omega=None,
          initial_params=None):
    """Train on one dataset and list of :class:`~pgcn.graphs.AffinityGraph` and return the best snapshot.

    ``train_mask``/``val_mask`` select labeled rows for the objective and
    for early stopping and go together: pass both or neither.  When both
    are omitted a stratified 90/10 split of the labeled subjects is
    derived from ``config.seed``.  ``fixed_omega``
    pins the ranking weights for the whole run (the non-trainable
    ablation); otherwise they unfreeze after the warm-up epochs.
    ``initial_params`` overrides the seeded Glorot initialization, e.g.
    for warm starts; the object passed in is copied, never mutated.  The
    inputs, and the memory the first layer needs, are checked before
    :func:`~pgcn.model.init_params` runs.

    Each epoch every branch runs six operator products, dropout or not,
    two in the training forward, two in the backward and two in the
    evaluation forward, at widths h and K.

    Returns ``(params, history)`` where ``params`` is the snapshot with
    the lowest validation loss and ``history`` records every epoch, why
    the run stopped, and in ``best_probs`` the predictions of the best
    epoch's evaluation forward.  A run whose validation loss is never
    finite raises :class:`ParameterError`.
    """
    if (train_mask is None) != (val_mask is None):
        raise ParameterError("train_mask and val_mask go together: pass both or neither")
    ops = as_operators(graphs)
    x = as_dense(dataset.X, "features")
    y = as_dense(dataset.Y, "labels")
    labeled = np.asarray(dataset.labeled_mask, dtype=bool)
    if fixed_omega is not None:
        fixed_omega = np.asarray(fixed_omega, dtype=np.float64)
        if fixed_omega.shape != (len(ops),):
            raise ParameterError(f"fixed omega needs {len(ops)} entries, got {fixed_omega.shape}")
    if initial_params is None:
        (n, d), h = x.shape, config.hidden_width
        nbytes = (n + d) * h * 8  # one n x h hidden layer and the d x h weights
        require_memory(nbytes, ParameterError, f"hidden_width={h} needs {nbytes} bytes for one branch's first layer")
    elif initial_params.n_branches != len(ops) or initial_params.d_in != x.shape[1]:
        raise ConsistencyError("initial_params do not fit this dataset/graph combination")
    if train_mask is None:
        train_mask, val_mask = split_masks(dataset, 0.1, 0, config.seed)
    train_mask = np.asarray(train_mask, dtype=bool)
    val_mask = np.asarray(val_mask, dtype=bool)
    if not train_mask.any():
        raise ParameterError("training set is empty")
    if not val_mask.any():
        raise ParameterError("validation set is empty")
    if np.any(train_mask & ~labeled) or np.any(val_mask & ~labeled):
        raise ParameterError("train/validation masks must select labeled subjects")
    if np.any(train_mask & val_mask):
        raise ParameterError("train and validation masks overlap")

    if initial_params is not None:
        params = initial_params.copy()
    else:
        params = init_params(x.shape[1], config.hidden_width, y.shape[1], len(ops), seed=config.seed)
    if fixed_omega is not None:
        params.omega = fixed_omega
    state = init_adam_state(params)
    history = TrainHistory(records=[], best_epoch=0)
    best_val, best_params = np.inf, None
    for epoch in range(1, config.max_epochs + 1):
        cache = forward(x, ops, params, [config.seed, 101, epoch], config.dropout_p)
        train_loss = loss(cache.probs, y, train_mask, params, config.l2_lambda)
        grads = backward(cache, y, train_mask, config.l2_lambda)
        if fixed_omega is not None or epoch <= config.omega_warmup_epochs:
            grads.omega[:] = 0.0
        adam_step(
            params,
            grads,
            state,
            config.learning_rate,
            beta1=config.adam_beta1,
            beta2=config.adam_beta2,
            eps=config.adam_eps,
            t=epoch,
        )
        probs = forward(x, ops, params).probs
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            val_loss=loss(probs, y, val_mask),
            val_acc=accuracy(probs, y, val_mask),
            omega=tuple(params.omega.tolist()),
        )
        history.records.append(record)
        if record.val_loss < best_val:
            best_val, history.best_epoch = record.val_loss, epoch
            best_params, history.best_probs = params.copy(), probs
        elif epoch - history.best_epoch >= config.early_stop_patience:
            history.stop_reason = "early_stop"
            break
    else:
        history.stop_reason = "max_epochs"
    if not history.best_epoch:
        raise ParameterError(f"run with seed {config.seed} reached no finite validation loss in "
                             f"{len(history)} epochs; try a smaller learning_rate")
    return best_params, history


def grad_check(dataset, graphs, params, eps=1e-6, l2_lambda=5e-4):
    """Max relative error of analytic gradients against central differences.

    Dropout is disabled so the objective is smooth in the parameters.
    Intended for small instances (a few hundred parameters); cost is two
    loss evaluations per parameter entry.  A probe of a layer weight of
    branch m recomputes only branch m, two operator products at widths h
    and K, and a probe of a ranking weight reuses every branch's logits,
    so a call runs ``4M + 4 P_theta`` products for M branches and
    ``P_theta`` layer-weight entries.
    """
    ops = as_operators(graphs)
    x = as_dense(dataset.X, "features")
    y = as_dense(dataset.Y, "labels")
    mask = np.asarray(dataset.labeled_mask, dtype=bool)

    cache = forward(x, ops, params)
    analytic = backward(cache, y, mask, l2_lambda)
    logits = [br.logits for br in cache.branches]
    # the branch each vector entry belongs to, in ModelParams.tensors order; None for omega
    owners = [m % params.n_branches for m, t in enumerate(params.theta0 + params.theta1) for _ in range(t.size)]
    owners += [None] * params.n_branches

    def objective(branch):
        probe = list(logits)
        if branch is not None:
            _, probe[branch] = branch_forward(x, ops[branch], params.theta0[branch], params.theta1[branch])
        _, probs = rank_combine(probe, params.omega)
        return loss(probs, y, mask, params, l2_lambda)

    worst = 0.0
    flat_p, flat_a = params.vector, analytic.vector
    for idx, branch in enumerate(owners):
        orig = flat_p[idx]
        flat_p[idx] = orig + eps
        up = objective(branch)
        flat_p[idx] = orig - eps
        down = objective(branch)
        flat_p[idx] = orig
        numeric = (up - down) / (2.0 * eps)
        denom = max(1e-8, abs(flat_a[idx]) + abs(numeric))
        worst = max(worst, abs(flat_a[idx] - numeric) / denom)
    return worst
