"""Full-batch transductive training with Adam and staged ranking warm-up.

Every epoch runs one forward (training mode, dropout on), one hand-derived
backward, and one Adam step over all layer weights.  Ranking weights stay
frozen at their uniform 1/M start for the first warm-up epochs so the
convolution filters settle before the fusion layer is allowed to move;
afterwards they train like any other parameter.  Early stopping tracks
validation loss and the best snapshot is returned.
"""

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, DataError, ParameterError, read_text
from .graphs import AffinityGraph, _physical_memory_bytes
from .linalg import as_dense
from .model import ModelParams, backward, forward, init_params, propagate
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

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


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
    ``"max_epochs"`` when the epoch cap did; a history read back from CSV
    has ``None``, since the file does not record it.
    """

    records: list
    best_epoch: int | None = None
    stop_reason: str | None = None

    def __len__(self):
        return len(self.records)

    def omegas(self):
        return np.array([r.omega for r in self.records])

    def final_omega(self):
        return np.asarray(self.records[-1].omega)

    def to_csv(self, path):
        n_omega = len(self.records[0].omega) if self.records else 0
        header = ["epoch", "train_loss", "val_loss", "val_acc"]
        header += [f"omega_{i + 1}" for i in range(n_omega)]
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for r in self.records:
                cells = [str(r.epoch), repr(r.train_loss), repr(r.val_loss), repr(r.val_acc)]
                cells += [repr(w) for w in r.omega]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path):
        reader = csv.reader(io.StringIO(read_text(path, "ascii", DataError)))
        try:
            rows = list(reader)
        except csv.Error as exc:  # a cell beyond the csv module's field size limit
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
        header = rows[0] if rows else None
        if header is None or header[:4] != ["epoch", "train_loss", "val_loss", "val_acc"]:
            raise DataError(f"{path}: not a training-history file")
        n_omega = len(header) - 4
        if n_omega < 1 or header[4:] != [f"omega_{i + 1}" for i in range(n_omega)]:
            raise DataError(f"{path}: malformed omega columns")
        records = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
            try:
                records.append(
                    EpochRecord(
                        epoch=int(row[0]),
                        train_loss=float(row[1]),
                        val_loss=float(row[2]),
                        val_acc=float(row[3]),
                        omega=tuple(float(c) for c in row[4:]),
                    )
                )
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable value") from exc
        if not records:
            raise DataError(f"{path}: history has no epochs")
        return cls(records=records)


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
    ops = [g.normalized if isinstance(g, AffinityGraph) else g for g in graphs]
    if not ops:
        raise ParameterError("need at least one graph")
    return ops


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
    """Train on one dataset/graph-set and return the best snapshot.

    ``train_mask``/``val_mask`` select labeled rows for the objective and
    for early stopping; when omitted a stratified 90/10 split of the
    labeled subjects is derived from ``config.seed``.  ``fixed_omega``
    pins the ranking weights for the whole run (the non-trainable
    ablation); otherwise they unfreeze after the warm-up epochs.
    ``initial_params`` overrides the seeded Glorot initialization, e.g.
    for warm starts; the object passed in is copied, never mutated.

    ``A_hat @ X`` is computed once per branch and reused by every pass
    without a layer-1 dropout mask: each epoch's evaluation forward, and
    the training forward too when ``dropout_p`` is 0.

    Returns ``(params, history)`` where ``params`` is the snapshot with
    the lowest validation loss and ``history`` records every epoch and
    why the run stopped.
    """
    ops = as_operators(graphs)
    x = as_dense(dataset.X, "features")
    y = as_dense(dataset.Y, "labels")
    if train_mask is None and val_mask is None:
        train_mask, val_mask = split_masks(dataset, 0.1, 0, config.seed)
    train_mask = np.asarray(train_mask, dtype=bool)
    val_mask = np.asarray(val_mask, dtype=bool)
    if not train_mask.any():
        raise ParameterError("training set is empty")
    if not val_mask.any():
        raise ParameterError("validation set is empty")
    labeled = np.asarray(dataset.labeled_mask, dtype=bool)
    if np.any(train_mask & ~labeled) or np.any(val_mask & ~labeled):
        raise ParameterError("train/validation masks must select labeled subjects")
    if np.any(train_mask & val_mask):
        raise ParameterError("train and validation masks overlap")

    if initial_params is not None:
        if initial_params.n_branches != len(ops) or initial_params.d_in != x.shape[1]:
            raise ConsistencyError("initial_params do not fit this dataset/graph combination")
        params = initial_params.copy()
    else:
        (n, d), h = x.shape, config.hidden_width
        memory = _physical_memory_bytes()
        if memory is not None and (n + d) * h * 8 > memory:  # one n x h hidden layer and the d x h weights
            raise ParameterError(f"hidden_width={h} needs {(n + d) * h * 8} bytes for one branch's first layer, "
                                 f"more than the {memory} bytes of physical memory")
        params = init_params(d, h, y.shape[1], len(ops), seed=config.seed)
    if fixed_omega is not None:
        fixed_omega = np.asarray(fixed_omega, dtype=np.float64)
        if fixed_omega.shape != (len(ops),):
            raise ParameterError(f"fixed omega needs {len(ops)} entries, got {fixed_omega.shape}")
        params.omega = fixed_omega

    propagated = propagate(x, ops)
    state = init_adam_state(params)
    best_params = params.copy()
    best_val = np.inf
    best_epoch = 0
    since_improvement = 0
    stop_reason = "max_epochs"
    records = []

    for epoch in range(1, config.max_epochs + 1):
        dropout_seed = None
        if config.dropout_p > 0.0:
            dropout_seed = [config.seed & 0xFFFFFFFF, 101, epoch]
        cache = forward(x, ops, params, dropout_seed=dropout_seed, dropout_p=config.dropout_p,
                        propagated_x=propagated)
        train_loss = loss(cache.probs, y, train_mask, params, config.l2_lambda)
        grads = backward(cache, y, train_mask, params, config.l2_lambda)
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
        eval_cache = forward(x, ops, params, propagated_x=propagated)
        val_loss = loss(eval_cache.probs, y, val_mask)
        val_acc = accuracy(eval_cache.probs, y, val_mask)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                val_acc=val_acc,
                omega=tuple(params.omega.tolist()),
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.early_stop_patience:
                stop_reason = "early_stop"
                break

    return best_params, TrainHistory(records=records, best_epoch=best_epoch, stop_reason=stop_reason)


def grad_check(dataset, graphs, params, eps=1e-6, l2_lambda=5e-4, labeled_mask=None):
    """Max relative error of analytic gradients against central differences.

    Dropout is disabled so the objective is smooth in the parameters.
    Intended for small instances (a few hundred parameters); cost is two
    forward passes per parameter entry, each reusing ``A_hat @ X``
    computed once per call, so a probe runs one width-h propagation per
    branch.
    """
    ops = as_operators(graphs)
    x = as_dense(dataset.X, "features")
    y = as_dense(dataset.Y, "labels")
    mask = np.asarray(dataset.labeled_mask if labeled_mask is None else labeled_mask, dtype=bool)

    propagated = propagate(x, ops)
    cache = forward(x, ops, params, propagated_x=propagated)
    analytic = backward(cache, y, mask, params, l2_lambda)

    def objective():
        probe = forward(x, ops, params, propagated_x=propagated)
        return loss(probe.probs, y, mask, params, l2_lambda)

    worst = 0.0
    flat_p, flat_a = params.vector, analytic.vector
    for idx in range(flat_p.size):
        orig = flat_p[idx]
        flat_p[idx] = orig + eps
        up = objective()
        flat_p[idx] = orig - eps
        down = objective()
        flat_p[idx] = orig
        numeric = (up - down) / (2.0 * eps)
        denom = max(1e-8, abs(flat_a[idx]) + abs(numeric))
        worst = max(worst, abs(flat_a[idx] - numeric) / denom)
    return worst
