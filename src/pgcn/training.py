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
from .model import (
    ModelParams,
    backward,
    backward_cohort,
    branch_forward,
    forward,
    forward_cohort,
    init_params,
    rank_combine,
)
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
    "train_cohort",
    "grad_check",
]

LOG_FLOOR = 1e-12

# Hidden columns per training cohort.  A cohort holds max(1, COHORT_COLUMNS // hidden_width)
# runs: the per-column cost of a CSR product flattens by 48-64 columns and rises past 64,
# and the bound keeps the cohort's live caches from growing with the number of runs.
COHORT_COLUMNS = 64


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

    This is :func:`train_cohort` for a cohort of one: a branch-epoch runs
    six operator products, dropout or not, two in the training forward,
    two in the backward and two in the evaluation forward, at widths h
    and K.

    Returns ``(params, history)`` where ``params`` is the snapshot with
    the lowest validation loss and ``history`` records every epoch and
    why the run stopped.
    """
    if train_mask is None and val_mask is None:
        train_mask, val_mask = split_masks(dataset, 0.1, 0, config.seed)
    ((params, history, _),) = train_cohort(dataset, graphs, config, [(config.seed, train_mask, val_mask)],
                                           fixed_omega, initial_params)
    return params, history


class _Run:
    """One member of a training cohort: its weights, Adam state, masks, history and best snapshot."""

    def __init__(self, seed, params, train_mask, val_mask):
        self.seed = seed
        self.params = params
        self.train_mask = train_mask
        self.val_mask = val_mask
        self.state = init_adam_state(params)
        self.history = TrainHistory(records=[], best_epoch=0)
        self.best_params = None
        self.best_probs = None

    def end_epoch(self, record, probs, patience):
        """Record the epoch, keep a new best's snapshot and ``probs``, and stop when patience runs out."""
        history = self.history
        best_val = history.records[history.best_epoch - 1].val_loss if history.best_epoch else np.inf
        history.records.append(record)
        if record.val_loss < best_val:
            history.best_epoch = record.epoch
            self.best_params = self.params.copy()
            self.best_probs = probs
        elif record.epoch - history.best_epoch >= patience:
            history.stop_reason = "early_stop"

    def result(self):
        if not self.history.best_epoch:
            raise ParameterError(f"run with seed {self.seed} reached no finite validation loss in "
                                 f"{len(self.history)} epochs; try a smaller learning_rate")
        return self.best_params, self.history, self.best_probs


def train_cohort(dataset, graphs, config, runs, fixed_omega=None, initial_params=None):
    """Train several runs over the same graphs in lockstep; one ``(params, history, probs)`` per run.

    ``runs`` holds one ``(seed, train_mask, val_mask)`` per member.  Each
    member trains exactly as :func:`train` would with
    ``config.with_seed(seed)`` and its masks, leaving its cohort when
    patience runs out, and also returns ``probs``, the predictions of its
    best epoch's evaluation forward.  A member whose validation loss is
    never finite raises :class:`ParameterError`.  ``fixed_omega`` and
    ``initial_params`` apply to every member.  Members train in
    sequential cohorts of ``max(1, COHORT_COLUMNS // hidden_width)``;
    each epoch every branch runs six operator products for a cohort's
    still-active members, at widths R*h and R*K for R members, with each
    member's columns bitwise equal to its own products.
    """
    ops = as_operators(graphs)
    x = as_dense(dataset.X, "features")
    y = as_dense(dataset.Y, "labels")
    labeled = np.asarray(dataset.labeled_mask, dtype=bool)
    if fixed_omega is not None:
        fixed_omega = np.asarray(fixed_omega, dtype=np.float64)

    members = []
    for seed, train_mask, val_mask in runs:
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
            if initial_params.n_branches != len(ops) or initial_params.d_in != x.shape[1]:
                raise ConsistencyError("initial_params do not fit this dataset/graph combination")
            params = initial_params.copy()
        else:
            (n, d), h = x.shape, config.hidden_width
            memory = _physical_memory_bytes()
            if memory is not None and (n + d) * h * 8 > memory:  # one n x h hidden layer and the d x h weights
                raise ParameterError(f"hidden_width={h} needs {(n + d) * h * 8} bytes for one branch's first layer, "
                                     f"more than the {memory} bytes of physical memory")
            params = init_params(d, h, y.shape[1], len(ops), seed=seed)
        if fixed_omega is not None:
            if fixed_omega.shape != (len(ops),):
                raise ParameterError(f"fixed omega needs {len(ops)} entries, got {fixed_omega.shape}")
            params.omega = fixed_omega
        members.append(_Run(seed, params, train_mask, val_mask))

    size = max(1, COHORT_COLUMNS // config.hidden_width)
    for start in range(0, len(members), size):
        _train_lockstep(x, y, ops, config, fixed_omega, members[start:start + size])
    return [run.result() for run in members]


def _train_lockstep(x, y, ops, config, fixed_omega, active):
    """Train one cohort of :class:`_Run` members until each has stopped or reached ``max_epochs``."""
    for epoch in range(1, config.max_epochs + 1):
        dropout_seeds = None
        if config.dropout_p > 0.0:
            dropout_seeds = [[run.seed & 0xFFFFFFFF, 101, epoch] for run in active]
        caches = forward_cohort(x, ops, [run.params for run in active], dropout_seeds, config.dropout_p)
        train_losses = [loss(cache.probs, y, run.train_mask, run.params, config.l2_lambda)
                        for cache, run in zip(caches, active)]
        grads = backward_cohort(caches, y, [run.train_mask for run in active], config.l2_lambda)
        for run, run_grads in zip(active, grads):
            if fixed_omega is not None or epoch <= config.omega_warmup_epochs:
                run_grads.omega[:] = 0.0
            adam_step(
                run.params,
                run_grads,
                run.state,
                config.learning_rate,
                beta1=config.adam_beta1,
                beta2=config.adam_beta2,
                eps=config.adam_eps,
                t=epoch,
            )
        eval_caches = forward_cohort(x, ops, [run.params for run in active])
        for run, train_loss, eval_cache in zip(active, train_losses, eval_caches):
            record = EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=loss(eval_cache.probs, y, run.val_mask),
                val_acc=accuracy(eval_cache.probs, y, run.val_mask),
                omega=tuple(run.params.omega.tolist()),
            )
            run.end_epoch(record, eval_cache.probs, config.early_stop_patience)
        active = [run for run in active if run.history.stop_reason is None]
        if not active:
            break
    for run in active:
        run.history.stop_reason = "max_epochs"


def grad_check(dataset, graphs, params, eps=1e-6, l2_lambda=5e-4, labeled_mask=None):
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
    mask = np.asarray(dataset.labeled_mask if labeled_mask is None else labeled_mask, dtype=bool)

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
