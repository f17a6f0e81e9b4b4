"""Stratified Monte-Carlo cross-validation over named experiment arms.

Every repeat draws one stratified train/validation split that is shared
by all arms, so per-repeat metrics are legitimately paired and the
reported t-tests are valid.  Each repeat also derives an independent
training seed from ``(seed, repeat)``.  Runs share no state, so a study
trains them side by side on the cores that BLAS leaves idle.
"""

import contextvars
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DegenerateInputError, ParameterError, require_memory
from .stats import accuracy, auc, paired_t_test
from .training import as_operators, split_masks, train

__all__ = ["Arm", "ArmResult", "Comparison", "CvReport", "cross_validate", "derive_seed"]

# Bytes a study keeps from its first split draw to its report: per repeat, its two masks (a byte per subject) and
# _REPEAT_BYTES for the split and its run configs; per run, its best_probs (a float64 per subject and class) and one
# history record per epoch of at most _RECORD_BYTES plus _RECORD_OMEGA_BYTES per ranking weight.  Tracemalloc read
# 440 to 560 bytes a repeat beside its masks, and 291, 353 and 510 bytes a record at 1, 3 and 8 ranking weights.
_REPEAT_BYTES = 1024
_RECORD_BYTES = 288
_RECORD_OMEGA_BYTES = 32


@dataclass(frozen=True)
class Arm:
    """One experiment arm: a named graph set with its ranking mode.

    ``graphs`` holds graph-source strings inside an
    :class:`~pgcn.experiments.ExperimentConfig` and built
    :class:`~pgcn.graphs.AffinityGraph` objects once
    :func:`~pgcn.experiments.build_arm_graphs` has run;
    :func:`cross_validate` takes only the built form.
    """

    name: str
    graphs: tuple
    fixed_omega: tuple | None = None  # None means trainable

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if not self.graphs:
            raise ConfigError(f"arm {self.name!r} has no graphs")
        if self.fixed_omega is not None:
            fixed = tuple(float(w) for w in self.fixed_omega)
            if len(fixed) != len(self.graphs):
                raise ConfigError(
                    f"arm {self.name!r}: {len(fixed)} fixed weights for {len(self.graphs)} graphs"
                )
            object.__setattr__(self, "fixed_omega", fixed)


@dataclass
class ArmResult:
    name: str
    accuracies: np.ndarray
    aucs: np.ndarray

    @property
    def mean_acc(self):
        return float(np.mean(self.accuracies))

    @property
    def std_acc(self):
        return float(np.std(self.accuracies, ddof=1))

    @property
    def mean_auc(self):
        return float(np.mean(self.aucs))

    @property
    def std_auc(self):
        return float(np.std(self.aucs, ddof=1))


@dataclass(frozen=True)
class Comparison:
    arm_a: str
    arm_b: str
    t: float
    p: float
    degenerate: bool = False


@dataclass
class CvReport:
    """Per-arm metrics, aggregates, and pairwise accuracy comparisons."""

    arms: list
    comparisons: list
    repeats: int
    val_fraction: float
    seed: int
    histories: dict = field(default_factory=dict, repr=False)

    def arm(self, name):
        for result in self.arms:
            if result.name == name:
                return result
        raise ConfigError(f"no arm named {name!r} in this report")

    def comparison(self, name_a, name_b):
        for c in self.comparisons:
            if {c.arm_a, c.arm_b} == {name_a, name_b}:
                return c
        raise ConfigError(f"no comparison between {name_a!r} and {name_b!r}")

    def render(self):
        """Deterministic key-value text; identical runs give identical bytes."""
        lines = [
            "cv-report",
            f"repeats = {self.repeats}",
            f"val_fraction = {self.val_fraction!r}",
            f"seed = {self.seed}",
        ]
        for result in self.arms:
            lines.append("")
            lines.append(f"arm {result.name}")
            lines.append("  acc_per_repeat = " + " ".join(repr(v) for v in result.accuracies.tolist()))
            lines.append("  auc_per_repeat = " + " ".join(repr(v) for v in result.aucs.tolist()))
            lines.append(f"  mean_acc = {result.mean_acc!r}")
            lines.append(f"  std_acc = {result.std_acc!r}")
            lines.append(f"  mean_auc = {result.mean_auc!r}")
            lines.append(f"  std_auc = {result.std_auc!r}")
        for c in self.comparisons:
            lines.append("")
            lines.append(f"compare {c.arm_a} vs {c.arm_b}")
            lines.append(f"  t = {c.t!r}")
            lines.append(f"  p = {c.p!r}")
            if c.degenerate:
                same = np.array_equal(self.arm(c.arm_a).accuracies, self.arm(c.arm_b).accuracies)
                kind = "identical accuracies" if same else "the same nonzero accuracy difference"
                lines.append(f"  degenerate = true ({kind} in every repeat)")
        return "\n".join(lines) + "\n"


def derive_seed(*parts):
    """The first 32-bit word that ``numpy.random.SeedSequence(parts)`` generates, as an int."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def cross_validate(dataset, arms, config, repeats=10, val_fraction=0.1):
    """Train and score every arm on shared stratified splits.

    Returns a :class:`CvReport`; per-repeat training trajectories are
    kept under ``report.histories[(arm_name, repeat)]``.  Each repeat is
    one :func:`~pgcn.training.train` call on that repeat's split, with
    ``config.seed`` replaced by the repeat's derived seed, and is scored
    on its history's ``best_probs``: each branch runs six operator
    products per epoch of each repeat, at widths h and K, and none to
    score.  Pairwise
    t-tests run on accuracy.  A pair whose per-repeat accuracy
    differences have zero variance, identical accuracies or the same
    nonzero difference in every repeat, has no t statistic: it is
    recorded as degenerate with nan ``t`` and ``p``, unless every
    training trajectory of the two arms matches, which marks them as
    identical experiments and raises :class:`DegenerateInputError`.
    With more than two classes AUC is the macro one-vs-rest mean; a split
    whose validation set lacks a class leaves it undefined and raises
    :class:`ParameterError` before any run trains.
    So does a study whose splits and histories, sized from ``repeats``,
    the arms and ``config.max_epochs``, exceed physical memory, before
    the first split is drawn.

    The arm x repeat runs are handed out in (arm, repeat) order to
    ``max(1, usable cores // BLAS threads)`` threads, never more than
    there are runs; the calling thread is one of them.  BLAS threads are
    read as OpenBLAS reads them: the first of ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` that holds a positive
    integer, else one per usable core, so with none of them set runs
    train one at a time.  Every operator and its product plan is made
    before the first run, so the threads share only read-only arrays,
    and each thread runs in a copy of the caller's context (numpy's
    ``errstate`` included).  Results are gathered and scored in
    (arm, repeat) order, so the report, every history and every
    ``best_probs`` are the same at any thread count.  When runs fail,
    no further run is handed out and the failure of the first run in
    (arm, repeat) order is raised, as one thread would have raised it.
    """
    if repeats < 2:
        raise ParameterError(f"need at least 2 repeats, got {repeats}")
    if not arms:
        raise ParameterError("need at least one arm")
    names = [arm.name for arm in arms]
    if len(set(names)) != len(names):
        raise ConfigError("arm names must be unique")
    n, k = dataset.n_subjects, dataset.n_classes
    run_bytes = sum(8 * n * k + config.max_epochs * (_RECORD_BYTES + _RECORD_OMEGA_BYTES * len(arm.graphs))
                    for arm in arms)
    nbytes = repeats * (2 * n + _REPEAT_BYTES + run_bytes)
    require_memory(nbytes, ParameterError,
                   f"{repeats} repeats of {len(arms)} arms over n={n} need {nbytes} bytes of splits and histories")

    for arm in arms:  # operators and plans are derived on first use: make them here, before threads share them
        for op in as_operators(arm.graphs):
            op._product_plan()
    splits = [split_masks(dataset, val_fraction, r, config.seed) for r in range(repeats)]
    labels = dataset.labels()
    for cls in range(k):  # AUC needs every class in every validation set
        if not all(np.any(val_mask & (labels == cls)) for _, val_mask in splits):
            count = np.count_nonzero(dataset.labeled_mask & (labels == cls))
            raise ParameterError(f"AUC is undefined: class {cls} has {count} labeled subjects, and "
                                 f"val_fraction {val_fraction!r} puts none of them in a validation set")
    runs = [(arm, replace(config, seed=derive_seed(config.seed, r)), train_mask, val_mask)
            for arm in arms for r, (train_mask, val_mask) in enumerate(splits)]
    trained = iter(_train_runs(dataset, runs))
    results = []
    histories = {}
    for arm in arms:
        accs = np.zeros(repeats)
        aucs = np.zeros(repeats)
        for r, (_, val_mask) in enumerate(splits):
            _, history = next(trained)
            probs, val_labels = history.best_probs[val_mask], labels[val_mask]
            accs[r] = accuracy(history.best_probs, dataset.Y, val_mask)
            # with two classes the AUC of class 1, bit for bit; with more the macro one-vs-rest mean over the classes
            aucs[r] = np.mean([auc(probs[:, c], val_labels == c) for c in (range(k) if k > 2 else [1])])
            histories[(arm.name, r)] = history
        results.append(ArmResult(name=arm.name, accuracies=accs, aucs=aucs))

    comparisons = []
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            a, b = results[i], results[j]
            try:
                t, p = paired_t_test(a.accuracies, b.accuracies)
                comparisons.append(Comparison(a.name, b.name, t, p))
            except DegenerateInputError:
                same_runs = all(
                    histories[(a.name, r)].records == histories[(b.name, r)].records
                    for r in range(repeats)
                )
                if same_runs:
                    raise DegenerateInputError(
                        f"arms {a.name!r} and {b.name!r} are identical experiments "
                        "(every training trajectory matches)"
                    ) from None
                comparisons.append(Comparison(a.name, b.name, float("nan"), float("nan"), degenerate=True))

    return CvReport(
        arms=results,
        comparisons=comparisons,
        repeats=repeats,
        val_fraction=val_fraction,
        seed=config.seed,
        histories=histories,
    )


def _run_threads():
    """How many threads train a study's runs: the usable cores over the BLAS threads, at least one."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = cores
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(1, cores // blas)


def _train_runs(dataset, runs):
    """``train``'s result for each ``(arm, config, train_mask, val_mask)`` run, in run order.

    Up to :func:`_run_threads` threads, the calling thread among them,
    take the runs in order.  After a failure no run is handed out; the
    runs already out finish, and the failure of the earliest run is
    raised.
    """
    results = [None] * len(runs)
    failures = {}
    order = iter(range(len(runs)))
    lock = threading.Lock()
    stop = threading.Event()

    def work():
        while True:
            with lock:
                i = None if stop.is_set() else next(order, None)
            if i is None:
                return
            arm, run_config, train_mask, val_mask = runs[i]
            try:
                results[i] = train(dataset, arm.graphs, run_config, train_mask, val_mask, arm.fixed_omega)
            except BaseException as exc:
                with lock:
                    failures[i] = exc
                    stop.set()
                return

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,), daemon=True)
               for _ in range(min(_run_threads(), len(runs)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        stop.set()  # also when the calling thread leaves early, say on KeyboardInterrupt
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
