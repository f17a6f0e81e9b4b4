"""Stratified Monte-Carlo cross-validation over named experiment arms.

Every repeat draws one stratified train/validation split that is shared
by all arms, so per-repeat metrics are legitimately paired and the
reported t-tests are valid.  Each repeat also derives an independent
training seed from ``(seed, repeat)``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError, ParameterError
from .stats import accuracy, auc, paired_t_test
from .training import split_masks, train_cohort

__all__ = ["Arm", "ArmResult", "Comparison", "CvReport", "cross_validate"]


@dataclass(frozen=True)
class Arm:
    """One experiment arm: a named graph set with its ranking mode.

    ``graphs`` holds graph-source strings inside an
    :class:`~pgcn.experiments.ExperimentConfig` and built graphs (or
    normalized operators) once :func:`~pgcn.experiments.build_arm_graphs`
    has run; :func:`cross_validate` takes the built form.
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
                lines.append("  degenerate = true (identical accuracies in every repeat)")
        return "\n".join(lines) + "\n"


def _repeat_seed(seed, repeat):
    return int(np.random.SeedSequence((int(seed) & 0xFFFFFFFF, int(repeat))).generate_state(1)[0])


def cross_validate(dataset, arms, config, repeats=10, val_fraction=0.1):
    """Train and score every arm on shared stratified splits.

    Returns a :class:`CvReport`; per-repeat training trajectories are
    kept under ``report.histories[(arm_name, repeat)]``.  An arm's
    repeats train in lockstep in one :func:`~pgcn.training.train_cohort`
    call, and each repeat is scored on the probabilities of its best
    epoch's evaluation forward: each branch runs ``6 * epochs`` operator
    products per cohort, at widths R*h and R*K for R members, and every
    repeat's numbers are bitwise those of training it alone.  Pairwise
    t-tests run on accuracy; a pair whose accuracies tie in every repeat
    is recorded as degenerate unless the AUCs tie as well, which marks
    the arms as fully identical and raises.
    """
    if repeats < 2:
        raise ParameterError(f"need at least 2 repeats, got {repeats}")
    if not arms:
        raise ParameterError("need at least one arm")
    names = [arm.name for arm in arms]
    if len(set(names)) != len(names):
        raise ConfigError("arm names must be unique")

    binary = dataset.n_classes == 2
    splits = [split_masks(dataset, val_fraction, r, config.seed) for r in range(repeats)]
    runs = [(_repeat_seed(config.seed, r), *splits[r]) for r in range(repeats)]
    results = []
    histories = {}
    for arm in arms:
        accs = np.zeros(repeats)
        aucs = np.full(repeats, np.nan)
        trained = train_cohort(dataset, arm.graphs, config, runs, fixed_omega=arm.fixed_omega)
        for r, (_, history, probs) in enumerate(trained):
            val_mask = splits[r][1]
            accs[r] = accuracy(probs, dataset.Y, val_mask)
            if binary:
                aucs[r] = auc(probs[val_mask, 1], dataset.labels()[val_mask])
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
