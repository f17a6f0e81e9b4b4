"""Evaluation metrics, paired significance testing, and split planning.

AUC uses the rank-sum (Mann-Whitney) formulation: the probability that a
random positive outscores a random negative, ties counted one half.  The
paired t-test converts its statistic to a two-sided p-value through the
regularized incomplete beta function.  Splits are stratified random
train/validation partitions, independently re-drawn per repeat.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateInputError, ParameterError

__all__ = [
    "SplitPlan",
    "accuracy",
    "auc",
    "paired_t_test",
    "stratified_mc_split",
]


def accuracy(probs, y, mask):
    """Fraction of masked rows whose predicted class matches the label.

    Argmax ties resolve to the lowest class index on both sides.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ParameterError("accuracy needs a nonempty mask")
    predicted = np.argmax(probs[mask], axis=1)
    actual = np.argmax(y[mask], axis=1)
    return float(np.mean(predicted == actual))


def auc(scores, labels):
    """Area under the ROC curve as the Mann-Whitney pair count.

    Equals the probability that a uniformly random positive subject
    receives a higher score than a uniformly random negative one, with
    tied scores counted 1/2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ParameterError("scores and labels must be equal-length vectors")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ParameterError("AUC needs at least one positive and one negative subject")
    if np.isnan(scores).any():
        return math.nan  # NaN scores have no ranking
    negatives, positives = np.sort(scores[~positive]), scores[positive]
    below = np.searchsorted(negatives, positives, "left")
    at_or_below = np.searchsorted(negatives, positives, "right")
    wins = float(below.sum()) + 0.5 * float((at_or_below - below).sum())
    return wins / (n_pos * n_neg)


def paired_t_test(a, b):
    """Two-sided paired t-test on per-repeat metrics.

    Returns ``(t, p)`` where t uses the sample standard deviation of the
    differences (n-1 denominator) and p comes from the Student-t CDF with
    n-1 degrees of freedom, evaluated through the regularized incomplete
    beta function.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ParameterError("paired t-test needs two equal-length vectors of >= 2 repeats")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("differences have zero variance (identical arms?)")
    n = len(d)
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    from scipy.special import betainc  # here, not at the top: only cv needs it, and every CLI call would load it
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return t, p


@dataclass(frozen=True)
class SplitPlan:
    """One stratified train/validation partition of the labeled subjects."""

    train_indices: np.ndarray
    val_indices: np.ndarray

    def __post_init__(self):
        for name in ("train_indices", "val_indices"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def stratified_mc_split(labels, val_fraction=0.1, repeat=0, seed=0):
    """Random split preserving class proportions within one subject.

    Deterministic for a given ``(seed, repeat)`` pair; distinct repeats
    draw independent permutations.  ``labels`` are integer class codes of
    the labeled population; returned indices point into that array.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) < 2:
        raise ParameterError("need a vector of at least two labels")
    if not 0.0 < val_fraction < 1.0:
        raise ParameterError(f"validation fraction must lie in (0, 1), got {val_fraction}")
    rng = np.random.default_rng([int(seed), int(repeat)])
    train_parts, val_parts = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise DataError(f"class {cls} has fewer than 2 members")
        shuffled = rng.permutation(members)
        n_val = int(np.floor(val_fraction * len(members) + 0.5))
        n_val = min(n_val, len(members) - 1)  # keep at least one training member
        val_parts.append(shuffled[:n_val])
        train_parts.append(shuffled[n_val:])
    return SplitPlan(train_indices=np.sort(np.concatenate(train_parts)), val_indices=np.sort(np.concatenate(val_parts)))
