"""Independent oracles shared by the test modules.

Everything here is deliberately written against plain numpy / rational
arithmetic, never through the package's own kernels, so each check pits
two unrelated computation paths against each other.
"""

import math
from fractions import Fraction

import numpy as np


def brute_force_auc(scores, labels):
    """Exact pairwise-counting AUC in rational arithmetic."""
    wins = Fraction(0)
    pairs = 0
    for sp, lp in zip(scores, labels):
        if lp != 1:
            continue
        for sn, ln in zip(scores, labels):
            if ln != 0:
                continue
            pairs += 1
            if sp > sn:
                wins += 1
            elif sp == sn:
                wins += Fraction(1, 2)
    return wins / pairs


def brute_force_macro_auc(probs, labels):
    """Exact macro one-vs-rest AUC: the mean over classes c of :func:`brute_force_auc` of column c against class c."""
    k = probs.shape[1]
    return sum(brute_force_auc(probs[:, c].tolist(), (labels == c).astype(int).tolist()) for c in range(k)) / k


def power_iteration_radius(dense, iters=200, seed=0):
    """Spectral-radius estimate of a symmetric matrix by power iteration."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dense.shape[0])
    x /= np.linalg.norm(x)
    radius = 0.0
    for _ in range(iters):
        y = dense @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            return 0.0
        radius = norm
        x = y / norm
    return radius


def normal_cdf(x):
    """Standard normal CDF through ``math.erf``."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bayes_accuracy(strength, noise, agree):
    """Bayes-optimal accuracy on balanced two-Gaussian data with a noisy tag.

    Class means sit ``strength`` apart with isotropic noise ``noise``, and
    a binary category copies the label with probability ``agree``.  The
    Bayes rule adds the category's log-odds ``L = ln(agree / (1 - agree))``
    to the feature log-likelihood ratio ``(strength / noise**2) * z``,
    ``z`` being the projection onto the class-mean direction, which gives

        agree * Phi(s/2sigma + sigma L/s) + (1 - agree) * Phi(s/2sigma - sigma L/s).

    With ``strength == 0`` only the category is informative and the
    accuracy is ``max(agree, 1 - agree)``.
    """
    if noise <= 0:
        raise ValueError(f"noise scale must be > 0, got {noise}")
    if strength < 0:
        raise ValueError(f"strength must be >= 0, got {strength}")
    if not 0.0 <= agree <= 1.0:
        raise ValueError(f"agreement probability must lie in [0, 1], got {agree}")
    if strength == 0:
        return max(agree, 1.0 - agree)
    if agree in (0.0, 1.0):
        return 1.0  # the category alone determines the label
    half_gap = strength / (2.0 * noise)
    shift = noise * math.log(agree / (1.0 - agree)) / strength
    return (agree * normal_cdf(half_gap + shift)
            + (1.0 - agree) * normal_cdf(half_gap - shift))
