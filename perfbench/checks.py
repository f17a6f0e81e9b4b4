"""Output checks, computed apart from ``pgcn``.

Each check returns a list of problems; an empty list is a pass.  The
references come from the benchmark's own input files and from numpy,
``statistics`` and ``scipy.stats``, never from the package under test.
Self-tests feed a check one corrupted output and require a rejection.
"""

import csv
import json
import math
import os
import re
import statistics

import numpy as np
from scipy.stats import ttest_rel

from workloads import AGREE, NOISE, STRENGTH

GRADCHECK_THRESHOLD = 1e-5
WEIGHT_TOL = 1e-12
MEAN_REL_TOL = 1e-12
STD_REL_TOL = 1e-10
TEST_REL_TOL = 1e-8
BAR_STANDARD_ERRORS = 5.0

_FLOAT64_REPR = re.compile(r"^np\.float64\((.*)\)$")


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bayes_accuracy(strength, noise, agree):
    """Bayes-optimal accuracy of two balanced Gaussian classes plus a noisy tag.

    Means sit ``strength`` apart with isotropic ``noise``; the tag names
    the label's class with probability ``agree``.  The Bayes rule adds
    the tag's log-odds ``L`` to the feature log-likelihood ratio, which
    gives ``agree * Phi(s/2n + nL/s) + (1 - agree) * Phi(s/2n - nL/s)``.
    """
    if strength == 0:
        return max(agree, 1.0 - agree)
    half_gap = strength / (2.0 * noise)
    shift = noise * math.log(agree / (1.0 - agree)) / strength
    return agree * normal_cdf(half_gap + shift) + (1.0 - agree) * normal_cdf(half_gap - shift)


def learning_bar(ceiling, repeats, n_per_class, val_fraction):
    """Ceiling minus ``BAR_STANDARD_ERRORS`` binomial errors of the pooled validation set."""
    n_val = min(int(math.floor(val_fraction * n_per_class + 0.5)), n_per_class - 1)
    pooled = repeats * 2 * n_val
    return ceiling - BAR_STANDARD_ERRORS * math.sqrt(ceiling * (1.0 - ceiling) / pooled)


def parse_number(raw):
    """``(value, plain)``: the number in a report field and whether it is a plain float repr."""
    match = _FLOAT64_REPR.match(raw)
    return float(match.group(1) if match else raw), match is None


# --- inputs --------------------------------------------------------------


class Reference:
    """Everything the checks need from the input files of one run."""

    def __init__(self, in_dir, workload):
        self.workload = workload
        self.x = np.loadtxt(os.path.join(in_dir, "features.csv"), delimiter=",", skiprows=1, ndmin=2)
        with open(os.path.join(in_dir, "meta.csv"), encoding="ascii") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        self.columns = {}
        for k, cell in enumerate(rows[0][1:], start=1):
            name, _, kind = cell.partition(":")
            values = [r[k] for r in rows[1:]]
            self.columns[name] = np.array(values, dtype=np.float64) if kind == "continuous" else np.array(values)
        with open(os.path.join(in_dir, "experiment.json"), encoding="ascii") as fh:
            self.config = json.load(fh)
        self.n = self.x.shape[0]
        centered = self.x - self.x.mean(axis=1, keepdims=True)
        self.unit_rows = centered / np.linalg.norm(centered, axis=1, keepdims=True)
        self._pairs = {}

    def expected_pairs(self, column):
        """Sorted ``i * n + j`` keys (i < j) of the edges one column implies."""
        if column not in self._pairs:
            self._pairs[column] = self._edge_keys(column)
        return self._pairs[column]

    def _edge_keys(self, column):
        values = self.columns[column]
        if values.dtype.kind == "f":
            beta = dict(self.workload.betas)[column]
            adj = np.abs(values[:, None] - values[None, :]) < beta
        else:
            adj = values[:, None] == values[None, :]
        return np.flatnonzero(np.triu(adj, k=1))

    def pearson_weights(self, i, j):
        return np.maximum(0.0, np.einsum("ij,ij->i", self.unit_rows[i], self.unit_rows[j]))


# --- edge lists ----------------------------------------------------------


def read_edge_list(path):
    """``(header, i, j, w)`` of an edge-list file; ValueError if a line is not 'i j weight'."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header, body = (lines[0], lines[1:]) if lines else ("", [])
    if any(line.count(" ") != 2 for line in body):
        raise ValueError(f"{path}: an edge line is not 'i j weight'")
    toks = " ".join(body).split(" ") if body else []
    return (header, np.array(toks[0::3], dtype=np.int64), np.array(toks[1::3], dtype=np.int64),
            np.array(toks[2::3], dtype=np.float64))


def edge_list_problems(ref, column, header, i, j, w):
    n = ref.n
    if header != f"n {n}":
        return [f"graph {column}: header {header!r}, expected 'n {n}'"]
    if not (np.all(i >= 0) and np.all(j < n) and np.all(i < j)):
        return [f"graph {column}: an edge is not 0 <= i < j < {n}"]
    keys = i * n + j
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if np.any(np.diff(keys) == 0):
        return [f"graph {column}: duplicate edge"]
    expected = ref.expected_pairs(column)
    if not np.array_equal(keys, expected):
        return [f"graph {column}: {len(keys)} edges, expected {len(expected)}, "
                f"{len(np.setxor1d(keys, expected))} differ"]
    err = np.abs(w - ref.pearson_weights(i, j))
    if err.size and err.max() > WEIGHT_TOL:
        k = int(np.argmax(err))
        return [f"graph {column}: weight of ({i[k]}, {j[k]}) is {w[k]!r}, off by {err[k]:.3g}"]
    return []


# --- cv report -----------------------------------------------------------


def read_report(path):
    """``(header, arms, comparisons, config_echo)`` with raw field strings."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    body, _, echo = text.partition("\nconfig\n")
    header, arms, comparisons = {}, {}, []
    entry = header
    for line in body.split("\n")[1:]:
        if not line:
            continue
        if line.startswith("arm "):
            entry = arms.setdefault(line[4:], {})
        elif line.startswith("compare "):
            a, _, b = line[8:].partition(" vs ")
            entry = {"pair": (a, b)}
            comparisons.append(entry)
        else:
            key, _, value = line.strip().partition(" = ")
            entry[key] = value
    return header, arms, comparisons, echo


def per_repeat(arm, key):
    return [float(v) for v in arm[key].split()]


def coverage_problems(ref, seed, header, arms, comparisons, echo, study_dir):
    config = ref.config
    repeats = config["repeats"]
    names = [a["name"] for a in config["arms"]]
    problems = []
    if header.get("repeats") != str(repeats) or header.get("seed") != str(seed):
        problems.append(f"report header {header}, expected repeats {repeats} and seed {seed}")
    if list(arms) != names:
        problems.append(f"report arms {list(arms)}, expected {names}")
    for name, arm in arms.items():
        for key in ("acc_per_repeat", "auc_per_repeat"):
            if len(arm.get(key, "").split()) != repeats:
                problems.append(f"arm {name}: {key} does not hold {repeats} values")
    pairs = [(names[a], names[b]) for a in range(len(names)) for b in range(a + 1, len(names))]
    if [c["pair"] for c in comparisons] != pairs:
        problems.append(f"report comparisons {[c['pair'] for c in comparisons]}, expected {pairs}")
    try:
        echoed = json.loads(echo)
        if echoed["repeats"] != repeats or [a["name"] for a in echoed["arms"]] != names:
            problems.append("config echo does not match the experiment")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"config echo unreadable: {exc}")
    expected_files = {f"history_{name}_rep{r}.csv" for name in names for r in range(repeats)}
    found = {f for f in os.listdir(study_dir) if f.startswith("history_")}
    if found != expected_files:
        problems.append(f"history files: {len(found)} found, {len(expected_files)} expected, "
                        f"{sorted(found ^ expected_files)[:3]} differ")
    return problems


def aggregate_problems(name, arm):
    problems = []
    for metric in ("acc", "auc"):
        values = per_repeat(arm, f"{metric}_per_repeat")
        mean, _ = parse_number(arm[f"mean_{metric}"])
        std, _ = parse_number(arm[f"std_{metric}"])
        if not math.isclose(mean, statistics.fmean(values), rel_tol=MEAN_REL_TOL, abs_tol=1e-15):
            problems.append(f"arm {name}: mean_{metric} {mean!r} != {statistics.fmean(values)!r}")
        if not math.isclose(std, statistics.stdev(values), rel_tol=STD_REL_TOL, abs_tol=1e-15):
            problems.append(f"arm {name}: std_{metric} {std!r} != {statistics.stdev(values)!r}")
    return problems


def comparison_problems(arms, comparison):
    a, b = comparison["pair"]
    acc_a, acc_b = per_repeat(arms[a], "acc_per_repeat"), per_repeat(arms[b], "acc_per_repeat")
    t, _ = parse_number(comparison["t"])
    p, _ = parse_number(comparison["p"])
    if "degenerate" in comparison:
        if acc_a != acc_b or not (math.isnan(t) and math.isnan(p)):
            return [f"{a} vs {b}: marked degenerate, but accuracies differ or t/p are not nan"]
        return []
    want = ttest_rel(acc_a, acc_b)
    if not (math.isclose(t, float(want.statistic), rel_tol=TEST_REL_TOL, abs_tol=1e-12)
            and math.isclose(p, float(want.pvalue), rel_tol=TEST_REL_TOL, abs_tol=1e-15)):
        return [f"{a} vs {b}: t {t!r} p {p!r}, ttest_rel gives {want.statistic!r} {want.pvalue!r}"]
    return []


def t_line_problems(comparisons):
    """Each ``t`` line must print a plain float, not a numpy scalar repr."""
    return [f"{c['pair'][0]} vs {c['pair'][1]}: t line reads {c['t']!r}"
            for c in comparisons if not parse_number(c["t"])[1]]


def history_problems(ref, arm_config, study_dir):
    train = ref.config["train"]
    sources = arm_config["graph_sources"]
    fixed = arm_config.get("omega", "trainable")
    header = ["epoch", "train_loss", "val_loss", "val_acc"] + [f"omega_{k + 1}" for k in range(len(sources))]
    problems = []
    for r in range(ref.config["repeats"]):
        path = os.path.join(study_dir, f"history_{arm_config['name']}_rep{r}.csv")
        if not os.path.exists(path):
            problems.append(f"{os.path.basename(path)} missing")
            continue
        with open(path, encoding="ascii", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            problems.append(f"{os.path.basename(path)}: header {rows[:1]}")
            continue
        epochs = [int(row[0]) for row in rows[1:]]
        if not 1 <= len(epochs) <= train["max_epochs"] or epochs != list(range(1, len(epochs) + 1)):
            problems.append(f"{os.path.basename(path)}: epochs {epochs[:3]}... of {len(epochs)}")
        for row in rows[1:]:
            omega = [float(c) for c in row[4:]]
            if fixed != "trainable" and omega != fixed:
                problems.append(f"{os.path.basename(path)}: fixed omega {omega} at epoch {row[0]}")
                break
            if fixed == "trainable" and int(row[0]) <= train["omega_warmup_epochs"] \
                    and omega != [1.0 / len(sources)] * len(sources):
                problems.append(f"{os.path.basename(path)}: omega {omega} moved in warm-up epoch {row[0]}")
                break
    return problems


def gradcheck_problems(stdout_path, seed, count):
    with open(stdout_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    instances = [ln.split() for ln in lines if ln.startswith("seed ")]
    seeds = [int(parts[1]) for parts in instances]
    if seeds != list(range(seed, seed + count)):
        return [f"gradcheck reported seeds {seeds[:3]}..., expected {seed}..{seed + count - 1}"]
    worst = max(float(parts[3]) for parts in instances)
    if not worst < GRADCHECK_THRESHOLD:
        return [f"gradcheck max relative error {worst:.3e} >= {GRADCHECK_THRESHOLD:.0e}"]
    return []


def learning_bar_problems(ref, arms):
    """The first arm, which is trainable, must clear the Bayes-derived bar."""
    name = ref.config["arms"][0]["name"]
    bar = learning_bar(bayes_accuracy(STRENGTH, NOISE, AGREE), ref.config["repeats"],
                       ref.n // 2, ref.config["val_fraction"])
    mean_acc = parse_number(arms[name]["mean_acc"])[0]
    return [] if mean_acc >= bar else [f"{name} mean_acc {mean_acc:.4f} < bar {bar:.4f}"]


def altered_mean_problems(name, arm):
    """The aggregate check of ``arm`` with its ``mean_acc`` moved by 1e-9."""
    return aggregate_problems(name, dict(arm, mean_acc=repr(parse_number(arm["mean_acc"])[0] + 1e-9)))


# --- one round -----------------------------------------------------------


def _guarded(check, *args):
    """Run one check; a missing or malformed output is a problem, not a crash."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{check.__name__}: {exc!r}"]


def _rejects(check, *args):
    """Self-test: the check must find a problem in a corrupted output."""
    return [] if _guarded(check, *args) else [f"{check.__name__} accepted a corrupted output"]


def round_operations(ref, seed, out_dir, argvs, rcs):
    """Yield ``(name, problems, known_fault)`` for every operation of one round.

    The operations are the same in every round and for every seed: one
    per CLI invocation and one per output check or self-test.
    """
    w = ref.workload
    for k, (argv, rc) in enumerate(zip(argvs, rcs)):
        yield f"pgcn {argv[0]} (step {k})", [] if rc == 0 else [f"exit status {rc!r}"], False
    if w.gradcheck_count:
        stdout = os.path.join(out_dir, "stdout_0.txt")
        yield "gradcheck instances", _guarded(gradcheck_problems, stdout, seed, w.gradcheck_count), False

    for n_col, column in enumerate(w.exported):
        try:
            header, i, j, wt = read_edge_list(os.path.join(out_dir, "graphs", f"graph_{column}.txt"))
            unreadable = []
        except (OSError, ValueError) as exc:
            header, i, j, wt = "", np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
            unreadable = [repr(exc)]
        yield f"edge list {column}", unreadable or edge_list_problems(ref, column, header, i, j, wt), False
        if n_col == 0:
            yield "self-test: dropped edge", _rejects(
                edge_list_problems, ref, column, header, i[:-1], j[:-1], wt[:-1]), False
            moved = wt + 2 * WEIGHT_TOL * (np.arange(len(wt)) == 0)
            yield "self-test: moved weight", _rejects(edge_list_problems, ref, column, header, i, j, moved), False

    study = os.path.join(out_dir, "study")
    try:
        header, arms, comparisons, echo = read_report(os.path.join(study, "report.txt"))
        missing = []
    except OSError as exc:
        header, arms, comparisons, echo = {}, {}, [], ""
        missing = [f"report.txt: {exc!r}"]
    arm_configs = ref.config["arms"]
    yield "report coverage", missing or _guarded(
        coverage_problems, ref, seed, header, arms, comparisons, echo, study), False
    for arm in arm_configs:
        yield f"aggregates {arm['name']}", missing or _guarded(
            aggregate_problems, arm["name"], arms.get(arm["name"], {})), False
    for k in range(len(arm_configs) * (len(arm_configs) - 1) // 2):
        yield f"comparison {k}", missing or _guarded(comparison_problems, arms, comparisons[k]), False
    yield "t lines are plain floats", missing or t_line_problems(comparisons), True
    for arm in arm_configs:
        yield f"histories {arm['name']}", _guarded(history_problems, ref, arm, study), False
    yield "learning bar", _guarded(learning_bar_problems, ref, arms), False
    first = arm_configs[0]["name"]
    yield "self-test: altered mean", _rejects(altered_mean_problems, first, arms.get(first, {})), False
