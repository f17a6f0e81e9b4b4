"""Seeded inputs and CLI jobs of the benchmark workloads.

Inputs come from this module's own numpy code, never from
``pgcn.synth_generate``, so a change to the package's generator cannot
change the work.  Every subject draws a binary label; features sit at
class means ``STRENGTH`` apart along an alternating-sign unit direction
with unit Gaussian noise, and a label-informative metadata tag copies
the label with probability ``AGREE``.  That is the model whose
Bayes-optimal accuracy ``checks.bayes_accuracy`` gives in closed form.

Every ``TrainConfig`` field is pinned.  ``early_stop_patience`` equals
``max_epochs`` so every training run reaches the epoch cap: the work of
a job then does not depend on the seed, only its numbers do.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

STRENGTH = 1.0
NOISE = 1.0
AGREE = 0.9
VAL_FRACTION = 0.1


def train_config(seed, max_epochs, warmup, learning_rate):
    return {
        "learning_rate": learning_rate,
        "max_epochs": max_epochs,
        "dropout_p": 0.3,
        "l2_lambda": 5e-4,
        "omega_warmup_epochs": warmup,
        "early_stop_patience": max_epochs,
        "seed": seed,
        "hidden_width": 16,
        "adam_beta1": 0.9,
        "adam_beta2": 0.999,
        "adam_eps": 1e-8,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    columns: tuple          # (name, kind, parameter) per metadata column
    arms: tuple             # experiment-config arms; a "file:<column>" source is an exported graph
    repeats: int
    max_epochs: int
    warmup: int
    learning_rate: float
    gradcheck_count: int = 0
    exported: tuple = ()    # columns exported with ``build-graph`` before ``cv``
    betas: tuple = ()       # (column, beta) for continuous columns

    def config(self, seed, graph_dir):
        """The experiment JSON, with exported graph names turned into file paths."""
        arms = []
        for arm in self.arms:
            sources = [os.path.join(graph_dir, f"graph_{s[5:]}.txt") if s.startswith("file:") else s
                       for s in arm["graph_sources"]]
            arms.append(dict(arm, graph_sources=sources))
        return {
            "arms": arms,
            "train": train_config(seed, self.max_epochs, self.warmup, self.learning_rate),
            "repeats": self.repeats,
            "val_fraction": VAL_FRACTION,
            "betas": dict(self.betas),
            "metric": "pearson",
        }


WORKLOADS = {
    w.name: w
    for w in (
        # Dense propagation at width d = 64 > hidden 16: two categorical
        # graphs of density near 0.5 (N = 1000 gives about 250k edges each),
        # plus a random control of matched density.  A batch of gradient
        # checks runs first.
        Workload(
            name="cv-dense-wide",
            n=1000,
            d=64,
            columns=(("dx", "tag", 2), ("scanner", "uniform", 2)),
            arms=(
                {"name": "trainable", "graph_sources": ["dx", "scanner"]},
                {"name": "fixed_equal", "graph_sources": ["dx", "scanner"], "omega": [0.5, 0.5]},
                {"name": "nuisance_only", "graph_sources": ["scanner"], "omega": [1.0]},
                {"name": "control", "graph_sources": ["dx", "random"]},
            ),
            repeats=3,
            max_epochs=12,
            warmup=4,
            learning_rate=0.01,
            gradcheck_count=20,
        ),
        # Sparse graphs at N = 3000 (density 0.05 to 0.1 each), exported
        # to edge-list files and read back by ``cv``.
        Workload(
            name="graphs-large-sparse",
            n=3000,
            d=10,
            columns=(("site", "uniform", 20), ("age", "age", 60.0), ("dx", "tag", 20)),
            arms=(
                {"name": "files", "graph_sources": ["file:dx", "file:site", "file:age"]},
                {"name": "site_meta", "graph_sources": ["site"], "omega": [1.0]},
            ),
            repeats=2,
            max_epochs=15,
            warmup=3,
            learning_rate=0.1,
            exported=("dx", "site", "age"),
            betas=(("age", 1.6),),
        ),
    )
}


def generate(workload, seed):
    """Features, integer labels and metadata columns for one seed.

    Column kinds: ``tag`` has ``k`` values, half of them reserved for each
    class, and picks from the class of a copy of the label that is flipped
    with probability ``1 - AGREE``; ``uniform`` draws one of ``k`` codes;
    ``age`` is uniform on ``[20, 20 + span)``.
    """
    rng = np.random.default_rng([seed, 8191])
    n, d = workload.n, workload.d
    labels = rng.permutation(np.repeat([0, 1], n // 2))
    direction = np.where(np.arange(d) % 2 == 0, 1.0, -1.0) / np.sqrt(d)
    x = (labels[:, None] - 0.5) * STRENGTH * direction[None, :] + NOISE * rng.standard_normal((n, d))
    tag = labels ^ (rng.random(n) >= AGREE)
    meta = []
    for name, kind, param in workload.columns:
        if kind == "tag":
            half = param // 2
            codes = tag * half + rng.integers(0, half, n)
            meta.append((name, "categorical", np.array([f"c{c}" for c in codes])))
        elif kind == "uniform":
            codes = rng.integers(0, param, n)
            meta.append((name, "categorical", np.array([f"u{c}" for c in codes])))
        else:
            meta.append((name, "continuous", 20.0 + param * rng.random(n)))
    return x, labels, meta


def write_inputs(workload, seed, in_dir, out_dir):
    """Write ``features.csv``, ``meta.csv``, ``labels.csv`` and ``experiment.json``.

    Graph files named in the experiment are those the job exports under
    ``out_dir``.
    """
    os.makedirs(in_dir, exist_ok=True)
    x, labels, meta = generate(workload, seed)
    with open(os.path.join(in_dir, "features.csv"), "w", encoding="ascii") as fh:
        fh.write(",".join(f"f{j}" for j in range(workload.d)) + "\n")
        for row in x:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    with open(os.path.join(in_dir, "meta.csv"), "w", encoding="ascii") as fh:
        fh.write(",".join(["subject_id"] + [f"{name}:{kind}" for name, kind, _ in meta]) + "\n")
        for i in range(workload.n):
            cells = [f"s{i:05d}"]
            for _, kind, values in meta:
                cells.append(f"{values[i]:.17g}" if kind == "continuous" else str(values[i]))
            fh.write(",".join(cells) + "\n")
    with open(os.path.join(in_dir, "labels.csv"), "w", encoding="ascii") as fh:
        fh.write("subject_id,label\n")
        for i, label in enumerate(labels):
            fh.write(f"s{i:05d},{label}\n")
    with open(os.path.join(in_dir, "experiment.json"), "w", encoding="ascii") as fh:
        json.dump(workload.config(seed, os.path.join(out_dir, "graphs")), fh, indent=1)


def steps(workload, seed, in_dir, out_dir):
    """The job: one argv list per ``pgcn.cli.main`` call, in order."""
    data = ["--features", os.path.join(in_dir, "features.csv"),
            "--meta", os.path.join(in_dir, "meta.csv"),
            "--labels", os.path.join(in_dir, "labels.csv")]
    argvs = []
    if workload.gradcheck_count:
        argvs.append(["gradcheck", "--count", str(workload.gradcheck_count), "--seed", str(seed)])
    betas = dict(workload.betas)
    for column in workload.exported:
        argv = ["build-graph", *data, "--element", column, "--out-dir", os.path.join(out_dir, "graphs")]
        if column in betas:
            argv += ["--beta", repr(betas[column])]
        argvs.append(argv)
    argvs.append(["cv", *data, "--config", os.path.join(in_dir, "experiment.json"),
                  "--out-dir", os.path.join(out_dir, "study")])
    return argvs
