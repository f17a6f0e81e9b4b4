"""Command-line entry points for the batch workflows.

Subcommands mirror the library surface: ``synth`` writes a generated
dataset, ``build-graph`` exports one affinity graph as an edge list,
``train`` fits a single model, ``cv`` runs a multi-arm cross-validated
experiment from a JSON config, ``gradcheck`` verifies the hand-derived
gradients against finite differences, and ``rank-report`` summarizes
ranking-weight trajectories from history files.  Every error is reported
as one ``error:<code>: <message>`` line on stderr with a nonzero exit.
"""

import argparse
import os
import sys

import numpy as np

from .crossval import Arm
from .data import Dataset, load_dataset, synth_generate, write_dataset
from .errors import ConfigError, PgcnError
from .experiments import (
    ExperimentConfig,
    build_arm_graphs,
    load_experiment_config,
    load_graph_config,
    load_train_config,
    rank_report,
    render_rank_report,
    run_experiment,
)
from .graphs import build_graph as build_metadata_graph
from .graphs import random_graph, save_edge_list
from .model import backward
from .model import forward as forward_eval
from .model import init_params, save_checkpoint
from .training import grad_check, train

GRADCHECK_THRESHOLD = 1e-5
# Every gradcheck instance: subjects, features, hidden units, classes,
# branches, labeled subjects, and the L2 weight of the redraw test.
GRADCHECK_N, GRADCHECK_D, GRADCHECK_H, GRADCHECK_K, GRADCHECK_M = 12, 5, 4, 2, 2
GRADCHECK_LABELED = 8
GRADCHECK_L2 = 5e-4


def _add_common(parser, out_dir=True):
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    if out_dir:
        parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--config", default=None, help="JSON configuration file")


def _add_dataset_args(parser):
    parser.add_argument("--features", required=True, help="features CSV (one subject per row)")
    parser.add_argument("--meta", required=True, help="metadata CSV (subject_id + name:kind columns)")
    parser.add_argument("--labels", required=True, help="labels CSV (subject_id,label)")


def cmd_synth(args):
    dataset, _, _ = synth_generate(
        args.n, args.d, seed=args.seed if args.seed is not None else 0,
        informative_strength=args.informative_strength, noise=args.noise,
    )
    paths = write_dataset(dataset, args.out_dir)
    for path in paths:
        print(path)
    return 0


def cmd_build_graph(args):
    dataset = load_dataset(args.features, args.meta, args.labels)
    betas, metric = load_graph_config(args.config)
    if args.element == "random":
        seed = args.seed if args.seed is not None else 0
        graph = random_graph(dataset.n_subjects, args.density, seed=seed)
    else:
        col = dataset.column(args.element)
        beta = args.beta if args.beta is not None else betas.get(args.element)
        graph = build_metadata_graph(col, dataset.X, beta=beta, metric=metric)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"graph_{args.element}.txt")
    save_edge_list(graph, out_path)
    print(out_path)
    return 0


def cmd_train(args):
    dataset = load_dataset(args.features, args.meta, args.labels)
    config, betas, metric, fixed_omega = load_train_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    sources = tuple(s.strip() for s in args.graphs.split(",") if s.strip())
    arm = Arm("train", sources, fixed_omega)
    exp = ExperimentConfig(arms=(arm,), train=config, betas=betas, metric=metric)
    (arm,) = build_arm_graphs(dataset, exp)
    params, history = train(dataset, arm.graphs, config, fixed_omega=arm.fixed_omega)
    os.makedirs(args.out_dir, exist_ok=True)
    checkpoint_path = os.path.join(args.out_dir, "checkpoint.npz")
    history_path = os.path.join(args.out_dir, "history.csv")
    save_checkpoint(params, config.seed, checkpoint_path)
    history.to_csv(history_path)
    last = history.records[-1]
    best = history.records[history.best_epoch - 1]
    print(checkpoint_path)
    print(history_path)
    print(
        f"epochs {len(history)} best_epoch {history.best_epoch} "
        f"best_val_loss {best.val_loss!r} best_val_acc {best.val_acc!r} "
        f"final_omega {' '.join(repr(w) for w in last.omega)}"
    )
    return 0


def cmd_cv(args):
    dataset = load_dataset(args.features, args.meta, args.labels)
    if args.config is None:
        raise ConfigError("cv requires --config pointing to an experiment JSON file")
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    report = run_experiment(dataset, config, out_dir=args.out_dir)
    print(os.path.join(args.out_dir, "report.txt"))
    for result in report.arms:
        print(
            f"arm {result.name}: mean_acc {result.mean_acc!r} std_acc {result.std_acc!r} "
            f"mean_auc {result.mean_auc!r}"
        )
    for comp in report.comparisons:
        print(f"compare {comp.arm_a} vs {comp.arm_b}: t {comp.t!r} p {comp.p!r}")
    return 0


def gradcheck_instance(seed):
    """Seeded random instance for gradient verification.

    Central differences of the full loss resolve a gradient entry only
    down to roughly machine-epsilon times the loss over the step size
    (~1e-10 here), so initializations leaving any analytic gradient
    entry below 2e-5 in magnitude (dead ReLU units, near cancellations)
    are deterministically redrawn; the relative-error metric would
    otherwise be dominated by rounding noise rather than gradient
    correctness.
    """
    n, d, h, k, m = GRADCHECK_N, GRADCHECK_D, GRADCHECK_H, GRADCHECK_K, GRADCHECK_M
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    graphs = [random_graph(n, 0.4, seed=[seed, 13 + i]) for i in range(m)]
    labels = rng.integers(0, k, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=GRADCHECK_LABELED, replace=False)] = True
    dataset = Dataset(
        subject_ids=[f"g{i}" for i in range(n)],
        X=x,
        meta=[],
        Y=np.eye(k)[labels],
        labeled_mask=mask,
    )
    ops = [g.normalized for g in graphs]
    param_rng = np.random.default_rng([seed, 57])
    while True:
        params = init_params(d, h, k, m, seed=param_rng)
        cache = forward_eval(x, ops, params)
        grads = backward(cache, dataset.Y, mask, GRADCHECK_L2)
        if np.min(np.abs(grads.vector)) >= 2e-5:
            return dataset, graphs, params


def cmd_gradcheck(args):
    start = args.seed if args.seed is not None else 0
    worst = 0.0
    for seed in range(start, start + args.count):
        dataset, graphs, params = gradcheck_instance(seed)
        err = grad_check(dataset, graphs, params, eps=args.eps, l2_lambda=args.l2)
        worst = max(worst, err)
        print(f"seed {seed} max_rel_error {err:.3e}")
    print(f"overall max_rel_error {worst:.3e} threshold {GRADCHECK_THRESHOLD:.0e}")
    return 0 if worst < GRADCHECK_THRESHOLD else 1


def cmd_rank_report(args):
    summaries = rank_report(args.histories)
    text = render_rank_report(summaries)
    sys.stdout.write(text)
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        out_path = os.path.join(args.out_dir, "rank_report.txt")
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pgcn",
        description="Parallel graph convolutional networks with a learned graph-ranking layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-structure dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--informative-strength", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="export one affinity graph as an edge list")
    _add_dataset_args(p)
    p.add_argument("--element", required=True, help="metadata element name, or 'random'")
    p.add_argument("--beta", type=float, default=None, help="threshold for continuous columns")
    p.add_argument("--density", type=float, default=0.1, help="edge density for 'random'")
    _add_common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train one model and write checkpoint + history")
    _add_dataset_args(p)
    p.add_argument("--graphs", required=True, help="comma-separated graph sources")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="run a cross-validated experiment from a JSON config")
    _add_dataset_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--count", type=int, default=10, help="number of seeded instances")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--l2", type=float, default=5e-4)
    _add_common(p, out_dir=False)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("rank-report", help="summarize ranking weights from history files")
    p.add_argument("histories", nargs="+", help="history CSV files")
    p.add_argument("--out-dir", default=None, help="also write rank_report.txt here")
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_rank_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PgcnError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
