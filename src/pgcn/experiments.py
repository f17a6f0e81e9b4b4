"""Experiment definitions: graph sources, arm matrices, and reporting.

An experiment names one or more arms, each combining graph sources with a
ranking mode.  A graph source is a metadata element name, the literal
``"random"``, or a path to a saved edge-list file.  Random graphs are
matched to the density of the arm's first non-random source so the
comparison isolates structure rather than edge count.  Reports echo the
full configuration for provenance and are byte-stable for a fixed seed.
"""

import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .crossval import Arm, cross_validate
from .errors import ConfigError, DataError, ParameterError
from .graphs import CONTINUOUS, build_graph, load_edge_list, random_graph
from .training import TrainConfig, TrainHistory

__all__ = [
    "ExperimentSpec",
    "ExperimentConfig",
    "load_experiment_config",
    "load_train_config",
    "build_arm_graphs",
    "run_experiment",
    "RankSummary",
    "rank_report",
    "render_rank_report",
]

RANDOM_SOURCE = "random"
DEFAULT_RANDOM_DENSITY = 0.1


@dataclass(frozen=True)
class ExperimentSpec:
    """One arm: name, ordered graph sources, and the ranking mode."""

    name: str
    graph_sources: tuple
    fixed_omega: tuple | None = None  # None means trainable

    def __post_init__(self):
        sources = tuple(str(s) for s in self.graph_sources)
        if not sources:
            raise ConfigError(f"arm {self.name!r} needs at least one graph source")
        object.__setattr__(self, "graph_sources", sources)
        if self.fixed_omega is not None:
            fixed = tuple(float(w) for w in self.fixed_omega)
            if len(fixed) != len(sources):
                raise ConfigError(
                    f"arm {self.name!r}: fixed omega has {len(fixed)} entries "
                    f"for {len(sources)} graph sources"
                )
            object.__setattr__(self, "fixed_omega", fixed)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: arms, training knobs, and split policy."""

    arms: tuple
    train: TrainConfig = TrainConfig()
    repeats: int = 10
    val_fraction: float = 0.1
    betas: dict | None = None   # per-column thresholds for continuous columns
    metric: str = "pearson"

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        if not self.arms:
            raise ConfigError("experiment needs at least one arm")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise ConfigError("arm names must be unique")
        object.__setattr__(self, "betas", dict(self.betas or {}))

    def with_seed(self, seed):
        return replace(self, train=self.train.with_seed(seed))

    def to_json(self):
        """Canonical JSON echo of the configuration."""
        payload = {
            "arms": [
                {
                    "name": a.name,
                    "graph_sources": list(a.graph_sources),
                    "omega": "trainable" if a.fixed_omega is None else list(a.fixed_omega),
                }
                for a in self.arms
            ],
            "train": asdict(self.train),
            "repeats": self.repeats,
            "val_fraction": self.val_fraction,
            "betas": self.betas,
            "metric": self.metric,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _parse_omega(omega, label):
    """``"trainable"`` gives None; a list of numbers gives the fixed weights."""
    if omega == "trainable":
        return None
    if isinstance(omega, list) and all(isinstance(w, (int, float)) for w in omega):
        return tuple(float(w) for w in omega)
    raise ConfigError(f"{label}: 'omega' must be \"trainable\" or a list of numbers")


def _parse_arm(entry, index):
    if not isinstance(entry, dict):
        raise ConfigError(f"arm #{index} must be an object")
    name = entry.get("name")
    if not name or not isinstance(name, str):
        raise ConfigError(f"arm #{index} needs a string 'name'")
    sources = entry.get("graph_sources")
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise ConfigError(f"arm {name!r}: 'graph_sources' must be a list of strings")
    fixed = _parse_omega(entry.get("omega", "trainable"), f"arm {name!r}")
    return ExperimentSpec(name=name, graph_sources=tuple(sources), fixed_omega=fixed)


def _number(value, kind, label):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label} must be a number, got {value!r}") from exc


def _read_config(path, extra_keys):
    """Read a JSON object and parse its ``train``, ``betas`` and ``metric`` keys.

    Keys other than those three and ``extra_keys`` are rejected.  Returns
    ``(payload, fields)``; ``fields`` holds the three parsed values under
    :class:`ExperimentConfig`'s field names.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = sorted(set(payload) - extra_keys - {"train", "betas", "metric"})
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    train_entry = payload.get("train", {})
    if not isinstance(train_entry, dict):
        raise ConfigError(f"{path}: 'train' must be an object")
    try:
        train = TrainConfig(**train_entry)
    except TypeError as exc:
        raise ConfigError(f"{path}: bad train settings: {exc}") from exc
    betas = payload.get("betas", {})
    if not isinstance(betas, dict):
        raise ConfigError(f"{path}: 'betas' must be an object")
    fields = {
        "train": train,
        "betas": {k: _number(v, float, f"{path}: beta {k!r}") for k, v in betas.items()},
        "metric": str(payload.get("metric", "pearson")),
    }
    return payload, fields


def load_experiment_config(path):
    """Parse a JSON experiment file into an :class:`ExperimentConfig`."""
    payload, fields = _read_config(path, {"arms", "repeats", "val_fraction"})
    arms_entry = payload.get("arms")
    if not isinstance(arms_entry, list) or not arms_entry:
        raise ConfigError(f"{path}: 'arms' must be a nonempty list")
    return ExperimentConfig(
        arms=tuple(_parse_arm(e, i) for i, e in enumerate(arms_entry)),
        repeats=_number(payload.get("repeats", 10), int, f"{path}: 'repeats'"),
        val_fraction=_number(payload.get("val_fraction", 0.1), float, f"{path}: 'val_fraction'"),
        **fields,
    )


def load_train_config(path):
    """Parse the JSON file of ``train`` and ``build-graph``.

    Returns ``(train, betas, metric, fixed_omega)``; ``path=None`` gives the
    defaults, and ``fixed_omega`` is None for a trainable ranking layer.
    """
    if path is None:
        return TrainConfig(), {}, "pearson", None
    payload, fields = _read_config(path, {"omega"})
    fixed_omega = _parse_omega(payload.get("omega", "trainable"), path)
    return fields["train"], fields["betas"], fields["metric"], fixed_omega


def _resolve_source(dataset, source, config, seed_parts, reference_density):
    if source == RANDOM_SOURCE:
        density = reference_density if reference_density is not None else DEFAULT_RANDOM_DENSITY
        seed = np.random.SeedSequence(seed_parts).generate_state(1)[0]
        return random_graph(dataset.n_subjects, density, seed=int(seed))
    meta_names = {c.name for c in dataset.meta}
    if source in meta_names:
        col = dataset.column(source)
        beta = config.betas.get(source) if col.kind == CONTINUOUS else None
        return build_graph(col, dataset.X, beta=beta, metric=config.metric)
    if os.path.exists(source):
        graph = load_edge_list(source)
        if graph.n != dataset.n_subjects:
            raise DataError(
                f"graph file {source}: {graph.n} vertices for {dataset.n_subjects} subjects"
            )
        return graph
    raise ConfigError(f"unknown metadata element {source!r} (and no such graph file)")


def build_arm_graphs(dataset, spec, config, arm_index=0):
    """Materialize one arm's graph sources in order.

    Non-random sources are built first so a ``"random"`` source can copy
    the density of the arm's first real graph.
    """
    built = {}
    reference_density = None
    for k, source in enumerate(spec.graph_sources):
        if source == RANDOM_SOURCE:
            continue
        graph = _resolve_source(dataset, source, config, None, None)
        built[k] = graph
        if reference_density is None:
            reference_density = graph.density
    for k, source in enumerate(spec.graph_sources):
        if source != RANDOM_SOURCE:
            continue
        seed_parts = (config.train.seed & 0xFFFFFFFF, 7919, arm_index, k)
        built[k] = _resolve_source(dataset, source, config, seed_parts, reference_density)
    return [built[k] for k in range(len(spec.graph_sources))]


def run_experiment(dataset, config, out_dir=None):
    """Build every arm's graphs, cross-validate, and write the artifacts.

    Returns the :class:`~pgcn.crossval.CvReport`.  With ``out_dir`` set,
    writes ``report.txt`` (metrics, comparisons, and the echoed config)
    plus one ``history_<arm>_rep<r>.csv`` per training run.
    """
    arms = []
    for i, spec in enumerate(config.arms):
        graphs = build_arm_graphs(dataset, spec, config, arm_index=i)
        arms.append(Arm(name=spec.name, graphs=tuple(graphs), fixed_omega=spec.fixed_omega))
    report = cross_validate(
        dataset,
        arms,
        config.train,
        repeats=config.repeats,
        val_fraction=config.val_fraction,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        text = report.render() + "\nconfig\n" + config.to_json() + "\n"
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for (arm_name, repeat), history in sorted(report.histories.items()):
            history.to_csv(os.path.join(out_dir, f"history_{arm_name}_rep{repeat}.csv"))
    return report


@dataclass(frozen=True)
class RankSummary:
    """Ranking behavior extracted from one training history."""

    label: str
    final_omega: tuple
    omega_min: tuple
    omega_max: tuple
    order: tuple          # branch indices, largest |omega| first
    fixed: bool           # trajectory never moved


def rank_report(history_paths):
    """Summarize ranking-weight trajectories from history CSV files."""
    paths = list(history_paths)
    if not paths:
        raise ParameterError("rank_report needs at least one history file")
    summaries = []
    for path in paths:
        history = TrainHistory.from_csv(path)
        omegas = history.omegas()
        final = omegas[-1]
        order = np.argsort(-np.abs(final), kind="stable")
        summaries.append(
            RankSummary(
                label=os.path.splitext(os.path.basename(path))[0],
                final_omega=tuple(final.tolist()),
                omega_min=tuple(omegas.min(axis=0).tolist()),
                omega_max=tuple(omegas.max(axis=0).tolist()),
                order=tuple(int(i) for i in order),
                fixed=bool(np.all(omegas == omegas[0])),
            )
        )
    return summaries


def render_rank_report(summaries):
    lines = ["rank-report"]
    for s in summaries:
        lines.append("")
        lines.append(f"history {s.label}")
        lines.append("  omega_final = " + " ".join(repr(v) for v in s.final_omega))
        lines.append("  omega_min = " + " ".join(repr(v) for v in s.omega_min))
        lines.append("  omega_max = " + " ".join(repr(v) for v in s.omega_max))
        lines.append("  ranking = " + " > ".join(f"omega_{i + 1}" for i in s.order))
        lines.append(f"  mode = {'fixed' if s.fixed else 'trainable'}")
    return "\n".join(lines) + "\n"
