"""Experiment definitions: graph sources, arm matrices, and reporting.

An experiment names one or more arms (:class:`~pgcn.crossval.Arm`), each
combining graph sources with a ranking mode.  A graph source is a
metadata element name, the literal ``"random"``, or a path to a saved
edge-list file.  Each non-random source is built once per experiment and
shared by every arm that names it.  Random graphs are matched to the
density of the arm's first non-random source so the comparison isolates
structure rather than edge count.  Reports echo the full configuration
for provenance and are byte-stable for a fixed seed.
"""

import json
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .crossval import Arm, cross_validate, derive_seed
from .errors import ConfigError, DataError, ParameterError, read_text
from .graphs import DEFAULT_METRIC, SIMILARITY_METRICS, build_graph, load_edge_list, random_graph
from .training import TrainConfig, TrainHistory

__all__ = [
    "ExperimentConfig",
    "load_experiment_config",
    "load_train_config",
    "load_graph_config",
    "build_arm_graphs",
    "run_experiment",
    "RankSummary",
    "rank_report",
    "render_rank_report",
]

RANDOM_SOURCE = "random"
DEFAULT_RANDOM_DENSITY = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: arms, training knobs, and split policy.

    Each arm's ``graphs`` holds graph-source strings;
    :func:`build_arm_graphs` returns the arms with built graphs.
    ``repeats`` and ``val_fraction`` are checked here, so a config that
    cannot be cross-validated fails before any graph is built.
    """

    arms: tuple
    train: TrainConfig = TrainConfig()
    repeats: int = 10
    val_fraction: float = 0.1
    betas: dict | None = None   # per-column thresholds for continuous columns
    metric: str = DEFAULT_METRIC

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        if not self.arms:
            raise ConfigError("experiment needs at least one arm")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise ConfigError("arm names must be unique")
        for arm in self.arms:
            if not all(isinstance(s, str) for s in arm.graphs):
                raise ConfigError(f"arm {arm.name!r}: graph sources must be strings")
        if self.repeats < 2:
            raise ParameterError(f"need at least 2 repeats, got {self.repeats}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ParameterError(f"validation fraction must lie in (0, 1), got {self.val_fraction}")
        object.__setattr__(self, "betas", dict(self.betas or {}))

    def with_seed(self, seed):
        return replace(self, train=replace(self.train, seed=int(seed)))

    def to_json(self):
        """Canonical JSON echo of the configuration."""
        payload = {
            "arms": [
                {
                    "name": a.name,
                    "graph_sources": list(a.graphs),
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
    if not isinstance(sources, list):
        raise ConfigError(f"arm {name!r}: 'graph_sources' must be a list of strings")
    fixed = _parse_omega(entry.get("omega", "trainable"), f"arm {name!r}")
    return Arm(name=name, graphs=sources, fixed_omega=fixed)


def _number(value, kind, label):
    """``value`` as ``kind``; ``int`` takes whole JSON numbers only, and no kind takes a boolean."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{label} must be {noun}, got {value!r}")
    return kind(value)


def _read_config(path, extra_keys):
    """Read a JSON object and parse its ``train``, ``betas`` and ``metric`` keys.

    Keys other than ``betas``, ``metric`` and ``extra_keys`` are rejected,
    so ``train`` is accepted only where ``extra_keys`` names it.  Returns
    ``(payload, parsed)``; ``parsed`` holds the three values under
    :class:`ExperimentConfig`'s field names.  ``path=None`` reads an
    empty object, so every value takes its default.
    """
    text = "{}" if path is None else read_text(path, "utf-8", ConfigError)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = sorted(set(payload) - extra_keys - {"betas", "metric"})
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    train_entry = payload.get("train", {})
    if not isinstance(train_entry, dict):
        raise ConfigError(f"{path}: 'train' must be an object")
    kinds = {f.name: f.type for f in fields(TrainConfig)}
    unknown = sorted(set(train_entry) - set(kinds))
    if unknown:
        raise ConfigError(f"{path}: unknown train setting {unknown[0]!r}")
    train = TrainConfig(**{k: _number(v, kinds[k], f"{path}: {k!r}") for k, v in train_entry.items()})
    betas = payload.get("betas", {})
    if not isinstance(betas, dict):
        raise ConfigError(f"{path}: 'betas' must be an object")
    metric = payload.get("metric", DEFAULT_METRIC)
    if not isinstance(metric, str) or metric not in SIMILARITY_METRICS:
        names = ", ".join(map(repr, SIMILARITY_METRICS))
        raise ConfigError(f"{path}: 'metric' must be one of {names}, got {metric!r}")
    parsed = {
        "train": train,
        "betas": {k: _number(v, float, f"{path}: beta {k!r}") for k, v in betas.items()},
        "metric": metric,
    }
    return payload, parsed


def load_experiment_config(path):
    """Parse a JSON experiment file into an :class:`ExperimentConfig`."""
    payload, parsed = _read_config(path, {"arms", "repeats", "val_fraction", "train"})
    arms_entry = payload.get("arms")
    if not isinstance(arms_entry, list) or not arms_entry:
        raise ConfigError(f"{path}: 'arms' must be a nonempty list")
    counts = {key: _number(payload[key], kind, f"{path}: {key!r}")
              for key, kind in (("repeats", int), ("val_fraction", float)) if key in payload}
    return ExperimentConfig(arms=tuple(_parse_arm(e, i) for i, e in enumerate(arms_entry)), **counts, **parsed)


def load_train_config(path, sources):
    """Parse the JSON file of ``train`` into a one-arm :class:`ExperimentConfig`.

    The arm, named ``"train"``, holds the graph-source strings
    ``sources`` and the file's ``omega``.  ``path=None`` gives the defaults.
    """
    payload, parsed = _read_config(path, {"omega", "train"})
    arm = Arm("train", sources, _parse_omega(payload.get("omega", "trainable"), path))
    return ExperimentConfig(arms=(arm,), **parsed)


def load_graph_config(path):
    """Parse the JSON file of ``build-graph``, which takes only ``betas`` and ``metric``.

    Returns ``(betas, metric)``; ``path=None`` gives the defaults.
    """
    _, parsed = _read_config(path, set())
    return parsed["betas"], parsed["metric"]


def _resolve_source(dataset, source, config):
    """Build a metadata graph or load an edge-list file."""
    meta_names = {c.name for c in dataset.meta}
    if source in meta_names:
        return build_graph(dataset.column(source), dataset.X, beta=config.betas.get(source), metric=config.metric)
    if os.path.exists(source):
        graph = load_edge_list(source)
        if graph.n != dataset.n_subjects:
            raise DataError(
                f"graph file {source}: {graph.n} vertices for {dataset.n_subjects} subjects"
            )
        return graph
    raise ConfigError(f"unknown metadata element {source!r} (and no such graph file)")


def build_arm_graphs(dataset, config):
    """Return ``config.arms`` with every graph source replaced by its graph.

    A non-random source is built once per experiment, so arms naming it
    share one :class:`~pgcn.graphs.AffinityGraph`.  A ``"random"`` source
    is drawn per arm and position, seeded by ``(seed, 7919, arm, k)``, at
    the density of the arm's first non-random graph.
    """
    built = {}
    for arm in config.arms:
        for source in arm.graphs:
            if source != RANDOM_SOURCE and source not in built:
                built[source] = _resolve_source(dataset, source, config)
    arms = []
    for i, arm in enumerate(config.arms):
        real = [built[s] for s in arm.graphs if s != RANDOM_SOURCE]
        density = real[0].density if real else DEFAULT_RANDOM_DENSITY
        graphs = []
        for k, source in enumerate(arm.graphs):
            if source == RANDOM_SOURCE:
                seed = derive_seed(config.train.seed, 7919, i, k)
                graphs.append(random_graph(dataset.n_subjects, density, seed=seed))
            else:
                graphs.append(built[source])
        arms.append(replace(arm, graphs=graphs))
    return arms


def run_experiment(dataset, config, out_dir=None):
    """Build every arm's graphs, cross-validate, and write the artifacts.

    Returns the :class:`~pgcn.crossval.CvReport`.  With ``out_dir`` set,
    writes ``report.txt`` (metrics, comparisons, and the echoed config)
    plus one ``history_<arm>_rep<r>.csv`` per training run.
    """
    report = cross_validate(
        dataset,
        build_arm_graphs(dataset, config),
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
