"""Dataset container, CSV ingestion, and the planted-structure generator.

A dataset bundles per-subject features, typed metadata columns, one-hot
labels, and the labeled mask.  On disk it is three CSV files:

* ``features.csv`` - one subject per row, d numeric columns, header optional;
* ``meta.csv``     - ``subject_id`` plus one column per metadata element,
  declared in the header as ``name:categorical`` or ``name:continuous``;
* ``labels.csv``   - ``subject_id,label`` rows for labeled subjects only;
  subjects without a row are unlabeled.

Feature rows pair with metadata rows by position; label rows join on
subject id.  The synthetic generator plants a binary classification task
with one label-correlated metadata column and one irrelevant one, giving
known ground truth for graph-ranking experiments.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParameterError, read_text
from .graphs import CATEGORICAL, CONTINUOUS, MetaColumn

__all__ = ["Dataset", "synth_generate", "load_dataset", "write_dataset"]


@dataclass(eq=False)
class Dataset:
    """N subjects: features X, metadata columns, one-hot labels, label mask.

    Every Y row is one-hot, including unlabeled subjects, whose rows are
    class-0 placeholders; the mask is the only source of truth for which
    rows may enter a loss or metric.
    """

    subject_ids: list
    X: np.ndarray
    meta: list
    Y: np.ndarray
    labeled_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool)
        n = len(self.subject_ids)
        if len(set(self.subject_ids)) != n:
            raise DataError("duplicate subject ids")
        if self.X.ndim != 2 or self.X.shape[0] != n:
            raise DataError(f"feature matrix has {self.X.shape[0]} rows for {n} subjects")
        if not np.all(np.isfinite(self.X)):
            raise DataError("features contain non-finite values")
        if self.Y.shape[0] != n or self.labeled_mask.shape != (n,):
            raise DataError("labels and mask must cover every subject")
        if self.Y.ndim != 2 or self.Y.shape[1] < 2:
            raise DataError("need one-hot labels over at least 2 classes")
        one_hot = np.isin(self.Y, (0.0, 1.0)).all() and np.all(self.Y.sum(axis=1) == 1.0)
        if not one_hot:
            raise DataError("every label row must be one-hot")
        for col in self.meta:
            if len(col) != n:
                raise DataError(f"metadata column {col.name!r} has {len(col)} rows for {n} subjects")

    @property
    def n_subjects(self):
        return len(self.subject_ids)

    @property
    def n_features(self):
        return self.X.shape[1]

    @property
    def n_classes(self):
        return self.Y.shape[1]

    def column(self, name):
        for col in self.meta:
            if col.name == name:
                return col
        known = ", ".join(c.name for c in self.meta)
        raise ConfigError(f"unknown metadata element {name!r} (have: {known})")

    def labels(self):
        """Integer class per subject (placeholder 0 where unlabeled)."""
        return np.argmax(self.Y, axis=1)


def synth_generate(n, d, seed, informative_strength=1.0, noise=1.0):
    """Binary dataset with one informative and one nuisance metadata column.

    Classes split n/2 each.  The informative column copies the label with
    probability 0.9; the nuisance column is label-independent uniform.
    Features sit at class means separated by ``informative_strength``
    along a fixed direction, blurred by isotropic Gaussian noise of the
    given scale.  Deterministic for a fixed seed.

    Returns ``(dataset, informative_column, nuisance_column)``.
    """
    if n < 20 or n % 2 != 0:
        raise ParameterError(f"need an even subject count of at least 20, got {n}")
    if d < 1:
        raise ParameterError(f"need at least one feature, got {d}")
    if informative_strength < 0:
        raise ParameterError(f"informative strength must be >= 0, got {informative_strength}")
    if noise < 0:
        raise ParameterError(f"noise scale must be >= 0, got {noise}")

    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)

    flip = rng.random(n) < 0.1
    informative_codes = np.where(labels ^ flip, "B", "A")
    nuisance_codes = np.where(rng.random(n) < 0.5, "V", "U")

    # alternating-sign unit direction: a constant shift across features
    # would vanish under the row-centering of Pearson similarity
    direction = np.where(np.arange(d) % 2 == 0, 1.0, -1.0) / np.sqrt(d)
    means = (labels[:, None] - 0.5) * informative_strength * direction[None, :]
    x = means + noise * rng.standard_normal((n, d))

    informative = MetaColumn("informative", CATEGORICAL, informative_codes)
    nuisance = MetaColumn("nuisance", CATEGORICAL, nuisance_codes)
    dataset = Dataset(
        subject_ids=[f"s{i:04d}" for i in range(n)],
        X=x,
        meta=[informative, nuisance],
        Y=np.eye(2)[labels],
        labeled_mask=np.ones(n, dtype=bool),
    )
    return dataset, informative, nuisance


def _read_rows(path):
    """``(file line, cells)`` for each non-blank line; file lines count from 1."""
    lines = read_text(path, "utf-8", DataError).split("\n")
    return [(lineno, line.split(",")) for lineno, line in enumerate(lines, start=1) if line.strip()]


def _number(cell, path, lineno, column):
    """``float(cell)``; a fault names the file line and the column number or name."""
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: column {column!r}: unparseable number {cell!r}") from None


def _parse_features(path):
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty feature file")
    data, linenos = [], []
    for lineno, cells in rows:
        if data and len(cells) != len(data[0]):
            raise DataError(f"{path}:{lineno}: expected {len(data[0])} columns, got {len(cells)}")
        try:
            data.append([_number(cell, path, lineno, colno) for colno, cell in enumerate(cells, start=1)])
            linenos.append(lineno)
        except DataError:
            if lineno != rows[0][0]:
                raise  # a first row that is not all numbers is the header
    if not data:
        raise DataError(f"{path}: no feature rows")
    x = np.asarray(data, dtype=np.float64)
    # similarity sums squares of (centered) rows, so a row whose sum of squares overflows cannot be weighted
    with np.errstate(over="ignore"):
        square_sums = np.sum(x * x, axis=1)
    overflow = np.flatnonzero(np.isinf(square_sums))
    if overflow.size:
        raise DataError(f"{path}:{linenos[overflow[0]]}: feature values too large: the row's sum of squares "
                        f"exceeds the float64 maximum {np.finfo(np.float64).max:.4g}")
    return x


def _parse_meta(path):
    rows = _read_rows(path)
    if not rows or rows[0][1][0] != "subject_id":
        raise DataError(f"{path}: metadata header must start with 'subject_id'")
    columns = []
    for cell in rows[0][1][1:]:
        name, sep, kind = cell.partition(":")
        if not sep or kind not in (CATEGORICAL, CONTINUOUS) or not name:
            raise DataError(f"{path}: metadata column {cell!r} is not declared as name:kind")
        columns.append((name, kind))
    ids = []
    values = [[] for _ in columns]
    seen = set()
    for lineno, cells in rows[1:]:
        if len(cells) != len(columns) + 1:
            raise DataError(f"{path}:{lineno}: expected {len(columns) + 1} cells")
        subject = cells[0]
        if subject in seen:
            raise DataError(f"{path}:{lineno}: duplicate subject_id {subject!r}")
        seen.add(subject)
        ids.append(subject)
        for k, ((name, kind), cell) in enumerate(zip(columns, cells[1:])):
            values[k].append(_number(cell, path, lineno, name) if kind == CONTINUOUS else cell)
    meta = [
        MetaColumn(name, kind, np.asarray(vals))
        for (name, kind), vals in zip(columns, values)
    ]
    return ids, meta


def _parse_labels(path, n_subjects):
    """Map each labeled subject to its class index, which must lie below ``n_subjects``."""
    rows = _read_rows(path)
    start = 1 if rows and rows[0][1][:2] == ["subject_id", "label"] else 0
    mapping = {}
    for lineno, cells in rows[start:]:
        if len(cells) != 2:
            raise DataError(f"{path}:{lineno}: expected 'subject_id,label'")
        subject, label = cells
        if subject in mapping:
            raise DataError(f"{path}:{lineno}: duplicate label for {subject!r}")
        try:
            cls = int(label)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable class index {label!r}") from None
        if cls < 0:
            raise DataError(f"{path}:{lineno}: class index must be >= 0, got {cls}")
        if cls >= n_subjects:  # checked before the index sizes Y
            raise DataError(f"{path}:{lineno}: class index must be < {n_subjects}, the subject count, got {cls}")
        mapping[subject] = cls
    return mapping


def load_dataset(features_path, meta_path, labels_path):
    """Assemble a Dataset from the three CSV files."""
    x = _parse_features(features_path)
    ids, meta = _parse_meta(meta_path)
    label_map = _parse_labels(labels_path, len(ids))
    if x.shape[0] != len(ids):
        raise DataError(
            f"join mismatch: {x.shape[0]} feature rows vs {len(ids)} metadata subjects"
        )
    unknown = sorted(set(label_map) - set(ids))
    if unknown:
        raise DataError(f"label for unknown subject_id {unknown[0]!r}")
    if not label_map:
        raise DataError(f"{labels_path}: no labeled subjects")
    n_classes = max(label_map.values()) + 1
    if n_classes < 2:
        raise DataError("labels must span at least 2 classes")
    classes = np.array([label_map.get(subject, -1) for subject in ids])
    labeled = classes >= 0
    y = np.zeros((len(ids), n_classes))
    y[np.arange(len(ids)), np.where(labeled, classes, 0)] = 1.0  # class 0 is the unlabeled placeholder
    return Dataset(subject_ids=ids, X=x, meta=meta, Y=y, labeled_mask=labeled)


def write_dataset(dataset, out_dir):
    """Write the three CSV files; values carry 17 significant digits.

    Returns ``(features_path, meta_path, labels_path)``.
    """
    os.makedirs(out_dir, exist_ok=True)
    features_path = os.path.join(out_dir, "features.csv")
    meta_path = os.path.join(out_dir, "meta.csv")
    labels_path = os.path.join(out_dir, "labels.csv")

    with open(features_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"f{j}" for j in range(dataset.n_features)) + "\n")
        for row in dataset.X:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    for col in dataset.meta:
        if col.kind == CATEGORICAL:
            bad = [v for v in col.values if "," in v or "\n" in v]
            if bad:
                raise DataError(f"categorical code {bad[0]!r} in {col.name!r} cannot contain commas")
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        header = ["subject_id"] + [f"{c.name}:{c.kind}" for c in dataset.meta]
        fh.write(",".join(header) + "\n")
        for i, subject in enumerate(dataset.subject_ids):
            cells = [subject]
            for col in dataset.meta:
                v = col.values[i]
                cells.append(f"{v:.17g}" if col.kind == CONTINUOUS else str(v))
            fh.write(",".join(cells) + "\n")

    classes = dataset.labels()
    with open(labels_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("subject_id,label\n")
        for i, subject in enumerate(dataset.subject_ids):
            if dataset.labeled_mask[i]:
                fh.write(f"{subject},{int(classes[i])}\n")

    return features_path, meta_path, labels_path
