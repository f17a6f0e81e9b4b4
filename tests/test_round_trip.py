"""Whatever pgcn writes, it reads back: a seeded oracle over drawn datasets, histories and graphs.

Each draw goes through a writer (``write_dataset``, ``TrainHistory.to_csv``
or ``save_edge_list``) and then through its reader.  Either the reader
returns the same values, floats compared by their bits, or the writer
raises a :class:`~pgcn.errors.PgcnError` before it creates any file.  The
draws come from ``numpy.random.default_rng`` with fixed seeds, so a
failing draw is reproduced by its seed alone.

Two equalities are weaker than bits, because the formats cannot carry
more.  A history cell that is a nan reads back as a nan: ``repr`` spells
every nan ``nan``, whatever its sign and payload.  A dataset's unlabeled
subjects are drawn with any class; ``Dataset`` stores them as class-0
placeholder rows, which read back as they are, so every label row is
compared.
"""

import struct
from collections import Counter

import numpy as np
import pytest
import scipy.sparse

from pgcn.data import Dataset, load_dataset, write_dataset
from pgcn.errors import PgcnError
from pgcn.graphs import AffinityGraph, MetaColumn, build_graph, load_edge_list, random_graph, save_edge_list
from pgcn.linalg import SparseSymMatrix
from pgcn.training import EpochRecord, TrainHistory

# pieces that split a cell or a line, declare a column's kind or have no UTF-8 form, and pieces that only look odd
BREAKING = [",", ":", "\n", "\r", "\ud800"]
ODD = [" ", "\t", "\x0b", "\x85", "\u2028", "\ufeff", '"', "'", "#", "-", "\u00e9", "\u20ac", "\U0001f600", "0",
       "nan", "subject_id", "label"]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
           0.1 + 0.2, 1 / 3, 1e16 + 2, 123456789.01234567]
SEEDS = range(100)


def draw_text(rng, p_breaking):
    """0-3 pieces, each a breaking one with probability ``p_breaking``, otherwise an odd piece or a letter."""
    pieces = []
    for _ in range(rng.choice(4, p=[0.1, 0.3, 0.3, 0.3])):
        if rng.random() < p_breaking:
            pieces.append(BREAKING[rng.integers(len(BREAKING))])
        elif rng.random() < 0.5:
            pieces.append(ODD[rng.integers(len(ODD))])
        else:
            pieces.append(chr(ord("a") + rng.integers(26)))
    return "".join(pieces)


def draw_floats(rng, size, p_special=0.3):
    """Finite floats, each with probability ``p_special`` a signed zero, a subnormal, an extreme or a 17-digit value."""
    ordinary = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 6, size=size)
    special = rng.choice(SPECIAL, size=size) * rng.choice([1.0, -1.0, 0.5], size=size)
    return np.where(rng.random(size) < p_special, special, ordinary)


def draw_dataset(rng):
    """A ``Dataset`` of 0-11 subjects and 0-3 features, or the ``PgcnError`` its constructor raised."""
    n, d, k = int(rng.integers(0, 12)), int(rng.choice(4, p=[0.05, 0.3, 0.35, 0.3])), int(rng.choice([2, 2, 3]))
    meta = []
    for _ in range(rng.integers(0, 4)):
        if rng.random() < 0.5:
            meta.append(MetaColumn(draw_text(rng, 0.05), "continuous", draw_floats(rng, n)))
        else:
            meta.append(MetaColumn(draw_text(rng, 0.05), "categorical", [draw_text(rng, 0.02) for _ in range(n)]))
    ids = []
    while len(ids) < n:  # distinct, since a Dataset refuses duplicate ids
        text = draw_text(rng, 0.02)
        ids += [] if text in ids else [text]
    labeled = rng.random(n) < 0.7
    try:
        return Dataset(ids, draw_floats(rng, (n, d), 0.05), meta, np.eye(k)[rng.integers(0, k, size=n)], labeled)
    except PgcnError as exc:
        return exc


def draw_history(rng):
    """0-4 epochs of 0-4 ranking weights, now and then a ragged one.

    Cells are floats or numpy float64 scalars; nan, infinities and subnormals are among them.
    """
    n_omega = int(rng.integers(0, 5))
    pool = [float("nan"), -float("nan"), float("inf"), -float("inf")]
    records = []
    for epoch in range(1, rng.integers(0, 5) + 1):
        cells = [pool[rng.integers(4)] if rng.random() < 0.2 else v for v in draw_floats(rng, 3 + n_omega).tolist()]
        cells = [np.float64(v) if rng.random() < 0.2 else v for v in cells]
        omega = cells[3:] if rng.random() < 0.9 else cells[3:] + [0.5]
        records.append(EpochRecord(epoch, cells[0], cells[1], cells[2], tuple(omega)))
    return TrainHistory(records=records)


def draw_graph(rng):
    """A graph from a pgcn builder, or weights drawn on a random pattern, some with a self-loop or a signed weight."""
    n = int(rng.integers(2, 9))
    kind = rng.integers(3)
    if kind == 0:
        return random_graph(n, float(rng.uniform(0.1, 1.0)), seed=int(rng.integers(2 ** 31)))
    if kind == 1:
        codes = MetaColumn("g", "categorical", [str(c) for c in rng.integers(0, 3, size=n)])
        return build_graph(codes, rng.standard_normal((n, 3)))
    pattern = np.triu(rng.random((n, n)) < 0.5, k=0 if rng.random() < 0.15 else 1)
    values = np.abs(draw_floats(rng, (n, n))) * (rng.random((n, n)) < 0.8)  # some stored zeros
    if rng.random() < 0.15:
        values[rng.integers(n), rng.integers(n)] = rng.choice([-0.0, -1.0])
    pattern, values = pattern | pattern.T, np.triu(values) + np.triu(values, 1).T
    csr = scipy.sparse.csr_matrix(pattern)
    rows, cols = csr.nonzero()
    return AffinityGraph(SparseSymMatrix(n, csr.indptr, csr.indices, values[rows, cols]), "drawn")


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def same_cell(a, b):
    return (a != a and b != b) or struct.pack("<d", a) == struct.pack("<d", b)


def written_or_refused(write, out_dir):
    """Run ``write``; True when it wrote, False when it raised a ``PgcnError`` and left ``out_dir`` empty."""
    try:
        write()
    except PgcnError:
        assert not out_dir.exists() or list(out_dir.iterdir()) == []
        return False
    return True


def dataset_outcome(seed, out):
    """``"unbuilt"``, ``"refused"`` or ``"read back"`` for the dataset of ``seed``, asserting the read-back values."""
    dataset = draw_dataset(np.random.default_rng([seed, 1]))
    if isinstance(dataset, PgcnError):
        return "unbuilt"
    if not written_or_refused(lambda: write_dataset(dataset, out), out):
        return "refused"
    loaded = load_dataset(out / "features.csv", out / "meta.csv", out / "labels.csv")
    assert loaded.subject_ids == [str(s) for s in dataset.subject_ids]
    assert bits(loaded.X) == bits(dataset.X)
    assert [(c.name, c.kind) for c in loaded.meta] == [(c.name, c.kind) for c in dataset.meta]
    for got, want in zip(loaded.meta, dataset.meta):
        if want.kind == "continuous":
            assert bits(got.values) == bits(want.values)
        else:
            assert got.values.tolist() == want.values.tolist()
    assert loaded.labeled_mask.tolist() == dataset.labeled_mask.tolist()
    assert loaded.Y.shape == dataset.Y.shape
    assert bits(loaded.Y) == bits(dataset.Y)
    return "read back"


def history_outcome(seed, out):
    """``"refused"`` or ``"read back"`` for the history of ``seed``, asserting the read-back values."""
    history = draw_history(np.random.default_rng([seed, 2]))
    out.mkdir()
    if not written_or_refused(lambda: history.to_csv(out / "history.csv"), out):
        return "refused"
    loaded = TrainHistory.from_csv(out / "history.csv")
    assert len(loaded.records) == len(history.records)
    for got, want in zip(loaded.records, history.records):
        assert got.epoch == want.epoch and len(got.omega) == len(want.omega)
        cells = zip((got.train_loss, got.val_loss, got.val_acc, *got.omega),
                    (want.train_loss, want.val_loss, want.val_acc, *want.omega))
        assert all(same_cell(a, b) for a, b in cells)
    return "read back"


def graph_outcome(seed, out):
    """``"refused"`` or ``"read back"`` for the graph of ``seed``, asserting the read-back weights."""
    graph = draw_graph(np.random.default_rng([seed, 3]))
    out.mkdir()
    if not written_or_refused(lambda: save_edge_list(graph, out / "g.txt"), out):
        return "refused"
    loaded, w = load_edge_list(out / "g.txt").weights, graph.weights
    assert loaded.dim == w.dim
    assert loaded.indptr.tolist() == w.indptr.tolist() and loaded.indices.tolist() == w.indices.tolist()
    assert bits(loaded.data) == bits(w.data)
    return "read back"


OUTCOMES = {"dataset": dataset_outcome, "history": history_outcome, "graph": graph_outcome}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("what", OUTCOMES)
def test_written_file_reads_back_or_the_writer_refuses(tmp_path, what, seed):
    OUTCOMES[what](seed, tmp_path / "out")


@pytest.mark.parametrize("what", OUTCOMES)
def test_draws_reach_both_outcomes(tmp_path, what):
    # the oracle shows something only if some draws are written and read back and others are refused
    counts = Counter(OUTCOMES[what](seed, tmp_path / str(seed)) for seed in SEEDS)
    assert counts["read back"] >= 10 and counts["refused"] >= 5, counts
