"""Operator-product, normalization and symmetry-check counting, and run-thread forcing, shared by the test modules."""

import sys
import threading

import numpy as np
import scipy.sparse

import pgcn.crossval
import pgcn.graphs
import pgcn.linalg


def count_spmm_calls(monkeypatch):
    """Patch ``spmm`` under every name a ``pgcn`` module binds it to.

    Returns a list that receives the column width of every product, in
    call order, so its length is the call count.
    """
    original = pgcn.linalg.spmm
    widths = []

    def counted(s, b):
        out = original(s, b)
        widths.append(out.shape[1])
        return out

    bindings = [(module, attr) for name, module in list(sys.modules.items()) if name.split(".")[0] == "pgcn"
                for attr, value in vars(module).items() if value is original]
    owners = {module.__name__ for module, _ in bindings}
    # linalg owns every operator product; the model calls linalg.spmm under its own binding
    assert {"pgcn.linalg", "pgcn.model"} <= owners
    for module, attr in bindings:
        monkeypatch.setattr(module, attr, counted)
    return widths


def count_normalize(monkeypatch):
    """Patch ``pgcn.graphs.normalize`` and return the list that receives the weights of every call."""
    original = pgcn.graphs.normalize
    calls = []

    def counted(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(pgcn.graphs, "normalize", counted)
    return calls


def count_symmetry_checks(monkeypatch):
    """Patch ``pgcn.linalg._validate_symmetry`` and return the list that receives the shape of every checked matrix."""
    original = pgcn.linalg._validate_symmetry
    shapes = []

    def counted(csr):
        shapes.append(csr.shape)
        return original(csr)

    monkeypatch.setattr(pgcn.linalg, "_validate_symmetry", counted)
    return shapes


def planned_graphs(graphs, plan, monkeypatch):
    """Copies of ``graphs`` whose operators take the product plan ``plan``, ``"blocks"`` or ``"csr"``.

    The copies derive their operators afresh, so no plan made before is
    reused; ``"csr"`` raises ``DENSE_BLOCK_FILL`` out of reach for the rest
    of the test.
    """
    if plan == "csr":
        monkeypatch.setattr(pgcn.linalg, "DENSE_BLOCK_FILL", np.inf)
    copies = [pgcn.graphs.AffinityGraph(g.weights, g.source) for g in graphs]
    assert {plan_kind(g.normalized) != "csr" for g in copies} == {plan == "blocks"}
    return copies


def plan_kind(s):
    """The product plan ``spmm`` takes for operator ``s``: ``"csr"``, ``"whole"`` (one dense block) or ``"blocks"``."""
    plan = s._product_plan()
    if scipy.sparse.issparse(plan):
        return "csr"
    return "whole" if isinstance(plan, np.ndarray) else "blocks"


def force_run_threads(monkeypatch, k):
    """Make ``cross_validate`` train its runs on ``k`` threads, whatever the cores and BLAS threads.

    For ``k > 1`` the first ``k`` runs wait for each other before they
    train, so they train on ``k`` different threads even on one core.
    Returns the list that receives the thread of every run, in call order.
    """
    monkeypatch.setattr(pgcn.crossval, "_run_threads", lambda: k)
    original = pgcn.crossval.train
    barrier, lock = threading.Barrier(k, timeout=60), threading.Lock()
    threads = []

    def spread(*args):
        with lock:
            threads.append(threading.get_ident())
            first = len(threads) <= k
        if first and k > 1:
            barrier.wait()
        return original(*args)

    monkeypatch.setattr(pgcn.crossval, "train", spread)
    return threads
