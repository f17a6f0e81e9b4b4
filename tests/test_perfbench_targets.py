"""The traced benchmark run patches pgcn functions by name; every name must exist."""

import importlib
import importlib.util
import json
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")
# per-layer metrics that perfbench/run.py measures itself rather than reading from the tracer
RUNNER_METRICS = {"import.pgcn_s", "import.scipy_stats_s", "trace.overhead_s"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", load_tracer().TARGETS)
def test_trace_target_resolves_to_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_from_dense_is_patchable_classmethod():
    from pgcn.linalg import SparseSymMatrix

    assert isinstance(SparseSymMatrix.__dict__["from_dense"], classmethod)


def test_traced_cv_and_gradcheck_report_every_metric():
    from pgcn.cli import gradcheck_instance
    from pgcn.crossval import Arm, cross_validate
    from pgcn.data import synth_generate
    from pgcn.graphs import build_graph
    from pgcn.training import TrainConfig, grad_check

    dataset, informative, nuisance = synth_generate(60, 6, seed=2, informative_strength=2.0, noise=1.0)
    graphs = (build_graph(informative, dataset.X), build_graph(nuisance, dataset.X))
    check_dataset, check_graphs, check_params = gradcheck_instance(0)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        report = cross_validate(dataset, [Arm("both", graphs)], TrainConfig(max_epochs=3, hidden_width=4), repeats=2)
        grad_check(check_dataset, check_graphs, check_params)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]} - RUNNER_METRICS
    assert declared <= set(metrics)
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["linalg.spmm_calls"] > 0
    # every training run passes through the traced train
    assert metrics["training.epochs"] == sum(len(history) for history in report.histories.values())
    assert metrics["training.train_s"] > 0
