"""The traced benchmark run patches pgcn functions by name; every name must exist."""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


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
