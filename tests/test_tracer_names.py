"""The names perfbench/tracer.py wraps exist in `leonard`.

The benchmark's traced runs (`perfbench/run.py --trace 1`) fail when a
function, FieldElement operator or SquareMatrix method that the tracer wraps
by name is gone. This test reads the tracer's name tables, without
installing it, so that such a deletion fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

from leonard.fields import FieldElement
from leonard.splitmat import SquareMatrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracer")


def test_every_wrapped_function_resolves(tracer):
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"leonard.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_every_counted_method_is_on_its_class(tracer):
    for attrs in tracer.FIELD_OPS.values():
        for attr in attrs:
            assert attr in FieldElement.__dict__, attr
    for attr in tracer.MATRIX_OPS.values():
        assert attr in SquareMatrix.__dict__, attr
