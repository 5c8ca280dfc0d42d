"""The benchmark's traced names must exist in the package.

`benchmarks/tracer.py` looks each traced function up by name when a traced
pass starts; a renamed or deleted function would otherwise fail only there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only
    return [(layer, name) for layer, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", _traced())
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"evonas.{layer}")
    cls_name, _, attr = name.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        assert isinstance(owner, type), f"evonas.{layer}.{cls_name} is not a class"
    assert callable(getattr(owner, attr, None)), f"evonas.{layer}.{name} does not resolve"
