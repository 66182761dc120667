"""Every per-layer benchmark metric named after a pdettc callable names a
live one.

The benchmark binds these metrics to callables by name, and a callable
that is renamed or removed makes its metric read 0 without any error.
This test reads BENCHMARK.json and changes nothing.
"""

import fnmatch
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from pdettc.vit import _MODES

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Rows derived from several spans or from the records, not from one callable.
DERIVED = ["ttc.sample_s", "ttc.score_s", "ttc.step_ms.*", "ttc.fallback_steps.count",
           "rewards.undefined.count", "render.s", "trace.overhead_s"]

# What a row measures of its callable: a count, a time, or a time per
# grid size or forward mode.
_MEASURE = re.compile(r"\.(calls|s|self_s|values|bytes|records|candidates|ms\.g\d+|"
                      rf"({'|'.join(_MODES)})\.(samples|s))$")


def _per_layer_names() -> list:
    return [row["name"] for row in json.loads(BENCHMARK.read_text())["per_layer"]]


def _callable_rows() -> list:
    return [n for n in _per_layer_names()
            if not any(fnmatch.fnmatchcase(n, d) for d in DERIVED)]


def test_every_derived_row_is_in_the_benchmark():
    names = _per_layer_names()
    for pattern in DERIVED:
        assert any(fnmatch.fnmatchcase(n, pattern) for n in names), pattern


@pytest.mark.parametrize("name", _callable_rows())
def test_per_layer_metric_names_a_live_callable(name):
    measure = _MEASURE.search(name)
    assert measure, f"{name}: no known measure suffix"
    module, *path = name[:measure.start()].split(".")
    obj = importlib.import_module(f"pdettc.{module}")
    for attr in path:
        assert not attr.startswith("_"), f"{name}: the benchmark wraps public callables only"
        assert hasattr(obj, attr), f"{name}: pdettc.{module} has no {'.'.join(path)}"
        obj = getattr(obj, attr)
    assert path and inspect.isroutine(obj), f"{name}: not a function or method"
