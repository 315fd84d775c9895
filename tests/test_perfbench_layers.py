"""Every layer the perfbench tracer wraps names a function that exists.

``perfbench/tracing.py`` wraps the functions its ``LAYERS`` list names; a
renamed or deleted one makes the benchmark exit 1. This test reads that
list from the file, without importing it as a module or writing anything
next to it, and resolves each name the way the tracer does.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_namespace() -> dict:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return namespace


_TRACING = _tracing_namespace()


@pytest.mark.parametrize("module,attr", _TRACING["LAYERS"])
def test_layer_resolves(module, attr):
    owner = importlib.import_module(f"{_TRACING['PACKAGE']}.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer replaces vars(owner)[leaf], so the name must be defined
    # on the owner itself, not inherited
    assert callable(vars(owner).get(leaf))
