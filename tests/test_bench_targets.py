"""Every function the benchmark's tracer wraps still exists.

`perfbench/tracing.py` names package functions and methods by module and
attribute path, and `perfbench/run.py --trace 1` fails on the first one
that no longer resolves. The module imports only the standard library, so
it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = tracer_targets()


@pytest.mark.parametrize("span, module, path", TARGETS, ids=[span for span, _, _ in TARGETS])
def test_tracer_target_resolves(span, module, path):
    owner = importlib.import_module(f"datamarket.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
