"""Every function that perfbench/tracing.py wraps exists.

The tracer looks each entry of ``TARGETS`` (the polytope functions of
``POLYTOPE_FUNCS`` among them) up by name in its certnn module, and scipy's
HiGHS wrapper in its scipy module, so a name deleted or renamed in certnn
fails here and not only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("target", sorted(tracing.TARGETS))
def test_traced_certnn_function_exists(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"certnn.{module}"), name, None))


def test_traced_highs_core_exists():
    module, name = tracing.HIGHS_CORE
    assert callable(getattr(importlib.import_module(module), name, None))
