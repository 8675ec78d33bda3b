"""Every function that perfbench/tracing.py wraps exists.

The tracer looks each entry of ``TARGETS`` (the polytope functions of
``POLYTOPE_FUNCS`` among them) up by name in its certnn module, and scipy's
HiGHS wrapper in its scipy module, so a name deleted or renamed in certnn
fails here and not only in a traced benchmark run.
"""

import importlib

import pytest

import tracing  # perfbench/, which conftest.py puts on sys.path


@pytest.mark.parametrize("target", sorted(tracing.TARGETS))
def test_traced_certnn_function_exists(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"certnn.{module}"), name, None))


def test_traced_highs_core_exists():
    module, name = tracing.HIGHS_CORE
    assert callable(getattr(importlib.import_module(module), name, None))
