"""The exported names resolve, and so does every function the benchmark tracer wraps."""

import importlib
import sys

import pytest

import dmincut
import dmincut.maxflow

from conftest import REPO_ROOT

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
from perfbench.tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("module", [dmincut, dmincut.maxflow], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_every_traced_target_is_bound():
    unbound = [
        (module_name, attr)
        for module_name, attr, _, _ in TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert unbound == []
