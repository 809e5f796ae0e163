import importlib
import pkgutil
from pathlib import Path

import pytest

import dmincut
from dmincut import maxflow, parse_edge_distribution, parse_network

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fig1_text():
    return (FIXTURES / "fig1.net").read_text()


@pytest.fixture(scope="session")
def fig1(fig1_text):
    return parse_network(fig1_text)


@pytest.fixture(scope="session")
def fig1_prob():
    text = (FIXTURES / "fig1_prob.net").read_text()
    net = parse_network(text)
    return net, parse_edge_distribution(text, net)


@pytest.fixture
def max_flow_calls(monkeypatch):
    """The states of every ``max_flow`` call made through any module of the package."""
    real = maxflow.max_flow
    calls = []

    def counting(net, state):
        calls.append(state)
        return real(net, state)

    names = ["dmincut"] + [f"dmincut.{info.name}" for info in pkgutil.iter_modules(dmincut.__path__)]
    for module in map(importlib.import_module, names):
        if getattr(module, "max_flow", None) is real:
            monkeypatch.setattr(module, "max_flow", counting)
    return calls
