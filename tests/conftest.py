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


def patch_everywhere(monkeypatch, name: str, replacement) -> None:
    """Bind ``replacement`` in place of ``maxflow.<name>`` in every module of the package that binds it."""
    real = getattr(maxflow, name)
    names = ["dmincut"] + [f"dmincut.{info.name}" for info in pkgutil.iter_modules(dmincut.__path__)]
    for module in map(importlib.import_module, names):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def max_flow_calls(monkeypatch):
    """The states of every ``max_flow`` call made through any module of the package."""
    real = maxflow.max_flow
    calls = []

    def counting(net, state):
        calls.append(state)
        return real(net, state)

    patch_everywhere(monkeypatch, "max_flow", counting)
    return calls


@pytest.fixture
def verify_calls(monkeypatch):
    """The states the solver passes to ``verify``, one per leaf of its candidate search."""
    solver = importlib.import_module("dmincut.solver")
    real = solver.verify
    calls = []

    def recording(net, state, demand, flow=None):
        calls.append(state)
        return real(net, state, demand, flow)

    monkeypatch.setattr(solver, "verify", recording)
    return calls


@pytest.fixture
def residual_tree_calls(monkeypatch):
    """The ``(start, backward)`` of every ``residual_tree`` call made through any module of the package."""
    real = maxflow.residual_tree
    calls = []

    def counting(net, residual, start, backward=0):
        calls.append((start, backward))
        return real(net, residual, start, backward)

    patch_everywhere(monkeypatch, "residual_tree", counting)
    return calls
