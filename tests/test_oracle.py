import ast
import random
from math import sqrt
from pathlib import Path

import pytest

from dmincut import (
    EdgeDistribution,
    StateSpaceLimitError,
    brute_force_dmcs,
    dmc_levels,
    flow_table,
    max_flow_value,
    oracle,
    reliability_exhaustive,
    state_space_size,
)
from dmincut.network import parse_network

from helpers import box, random_network, uniform_distribution


def test_fig1_demand7_excludes_benchmark_candidate(fig1):
    dmcs = brute_force_dmcs(fig1, 7)
    assert (0, 2, 3, 1, 3, 3) not in dmcs
    assert len(dmcs) == 5


def test_single_arc_network():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    assert brute_force_dmcs(net, 2) == ((2,),)


def test_levels_partition_matches_single_queries(fig1):
    levels = dmc_levels(fig1)
    assert sorted(levels) == list(range(0, 9))
    assert [len(levels[d]) for d in range(0, 9)] == [4, 13, 24, 32, 32, 24, 13, 5, 1]
    for demand in range(0, 10):
        assert brute_force_dmcs(fig1, demand) == levels.get(demand, ())


def test_all_outputs_satisfy_the_definition(fig1):
    for demand, vectors in dmc_levels(fig1).items():
        for state in vectors:
            assert max_flow_value(fig1, state) == demand


def test_outputs_sorted_lexicographically(fig1):
    for vectors in dmc_levels(fig1).values():
        assert list(vectors) == sorted(vectors)


def test_state_space_guard_refuses():
    net = parse_network(
        "nodes 2 source 1 sink 2\n"
        + "".join(f"edge {i} 1 2 9\n" for i in range(1, 11))
    )
    assert state_space_size(net) == 10**10
    with pytest.raises(StateSpaceLimitError, match="guard"):
        brute_force_dmcs(net, 3)
    with pytest.raises(StateSpaceLimitError):
        flow_table(net)


def test_down_set_union_identity():
    rng = random.Random(601)
    nets = [random_network(rng, max_arcs=6) for _ in range(8)]
    for net in nets:
        table = flow_table(net)
        levels = dmc_levels(net, table)
        top = max(levels)
        for demand in range(0, top + 1):
            dmcs = levels.get(demand, ())
            assert dmcs  # every level up to the saturated max flow is populated
            for state in box(net):
                in_level_set = table[state] <= demand
                below_some_dmc = any(
                    all(x <= y for x, y in zip(state, top_vec)) for top_vec in dmcs
                )
                assert in_level_set is below_some_dmc


def test_reliability_exhaustive_trivial_cases(fig1):
    dist = uniform_distribution(fig1)
    assert reliability_exhaustive(fig1, dist, 0) == 1.0
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 1\n")
    single = EdgeDistribution(((0.3, 0.7),))
    assert abs(reliability_exhaustive(net, single, 1) - 0.7) < 1e-15


def test_reliability_exhaustive_against_monte_carlo(fig1):
    dist = uniform_distribution(fig1)
    exact = reliability_exhaustive(fig1, dist, 4)
    rng = random.Random(602)
    samples = 60_000
    hits = 0
    caps = fig1.max_capacities
    for _ in range(samples):
        state = tuple(rng.randint(0, w) for w in caps)  # uniform pmfs
        if max_flow_value(fig1, state) >= 4:
            hits += 1
    estimate = hits / samples
    sigma = sqrt(max(estimate * (1 - estimate), 1e-12) / samples)
    assert abs(estimate - exact) <= 3 * sigma


def test_oracle_depends_only_on_the_data_model_and_the_errors():
    # The reference shares no code with what it checks: the production union lives in dmincut.reliability.
    modules = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules.update([base] if node.module else (base + alias.name for alias in node.names))
    assert {name for name in modules if name.startswith(".") or name.split(".")[0] == "dmincut"} == {
        ".errors",
        ".network",
    }
    assert not hasattr(oracle, "reliability_from_dmcs")
