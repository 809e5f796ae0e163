import random
from math import sqrt

import pytest

from dmincut import (
    EdgeDistribution,
    StateSpaceLimitError,
    ValidationError,
    brute_force_dmcs,
    dmc_levels,
    flow_table,
    max_flow_value,
    reliability_exhaustive,
    reliability_from_dmcs,
    state_space_size,
)
from dmincut.network import parse_network

from helpers import box, random_distribution, random_network


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
    dist = EdgeDistribution.uniform(fig1)
    assert reliability_exhaustive(fig1, dist, 0) == 1.0
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 1\n")
    single = EdgeDistribution(((0.3, 0.7),))
    assert abs(reliability_exhaustive(net, single, 1) - 0.7) < 1e-15


def test_reliability_exhaustive_against_monte_carlo(fig1):
    dist = EdgeDistribution.uniform(fig1)
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


def test_reliability_from_dmcs_single_vector():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    dist = EdgeDistribution.uniform(net)
    # Pr[X <= 2] with four uniform states is 3/4.
    assert abs(reliability_from_dmcs(net, [(2,)], dist) - 0.75) < 1e-15


def test_reliability_from_dmcs_dedups_input():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    dist = EdgeDistribution.uniform(net)
    once = reliability_from_dmcs(net, [(2,)], dist)
    twice = reliability_from_dmcs(net, [(2,), (2,)], dist)
    assert once == twice


def test_reliability_from_dmcs_empty_flagged(fig1):
    with pytest.raises(ValidationError, match="empty"):
        reliability_from_dmcs(fig1, [], EdgeDistribution.uniform(fig1))


def test_reliability_from_dmcs_guard():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 30\n")
    dist = EdgeDistribution.uniform(net)
    vectors = [(v,) for v in range(21)]
    with pytest.raises(StateSpaceLimitError):
        reliability_from_dmcs(net, vectors, dist)


def test_union_complement_identity_fig1(fig1):
    dist = EdgeDistribution.uniform(fig1)
    levels = dmc_levels(fig1)
    for demand in [0, 1, 6, 7, 8]:  # levels small enough for 2^k terms
        union = reliability_from_dmcs(fig1, levels[demand], dist)
        complement = reliability_exhaustive(fig1, dist, demand + 1)
        assert abs(1.0 - union - complement) <= 1e-12


def test_union_complement_identity_random():
    rng = random.Random(603)
    comparisons = 0
    while comparisons < 40:
        net = random_network(rng, max_arcs=6)
        dist = random_distribution(rng, net)
        levels = dmc_levels(net)
        for demand, dmcs in levels.items():
            if len(dmcs) > 14:
                continue
            union = reliability_from_dmcs(net, dmcs, dist)
            complement = reliability_exhaustive(net, dist, demand + 1)
            assert abs(1.0 - union - complement) <= 1e-12
            comparisons += 1
