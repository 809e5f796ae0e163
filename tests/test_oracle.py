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
    oracle,
    reliability_exhaustive,
    reliability_from_dmcs,
    state_space_size,
)
from dmincut.network import parse_network

from helpers import (
    box,
    random_distribution,
    random_network,
    random_state,
    union_by_box_sweep,
    union_by_inclusion_exclusion,
    uniform_distribution,
)


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


def test_reliability_from_dmcs_single_vector():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    dist = uniform_distribution(net)
    # Pr[X <= 2] with four uniform states is 3/4.
    assert abs(reliability_from_dmcs(net, [(2,)], dist) - 0.75) < 1e-15


def test_reliability_from_dmcs_dedups_input():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    dist = uniform_distribution(net)
    once = reliability_from_dmcs(net, [(2,)], dist)
    twice = reliability_from_dmcs(net, [(2,), (2,)], dist)
    assert once == twice


def test_reliability_from_dmcs_empty_flagged(fig1):
    with pytest.raises(ValidationError, match="empty"):
        reliability_from_dmcs(fig1, [], uniform_distribution(fig1))


def test_reliability_from_dmcs_guard(fig1, monkeypatch):
    dist = uniform_distribution(fig1)
    level = dmc_levels(fig1)[3]  # 32 vectors: 32^2 comparisons for the first filter alone
    monkeypatch.setattr(oracle, "UNION_WORK_GUARD", 1000)
    with pytest.raises(StateSpaceLimitError, match="UNION_WORK_GUARD"):
        reliability_from_dmcs(fig1, level, dist)


def test_reliability_from_dmcs_guard_refuses_before_filtering():
    # 2,300 pairwise incomparable vectors: 2,300^2 comparisons exceed the guard,
    # so the call refuses at once instead of running the quadratic filter.
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3000\nedge 2 1 2 3000\n")
    dist = uniform_distribution(net)
    vectors = [(i, 2999 - i) for i in range(2300)]
    assert len(vectors) ** 2 > oracle.UNION_WORK_GUARD
    with pytest.raises(StateSpaceLimitError, match="guard"):
        reliability_from_dmcs(net, vectors, dist)


def test_union_complement_identity_fig1(fig1):
    dist = uniform_distribution(fig1)
    levels = dmc_levels(fig1)
    for demand in range(0, 9):
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
            union = reliability_from_dmcs(net, dmcs, dist)
            complement = reliability_exhaustive(net, dist, demand + 1)
            assert abs(1.0 - union - complement) <= 1e-12
            comparisons += 1


def test_union_matches_both_references_on_arbitrary_vector_lists():
    # Any vector list, not only d-MC sets: dominated and repeated vectors included.
    rng = random.Random(604)
    for _ in range(200):
        net = random_network(rng, max_arcs=6, max_states=4_000)
        dist = random_distribution(rng, net)
        vectors = [random_state(rng, net) for _ in range(rng.randint(1, 10))]
        for _ in range(rng.randint(0, 3)):
            top = rng.choice(vectors)
            vectors.append(tuple(rng.randint(0, x) for x in top))  # dominated by top
            vectors.append(rng.choice(vectors))  # repeated
        union = reliability_from_dmcs(net, vectors, dist)
        assert abs(union - union_by_inclusion_exclusion(vectors, dist)) <= 1e-12
        assert abs(union - union_by_box_sweep(net, vectors, dist)) <= 1e-12
