import random
from itertools import accumulate, compress
from math import prod

import pytest

from dmincut import (
    StateSpaceLimitError,
    ValidationError,
    dmc_levels,
    reliability,
    reliability_exhaustive,
    reliability_from_dmcs,
)
from dmincut.network import parse_network

from helpers import (
    random_distribution,
    random_network,
    random_state,
    union_by_box_sweep,
    union_by_inclusion_exclusion,
    uniform_distribution,
)


def test_the_package_exports_the_union_from_its_module():
    assert reliability_from_dmcs is reliability.reliability_from_dmcs


def test_reliability_from_dmcs_single_vector():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    dist = uniform_distribution(net)
    # Pr[X <= 2] with four uniform states is 3/4.
    assert abs(reliability_from_dmcs(net, [(2,)], dist) - 0.75) < 1e-15


def test_reliability_from_dmcs_reads_a_whole_range_as_its_fsum():
    # Twenty masses of 0.05 add up left to right to 1.0000000000000002, but their fsum is 1.0.
    # The box over the arc's whole range reads the fsum, so Pr[W >= 20] = 1 - union is 0.0, not -0.0.
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 19\n")
    assert reliability_from_dmcs(net, [(19,)], uniform_distribution(net)) == 1.0


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
    level = dmc_levels(fig1)[3]  # 32 vectors, whose split charges 1,734 coordinates
    monkeypatch.setattr(reliability, "UNION_WORK_GUARD", 1000)
    with pytest.raises(StateSpaceLimitError, match="UNION_WORK_GUARD"):
        reliability_from_dmcs(fig1, level, dist)


STAIRCASE = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3000\nedge 2 1 2 3000\n")
STAIRCASE_CORNERS = [(i, 2999 - i) for i in range(2300)]  # 2,300 pairwise incomparable vectors


def test_reliability_from_dmcs_answers_a_wide_antichain():
    # The boxes below the staircase cover 3000 - i states in column i < 2300.
    covered = sum(3000 - i for i in range(2300))
    assert covered == 4_256_150
    union = reliability_from_dmcs(STAIRCASE, STAIRCASE_CORNERS, uniform_distribution(STAIRCASE))
    assert abs(union - covered / 3001**2) <= 1e-12


def test_reliability_from_dmcs_guard_refuses_before_any_slab(monkeypatch):
    # The root charges m = 2 coordinates per d-MC: a guard one below that refuses
    # before the cumulative masses are built, a guard at it only at the first slab.
    dist = uniform_distribution(STAIRCASE)
    measured = []
    monkeypatch.setattr(reliability, "accumulate", lambda xs, **kw: measured.append(xs) or accumulate(xs, **kw))
    monkeypatch.setattr(reliability, "UNION_WORK_GUARD", 2 * 2300 - 1)
    with pytest.raises(StateSpaceLimitError, match="UNION_WORK_GUARD"):
        reliability_from_dmcs(STAIRCASE, STAIRCASE_CORNERS, dist)
    assert measured == []
    monkeypatch.setattr(reliability, "UNION_WORK_GUARD", 2 * 2300)
    with pytest.raises(StateSpaceLimitError, match="UNION_WORK_GUARD"):
        reliability_from_dmcs(STAIRCASE, STAIRCASE_CORNERS, dist)
    assert measured != []


def test_reliability_from_dmcs_one_dmc_charges_m_and_makes_no_slab(fig1, monkeypatch):
    # One d-MC is a one-box subproblem: it adds its box and scans no box for a slab.
    vector = (2, 1, 0, 1, 3, 2)
    expected = prod((x + 1) / (w + 1) for x, w in zip(vector, fig1.max_capacities))
    scans = []
    monkeypatch.setattr(reliability, "compress", lambda *args: scans.append(args) or compress(*args))
    monkeypatch.setattr(reliability, "UNION_WORK_GUARD", fig1.arc_count)
    assert abs(reliability_from_dmcs(fig1, [vector], uniform_distribution(fig1)) - expected) <= 1e-15
    assert scans == []
    monkeypatch.setattr(reliability, "UNION_WORK_GUARD", fig1.arc_count - 1)
    with pytest.raises(StateSpaceLimitError, match="UNION_WORK_GUARD"):
        reliability_from_dmcs(fig1, [vector], uniform_distribution(fig1))


# The split's charge on fig1's d-MC set at each level 0..8.  A guard at the charge
# answers and one below it refuses, so a loop that charges more fails here.
FIG1_UNION_CHARGES = [54, 390, 1110, 1734, 1980, 1308, 480, 90, 6]


def test_reliability_from_dmcs_charge_is_pinned_on_fig1(fig1, monkeypatch):
    dist = uniform_distribution(fig1)
    levels = dmc_levels(fig1)
    for demand, charge in enumerate(FIG1_UNION_CHARGES):
        monkeypatch.setattr(reliability, "UNION_WORK_GUARD", charge)
        reliability_from_dmcs(fig1, levels[demand], dist)
        monkeypatch.setattr(reliability, "UNION_WORK_GUARD", charge - 1)
        with pytest.raises(StateSpaceLimitError, match="UNION_WORK_GUARD"):
            reliability_from_dmcs(fig1, levels[demand], dist)


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
