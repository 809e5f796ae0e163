"""Property tests on generated networks: cut enumeration, lifting arcs, the solver and the file format."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from dmincut import (  # noqa: E402
    Arc,
    EdgeDistribution,
    Network,
    ValidationError,
    dmc_levels,
    enumerate_min_cuts,
    find_all_dmcs,
    lifting_arcs,
    max_flow,
    max_flow_value,
    parse_edge_distribution,
    parse_network,
)

from helpers import (  # noqa: E402
    assert_feasible,
    min_cuts_by_subsets,
    reachable_from_source,
    serialize_network,
)


@st.composite
def networks(draw, max_nodes=7, max_arcs=10, max_cap=3):
    """Any small network: dead ends, unreachable nodes and anti-parallel pairs included."""
    n = draw(st.integers(2, max_nodes))
    node = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=max_arcs))
    if pairs:
        # Reverse some arcs into anti-parallel pairs, which plain draws rarely give.
        mirrored = draw(st.lists(st.sampled_from(pairs), max_size=max_arcs - len(pairs)))
        pairs += [(head, tail) for tail, head in mirrored]
    caps = draw(st.lists(st.integers(0, max_cap), min_size=len(pairs), max_size=len(pairs)))
    source, sink = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    arcs = tuple(
        Arc(index=i, tail=t, head=h, max_capacity=w) for i, ((t, h), w) in enumerate(zip(pairs, caps), 1)
    )
    return Network(node_count=n, arcs=arcs, source=source, sink=sink)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(networks())
def test_enumeration_equals_arc_subset_filter(net):
    expected = min_cuts_by_subsets(net)
    if expected == [()]:  # the sink is unreachable
        with pytest.raises(ValidationError, match="unreachable"):
            enumerate_min_cuts(net)
    else:
        assert enumerate_min_cuts(net) == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(networks(max_arcs=8), st.data())
def test_lifting_arcs_are_the_bumps_that_raise_the_oracle_flow(net, data):
    state = data.draw(st.tuples(*(st.integers(0, w) for w in net.max_capacities)))
    fs = max_flow(net, state)
    assert_feasible(fs, state)
    assert fs.value == max_flow_value(net, state)
    # One unit of headroom on every arc, so arcs at their maximum can be bumped too;
    # the max flow of a state does not depend on the maxima.
    wide = replace(net, arcs=tuple(replace(a, max_capacity=a.max_capacity + 1) for a in net.arcs))
    raising = {
        a.index
        for a in net.arcs
        if max_flow_value(wide, state[: a.index - 1] + (state[a.index - 1] + 1,) + state[a.index:])
        > fs.value
    }
    assert lifting_arcs(fs) == raising


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks(max_arcs=6, max_cap=2))
def test_solver_equals_oracle_at_every_level(net):
    assume(net.sink in reachable_from_source(net))
    cuts = enumerate_min_cuts(net)
    levels = dmc_levels(net)
    top = max_flow_value(net, net.max_capacities)
    for d in range(top + 2):
        report = find_all_dmcs(net, d, cuts)
        assert report.dmcs == levels.get(d, ()), d
        assert report.infeasible_demand == (d > top)


@st.composite
def distributions(draw, net):
    pmfs = []
    for w in net.max_capacities:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=w + 1, max_size=w + 1))
        weights[draw(st.integers(0, w))] += 0.5  # keep the total away from 0
        total = sum(weights)
        pmfs.append(tuple(x / total for x in weights))
    return EdgeDistribution(tuple(pmfs))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(networks(max_cap=10**12), networks(), st.data())
def test_serialize_parse_round_trip(net, prob_net, data):
    text = serialize_network(net)
    assert parse_network(text) == net
    assert parse_edge_distribution(text, net) is None

    dist = data.draw(distributions(prob_net))
    text = serialize_network(prob_net, dist)
    assert parse_network(text) == prob_net
    # Without arcs there is no prob line, which reads as no distribution.
    assert parse_edge_distribution(text, prob_net) == (dist if prob_net.arcs else None)
