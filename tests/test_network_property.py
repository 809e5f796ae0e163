"""Property tests on generated networks: cut enumeration, lifting arcs, the solver and the file format."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from dmincut import (  # noqa: E402
    Arc,
    EdgeDistribution,
    FlowState,
    Network,
    brute_force_dmcs,
    classify,
    dmc_levels,
    enumerate_candidates,
    enumerate_min_cuts,
    find_all_dmcs,
    lifting_arcs,
    max_flow,
    max_flow_value,
    parse_edge_distribution,
    parse_network,
    residual_tree,
    state_space_size,
)
from dmincut.maxflow import push  # noqa: E402

from helpers import (  # noqa: E402
    assert_feasible,
    bump,
    every_arc,
    min_cuts_by_subsets,
    reachable_from_source,
    reference_dmcs,
    serialize_network,
    verdict_by_set_formula,
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
    # A network whose sink is unreachable has one minimal cut, the empty set.
    cuts = enumerate_min_cuts(net)
    assert cuts == min_cuts_by_subsets(net)
    if state_space_size(net) <= 4096:
        for d in range(3):
            assert find_all_dmcs(net, d, cuts).dmcs == brute_force_dmcs(net, d), d


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
    assert lifting_arcs(fs, every_arc(net)) == raising


@settings(derandomize=True, max_examples=300, deadline=None)
@given(networks(max_arcs=8), st.data())
def test_verdict_equals_the_whole_network_set_formula(net, data):
    # classify asks only about the unsaturated arcs; the reference asks about every arc.
    state = data.draw(st.tuples(*(st.integers(0, w) for w in net.max_capacities)))
    value = max_flow(net, state).value
    for demand in (value - 1, value, value + 1):
        verdict = classify(max_flow(net, state), demand)
        assert verdict.flow_value == value
        assert (verdict.is_dmc, verdict.failing_arc) == verdict_by_set_formula(max_flow(net, state), state, demand)


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks(max_arcs=7, max_cap=3))
def test_search_equals_the_reference_loop(net):
    assume(net.sink in reachable_from_source(net))
    cuts = enumerate_min_cuts(net)
    for d in range(max_flow_value(net, net.max_capacities) + 2):
        report = find_all_dmcs(net, d, cuts)
        assert (report.dmcs, report.counters.duplicates_removed) == reference_dmcs(net, d, cuts), d


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks(max_arcs=7, max_cap=3))
def test_lifting_at_a_dmc_lifts_at_every_ancestor(net):
    # The search's two prunes, checked on the oracle's max flow.  An ancestor
    # at depth i of a cut's candidate X keeps X on the cut's first i + 1
    # arcs and puts the cut's other arcs at 0.  At a d-MC its max flow is
    # the assigned sum, and every assigned arc below its maximum (each one
    # lifts W(X)) lifts it by one.
    assume(net.sink in reachable_from_source(net))
    for d, dmcs in dmc_levels(net).items():
        for cut in enumerate_min_cuts(net):
            for leaf in set(enumerate_candidates(net, cut, d)) & set(dmcs):
                for i in range(len(cut)):
                    ancestor = list(leaf)
                    for arc_id in cut[i + 1 :]:
                        ancestor[arc_id - 1] = 0
                    ancestor = tuple(ancestor)
                    assigned = sum(leaf[arc_id - 1] for arc_id in cut[: i + 1])
                    assert max_flow_value(net, ancestor) == assigned
                    for arc_id in cut[: i + 1]:
                        if leaf[arc_id - 1] < net.max_capacities[arc_id - 1]:
                            assert max_flow_value(net, bump(net, ancestor, arc_id)) == assigned + 1


def reached(tree) -> set[int]:
    return {v for v in range(1, len(tree)) if tree[v] >= 0}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(networks(max_arcs=8), st.data())
def test_a_unit_pushed_along_the_two_trees_is_the_augmentation_it_replaces(net, data):
    # The search's steps and descents, on a partial state of a minimal cut whose max flow saturates
    # the cut: push raises a cut arc by k units and sends them along the two trees.  It returns None
    # exactly when the raised state's max flow falls short of k more, and it leaves the residual and
    # the kept or lost trees that k one-unit pushes leave.  Pushes follow each other on the trees
    # push keeps, as the search's nodes inherit them.
    assume(net.sink in reachable_from_source(net))
    cut = data.draw(st.sampled_from(enumerate_min_cuts(net)))
    state = list(net.max_capacities)
    for arc_id in cut:
        state[arc_id - 1] = data.draw(st.integers(0, net.max_capacities[arc_id - 1]))
    fs = max_flow(net, tuple(state))
    assume(fs.value == sum(state[arc_id - 1] for arc_id in cut))
    residual, value, trees = list(fs.residual), fs.value, [fs.source_tree, fs.sink_tree]
    steps = data.draw(st.lists(st.tuples(st.sampled_from(cut), st.integers(0, 4)), max_size=6))
    # Room for every unit above the maxima, for the oracle's flow of the raised state.
    extra = sum(units for _, units in steps)
    wide = replace(net, arcs=tuple(replace(a, max_capacity=a.max_capacity + extra) for a in net.arcs))
    for arc_id, units in steps:
        slot = 2 * arc_id - 2
        raised = state.copy()
        raised[arc_id - 1] += units
        lifted = max_flow_value(wide, tuple(raised)) == value + units
        one_by_one, unit_trees, sent = residual.copy(), trees.copy(), 0
        while sent < units and (step := push(net, one_by_one, slot, 1, unit_trees)) is not None:
            unit_trees, sent = step, sent + 1
        kept = push(net, residual, slot, units, trees)
        assert (kept is not None) == lifted == (sent == units)
        assert residual == one_by_one
        state[arc_id - 1] += sent
        value += sent
        assert_feasible(FlowState(net=net, residual=tuple(residual), value=value), state)
        if kept is not None:
            assert kept == unit_trees
            trees = kept
        elif sent:
            trees = [None, None]
        # Otherwise the trees push searched stay in the caller's list, for the unchanged residual.
        for tree, start, backward in zip(trees, (net.source, net.sink), (0, 1)):
            if tree is None:
                continue
            # A kept tree reaches what a fresh search reaches, by entries that still have room.
            assert reached(tree) == reached(residual_tree(net, residual, start, backward))
            assert all(residual[tree[v] ^ backward] > 0 for v in reached(tree) - {start})


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
    # No prob line reads as no distribution, except on a network with no arcs, which needs none.
    assert parse_edge_distribution(text, net) == (None if net.arcs else EdgeDistribution(()))

    dist = data.draw(distributions(prob_net))
    text = serialize_network(prob_net, dist)
    assert parse_network(text) == prob_net
    assert parse_edge_distribution(text, prob_net) == dist
