import itertools
import random
from dataclasses import replace

import pytest

from dmincut import (
    Arc,
    FlowState,
    Network,
    classify,
    enumerate_candidates,
    enumerate_min_cuts,
    lifting_arcs,
    max_flow,
    max_flow_value,
    residual_reachable,
    residual_tree,
    unsaturated_set,
)
from dmincut.maxflow import stuck_arcs
from dmincut.network import parse_network

from helpers import (
    assert_feasible,
    box,
    bump,
    cut_capacity_minimum,
    every_arc,
    grid_network,
    random_network,
    random_state,
    residual_distances,
    zero_flow,
)


def test_fig1_flow_values(fig1):
    # Saturated value derived from the exhaustive cut-capacity oracle.
    assert cut_capacity_minimum(fig1, fig1.max_capacities) == 8
    assert max_flow(fig1, fig1.max_capacities).value == 8
    assert max_flow(fig1, (0, 2, 3, 1, 3, 3)).value == 5
    assert max_flow(fig1, (1, 2, 3, 1, 3, 3)).value == 6
    assert max_flow(fig1, (0, 0, 0, 0, 0, 0)).value == 0


def test_flow_state_feasible_fig1(fig1):
    for state in [(4, 2, 3, 1, 3, 3), (0, 2, 3, 1, 3, 3), (2, 1, 0, 1, 3, 2)]:
        assert_feasible(max_flow(fig1, state), state)


def test_value_matches_cut_oracle_on_random_networks():
    rng = random.Random(101)
    for _ in range(40):
        net = random_network(rng, max_nodes=7)
        for _ in range(10):
            state = random_state(rng, net)
            fs = max_flow(net, state)
            assert_feasible(fs, state)
            assert fs.value == cut_capacity_minimum(net, state)


@pytest.mark.parametrize("rows, cols", [(3, 3), (3, 4)])
def test_value_matches_cut_oracle_on_grids(rows, cols):
    rng = random.Random(f"grid-{rows}x{cols}")
    net = grid_network(rows, cols, (rng.randint(1, 3) for _ in itertools.count()))
    for _ in range(40):
        state = random_state(rng, net)
        fs = max_flow(net, state)
        assert_feasible(fs, state)
        assert fs.value == cut_capacity_minimum(net, state)


def test_two_engines_agree_on_random_networks():
    rng = random.Random(102)
    for _ in range(40):
        net = random_network(rng)
        for _ in range(10):
            state = random_state(rng, net)
            assert max_flow(net, state).value == max_flow_value(net, state)


def test_deterministic_flow(fig1):
    a = max_flow(fig1, (3, 2, 3, 1, 2, 3))
    b = max_flow(fig1, (3, 2, 3, 1, 2, 3))
    assert a == b


def test_residual_reachable_at_maximality(fig1):
    rng = random.Random(103)
    for state in [fig1.max_capacities, (1, 2, 3, 1, 3, 3), (0, 2, 3, 1, 3, 3)]:
        assert not residual_reachable(max_flow(fig1, state))
    for _ in range(30):
        net = random_network(rng)
        state = random_state(rng, net)
        assert not residual_reachable(max_flow(net, state))


def test_residual_reachable_below_maximum(fig1):
    # A candidate X of a minimum-capacity cut at level d has W(X) = d: each
    # unit taken off the saturated state lowers the flow by at most one, and
    # the cut caps it at d.  Its max flow, read under the saturated
    # capacities, is a feasible flow of value d below the maximum.
    saturated = fig1.max_capacities
    full = max_flow(fig1, saturated).value
    cut = min(enumerate_min_cuts(fig1), key=lambda c: sum(saturated[a - 1] for a in c))
    assert sum(saturated[a - 1] for a in cut) == full
    for d in range(full):
        state = next(enumerate_candidates(fig1, cut, d))
        fs = max_flow(fig1, state)
        flows = fs.residual[1::2]
        fs = replace(fs, residual=tuple(r for x, f in zip(saturated, flows) for r in (x - f, f)))
        assert fs.value == d
        assert_feasible(fs, saturated)
        assert residual_reachable(fs)


def test_residual_reachable_single_arc_zero_flow():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 1\n")
    fs = zero_flow(net, (1,))
    assert fs.residual == (1, 0)
    assert_feasible(fs, (1,))
    assert residual_reachable(fs)


def test_unit_bump_raises_flow_by_at_most_one():
    rng = random.Random(104)
    pairs = 0
    while pairs < 4000:
        net = random_network(rng)
        state = random_state(rng, net)
        value = max_flow(net, state).value
        for arc_id in unsaturated_set(net, state):
            bumped_value = max_flow(net, bump(net, state, arc_id)).value
            assert value <= bumped_value <= value + 1
            pairs += 1


ANTI_PARALLEL = (
    "nodes 4 source 1 sink 4\nedge 1 1 2 2\nedge 2 1 3 1\nedge 3 2 3 2\n"
    "edge 4 3 2 1\nedge 5 2 4 1\nedge 6 3 4 2\n"
)


# The first shortest path, 1-2-3-6, puts a unit on arc 3, which no maximum
# flow uses: the third path, 1-4-3-2-5-6, must cancel it by running 3 -> 2.
FLOW_CANCELLING = (
    "nodes 6 source 1 sink 6\nedge 1 1 2 1\nedge 2 1 4 3\nedge 3 2 3 1\nedge 4 2 5 2\n"
    "edge 5 3 6 2\nedge 6 4 3 3\nedge 7 5 6 3\n"
)


def assert_lifting_matches_definition(net):
    # One spare unit on every arc, so saturated arcs can be bumped too.
    wide = Network(
        node_count=net.node_count,
        arcs=tuple(Arc(a.index, a.tail, a.head, a.max_capacity + 1) for a in net.arcs),
        source=net.source,
        sink=net.sink,
    )
    for state in box(net):
        fs = max_flow(wide, state)
        expected = {
            a for a in range(1, net.arc_count + 1)
            if max_flow_value(wide, bump(wide, state, a)) > fs.value
        }
        assert lifting_arcs(fs, every_arc(wide)) == expected, state


def test_lifting_arcs_fig1(fig1):
    # (3,2,2,1,3,3) carries 7 units; one more unit on arc 2 or 3 reaches 8,
    # one more on arc 1 does not.
    assert lifting_arcs(max_flow(fig1, (3, 2, 2, 1, 3, 3)), every_arc(fig1)) == {2, 3}
    assert lifting_arcs(max_flow(fig1, (0, 2, 3, 1, 3, 3)), every_arc(fig1)) == {1, 2, 3}
    assert_lifting_matches_definition(fig1)


def test_lifting_arcs_anti_parallel_pair():
    net = parse_network(ANTI_PARALLEL)  # arcs 3 and 4 join nodes 2 and 3 both ways
    assert lifting_arcs(max_flow(net, (2, 1, 1, 1, 0, 2)), every_arc(net)) == {5}
    assert lifting_arcs(max_flow(net, (2, 0, 2, 1, 1, 2)), every_arc(net)) == {1, 2}
    assert_lifting_matches_definition(net)


def test_flow_cancelling_path():
    net = parse_network(FLOW_CANCELLING)
    fs = max_flow(net, net.max_capacities)
    assert fs.value == 3
    assert fs.residual[1::2] == (1, 2, 0, 1, 2, 2, 1)  # the only maximum flow
    for state in box(net):
        fs = max_flow(net, state)
        assert_feasible(fs, state)
        assert fs.value == max_flow_value(net, state), state
    assert_lifting_matches_definition(net)


def entry_depths(net, entry):
    """Steps from each node back to the search's start along its entries; -1 if unreached."""
    to = net.slot_heads
    depths = [-1] * len(entry)
    for v in range(1, len(entry)):
        u, steps = v, 0
        while 0 <= entry[u] < len(to) and steps < len(entry):
            u, steps = to[entry[u] ^ 1], steps + 1
        if entry[u] == len(to):
            depths[v] = steps
    return depths


def test_residual_tree_backward():
    net = parse_network("nodes 3 source 1 sink 3\nedge 1 1 2 1\nedge 2 2 3 1\n")
    # Slots: 0 is 1->2, 1 is 2->1, 2 is 2->3, 3 is 3->2; the start reads 4.
    cases = [
        # Zero flow: forward residual only.
        (([1, 0, 1, 0], 1, 0), [-1, 4, 0, 2], [-1, 0, 1, 2]),
        (([1, 0, 1, 0], 3, 1), [-1, 1, 3, 4], [-1, 2, 1, 0]),
        (([1, 0, 0, 0], 3, 1), [-1, -1, -1, 4], [-1, -1, -1, 0]),
        # One unit on the path: backward residual only.
        (([0, 1, 0, 1], 3, 1), [-1, -1, -1, 4], [-1, -1, -1, 0]),
        (([0, 1, 0, 1], 1, 1), [-1, 4, 0, 2], [-1, 0, 1, 2]),
    ]
    for (residual, start, backward), entry, depths in cases:
        assert residual_tree(net, residual, start, backward) == entry
        assert entry_depths(net, entry) == depths


def test_residual_tree_backward_is_forward_on_reversed_network():
    rng = random.Random(106)
    for _ in range(200):
        net = random_network(rng)
        reversed_net = Network(
            node_count=net.node_count,
            arcs=tuple(Arc(a.index, a.head, a.tail, a.max_capacity) for a in net.arcs),
            source=net.source,
            sink=net.sink,
        )
        # Reversing every arc reverses every residual slot in place, so slot
        # s of one network runs the way slot s ^ 1 of the other does.
        residual = [rng.randint(0, 2) for _ in range(2 * net.arc_count)]
        for start in range(1, net.node_count + 1):
            backward = residual_tree(net, residual, start, backward=1)
            forward = residual_tree(reversed_net, residual, start)
            assert backward[start] == forward[start] == len(residual)
            assert backward == [
                s if s < 0 or v == start else s ^ 1 for v, s in enumerate(forward)
            ]


def test_residual_tree_entries_are_shortest_paths():
    # The Edmonds-Karp invariant: max_flow augments along the entries walked
    # back from the sink, so they must form a shortest residual path.
    rng = random.Random(107)
    for _ in range(200):
        net = random_network(rng)
        to = net.slot_heads
        residual = [rng.randint(0, 2) for _ in range(2 * net.arc_count)]
        for start in range(1, net.node_count + 1):
            for backward in (0, 1):
                entry = residual_tree(net, residual, start, backward)
                dist = residual_distances(net, residual, start, backward)
                assert {v for v in range(1, net.node_count + 1) if entry[v] >= 0} == set(dist)
                assert entry[start] == len(residual)
                for v in set(dist) - {start}:
                    slot = entry[v]
                    assert to[slot] == v
                    assert residual[slot ^ backward] > 0
                    assert dist[to[slot ^ 1]] == dist[v] - 1
                depths = entry_depths(net, entry)
                assert all(depths[v] == d for v, d in dist.items())


def test_lifting_arcs_fig1_one_more_unit_cases(fig1):
    # (0,2,3,1,3,3) carries 5 units and one more unit on arc 1 reaches 6.
    assert 1 in lifting_arcs(max_flow(fig1, (0, 2, 3, 1, 3, 3)), [1])
    # (3,2,3,1,3,3) has max flow 8 and bumping arc 1 cannot beat the
    # saturated value 8.
    assert 1 not in lifting_arcs(max_flow(fig1, (3, 2, 3, 1, 3, 3)), [1])


def test_lifting_arcs_matches_direct_inequality_per_unsaturated_arc():
    rng = random.Random(105)
    checked = 0
    while checked < 400:
        net = random_network(rng)
        state = random_state(rng, net)
        fs = max_flow(net, state)
        unsaturated = unsaturated_set(net, state)
        lifting = lifting_arcs(fs, unsaturated)
        for arc_id in unsaturated:
            expected = max_flow_value(net, bump(net, state, arc_id)) > fs.value
            assert (arc_id in lifting) is expected
            checked += 1


def test_stuck_arcs_are_the_bumps_that_leave_the_oracle_flow_in_the_order_asked():
    rng = random.Random(2606)
    checked = 0
    while checked < 400:
        net = random_network(rng)
        state = random_state(rng, net)
        fs = max_flow(net, state)
        asked = sorted(unsaturated_set(net, state))
        rng.shuffle(asked)
        stuck = [a for a in asked if max_flow_value(net, bump(net, state, a)) == fs.value]
        assert list(stuck_arcs(fs, asked)) == stuck
        assert lifting_arcs(fs, asked) == set(asked) - set(stuck)
        checked += len(asked)


def test_min_cut_equality_on_full_box():
    net = parse_network(
        "nodes 3 source 1 sink 3\nedge 1 1 2 2\nedge 2 2 3 2\nedge 3 1 3 1\nedge 4 3 2 1\n"
    )
    for state in box(net):
        assert max_flow(net, state).value == cut_capacity_minimum(net, state)


def test_classify_searches_once_at_the_demand_and_never_off_it(fig1, residual_tree_calls):
    # The forward search comes with the max flow; classify adds only the
    # backward one, and a flow off the demand is rejected without a search.
    rng = random.Random(108)
    nets = [fig1] + [random_network(rng) for _ in range(30)]
    for net in nets:
        state = random_state(rng, net)
        value = max_flow(net, state).value
        for demand in (value - 1, value, value + 1):
            fs = max_flow(net, state)
            residual_tree_calls.clear()
            classify(fs, demand)
            expected = [(net.sink, 1)] if demand == fs.value else []
            assert residual_tree_calls == expected, (state, demand)


def test_max_flow_keeps_its_last_search():
    rng = random.Random(109)
    for _ in range(200):
        net = random_network(rng)
        fs = max_flow(net, random_state(rng, net))
        assert "source_tree" in vars(fs)
        assert fs.source_tree == residual_tree(net, fs.residual, net.source)
        assert fs.source_tree[net.sink] < 0


def test_kept_search_is_not_part_of_the_state(fig1):
    fs = max_flow(fig1, (3, 2, 3, 1, 2, 3))
    fresh = FlowState(net=fig1, residual=fs.residual, value=fs.value)
    assert "source_tree" in vars(fs) and "source_tree" not in vars(fresh)
    assert fs == fresh and hash(fs) == hash(fresh)
    assert repr(fs) == repr(fresh)
    assert "source_tree" not in repr(fs)


def test_replaced_residual_is_searched_again(fig1, residual_tree_calls):
    # The zero flow under the saturated state has room on every arc, so the
    # sink is reachable again; a search kept from the max flow would say not.
    saturated = fig1.max_capacities
    fs = max_flow(fig1, saturated)
    assert not residual_reachable(fs)
    zero = replace(fs, residual=tuple(r for x in saturated for r in (x, 0)), value=0)
    assert "source_tree" not in vars(zero)
    residual_tree_calls.clear()
    assert residual_reachable(zero)
    assert residual_tree_calls == [(fig1.source, 0)]
    arcs = every_arc(fig1)
    assert lifting_arcs(zero, arcs) == lifting_arcs(zero_flow(fig1, saturated), arcs) != lifting_arcs(fs, arcs)


def test_kept_sink_tree_is_not_part_of_the_state(fig1, residual_tree_calls):
    # max_flow keeps no sink tree; the first read searches it once, and it then stays on the flow.
    fs = max_flow(fig1, (3, 2, 3, 1, 2, 3))
    assert "sink_tree" not in vars(fs)
    residual_tree_calls.clear()
    tree = fs.sink_tree
    assert fs.sink_tree is tree
    assert residual_tree_calls == [(fig1.sink, 1)]
    assert tree == residual_tree(fig1, fs.residual, fig1.sink, 1)
    fresh = FlowState(net=fig1, residual=fs.residual, value=fs.value)
    assert "sink_tree" in vars(fs) and "sink_tree" not in vars(fresh)
    assert fs == fresh and hash(fs) == hash(fresh)
    assert repr(fs) == repr(fresh)
    assert "sink_tree" not in repr(fs)
    # replace builds a new state, which searches its own residual again.
    again = replace(fs)
    assert "sink_tree" not in vars(again) and "source_tree" not in vars(again)


def test_lifting_arcs_runs_no_search_when_both_trees_are_kept(fig1, residual_tree_calls):
    fs = max_flow(fig1, (0, 2, 3, 1, 3, 3))
    residual_tree_calls.clear()
    assert lifting_arcs(fs, every_arc(fig1)) == {1, 2, 3}
    assert residual_tree_calls == [(fig1.sink, 1)]
    residual_tree_calls.clear()
    assert lifting_arcs(fs, every_arc(fig1)) == {1, 2, 3}
    assert lifting_arcs(fs, [1, 4]) == {1}
    assert residual_tree_calls == []
    # Any trees a caller keeps are read as they are: empty ones lift nothing.
    vars(fs).update(source_tree=[-1] * (fig1.node_count + 1), sink_tree=[-1] * (fig1.node_count + 1))
    assert lifting_arcs(fs, every_arc(fig1)) == set()
    assert residual_tree_calls == []


def test_out_slots_pairs_each_slot_with_its_head():
    rng = random.Random(110)
    for _ in range(200):
        net = random_network(rng)
        to = net.slot_heads
        assert len(net.out_slots) == net.node_count + 1 and net.out_slots[0] == ()
        listed = []
        for u in range(1, net.node_count + 1):
            slots = [s for s, _ in net.out_slots[u]]
            assert slots == sorted(slots)
            assert net.out_slots[u] == tuple((s, to[s]) for s in slots)
            assert all(to[s ^ 1] == u for s in slots)
            listed += slots
        assert sorted(listed) == list(range(2 * net.arc_count))
