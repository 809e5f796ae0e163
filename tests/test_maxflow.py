import itertools
import random
from dataclasses import replace

import pytest

from dmincut import (
    Arc,
    Network,
    bump,
    enumerate_candidates,
    enumerate_min_cuts,
    lifting_arcs,
    max_flow,
    max_flow_value,
    residual_levels,
    residual_reachable,
    saturated_vector,
    unsaturated_set,
    zero_flow,
)
from dmincut.network import parse_network

from helpers import (
    assert_feasible,
    box,
    cut_capacity_minimum,
    grid_network,
    random_network,
    random_state,
)


def test_fig1_flow_values(fig1):
    # Saturated value derived from the exhaustive cut-capacity oracle.
    assert cut_capacity_minimum(fig1, saturated_vector(fig1)) == 8
    assert max_flow(fig1, saturated_vector(fig1)).value == 8
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
    for state in [saturated_vector(fig1), (1, 2, 3, 1, 3, 3), (0, 2, 3, 1, 3, 3)]:
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
    saturated = saturated_vector(fig1)
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
        assert lifting_arcs(fs) == expected, state


def test_lifting_arcs_fig1(fig1):
    # (3,2,2,1,3,3) carries 7 units; one more unit on arc 2 or 3 reaches 8,
    # one more on arc 1 does not.
    assert lifting_arcs(max_flow(fig1, (3, 2, 2, 1, 3, 3))) == {2, 3}
    assert lifting_arcs(max_flow(fig1, (0, 2, 3, 1, 3, 3))) == {1, 2, 3}
    assert_lifting_matches_definition(fig1)


def test_lifting_arcs_anti_parallel_pair():
    net = parse_network(ANTI_PARALLEL)  # arcs 3 and 4 join nodes 2 and 3 both ways
    assert lifting_arcs(max_flow(net, (2, 1, 1, 1, 0, 2))) == {5}
    assert lifting_arcs(max_flow(net, (2, 0, 2, 1, 1, 2))) == {1, 2}
    assert_lifting_matches_definition(net)


def test_flow_cancelling_path():
    net = parse_network(FLOW_CANCELLING)
    fs = max_flow(net, saturated_vector(net))
    assert fs.value == 3
    assert fs.residual[1::2] == (1, 2, 0, 1, 2, 2, 1)  # the only maximum flow
    for state in box(net):
        fs = max_flow(net, state)
        assert_feasible(fs, state)
        assert fs.value == max_flow_value(net, state), state
    assert_lifting_matches_definition(net)


def test_residual_levels_backward():
    net = parse_network("nodes 3 source 1 sink 3\nedge 1 1 2 1\nedge 2 2 3 1\n")
    # Zero flow: forward residual only.
    assert residual_levels(net, [1, 0, 1, 0], 1) == [-1, 0, 1, 2]
    assert residual_levels(net, [1, 0, 1, 0], 3, backward=1) == [-1, 2, 1, 0]
    assert residual_levels(net, [1, 0, 0, 0], 3, backward=1) == [-1, -1, -1, 0]
    # One unit on the path: backward residual only.
    assert residual_levels(net, [0, 1, 0, 1], 3, backward=1) == [-1, -1, -1, 0]
    assert residual_levels(net, [0, 1, 0, 1], 1, backward=1) == [-1, 0, 1, 2]


def test_residual_levels_backward_is_forward_on_reversed_network():
    rng = random.Random(106)
    for _ in range(200):
        net = random_network(rng)
        reversed_net = Network(
            node_count=net.node_count,
            arcs=tuple(Arc(a.index, a.head, a.tail, a.max_capacity) for a in net.arcs),
            source=net.source,
            sink=net.sink,
        )
        # Reversing every arc reverses every residual slot in place.
        residual = [rng.randint(0, 2) for _ in range(2 * net.arc_count)]
        for start in range(1, net.node_count + 1):
            assert residual_levels(net, residual, start, backward=1) == residual_levels(
                reversed_net, residual, start
            )


def test_lifting_arcs_fig1_one_more_unit_cases(fig1):
    # (0,2,3,1,3,3) carries 5 units and one more unit on arc 1 reaches 6.
    assert 1 in lifting_arcs(max_flow(fig1, (0, 2, 3, 1, 3, 3)))
    # (3,2,3,1,3,3) has max flow 8 and bumping arc 1 cannot beat the
    # saturated value 8.
    assert 1 not in lifting_arcs(max_flow(fig1, (3, 2, 3, 1, 3, 3)))


def test_lifting_arcs_matches_direct_inequality_per_unsaturated_arc():
    rng = random.Random(105)
    checked = 0
    while checked < 400:
        net = random_network(rng)
        state = random_state(rng, net)
        fs = max_flow(net, state)
        lifting = lifting_arcs(fs)
        for arc_id in unsaturated_set(net, state):
            expected = max_flow_value(net, bump(net, state, arc_id)) > fs.value
            assert (arc_id in lifting) is expected
            checked += 1


def test_min_cut_equality_on_full_box():
    net = parse_network(
        "nodes 3 source 1 sink 3\nedge 1 1 2 2\nedge 2 2 3 2\nedge 3 1 3 1\nedge 4 3 2 1\n"
    )
    for state in box(net):
        assert max_flow(net, state).value == cut_capacity_minimum(net, state)
