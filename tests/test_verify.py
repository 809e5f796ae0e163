import random

import pytest

from dmincut import (
    FlowState,
    ValidationError,
    dmc_levels,
    enumerate_candidates,
    enumerate_min_cuts,
    max_flow,
    max_flow_value,
    unsaturated_set,
    verify,
    verify_flawed,
)
from dmincut.maxflow import push
from dmincut.network import parse_network

from helpers import (
    assert_feasible,
    box,
    bump,
    random_network,
    random_state,
    reachable_from_source,
    serialize_network,
    verdict_by_set_formula,
    zero_flow,
)


def test_benchmark_candidate_rejected_by_sound_test(fig1):
    verdict = verify(fig1, (0, 2, 3, 1, 3, 3), 7)
    assert not verdict.is_dmc
    assert verdict.flow_value == 5
    assert verdict.failing_arc is None  # rejected on the flow clause, before any arc


def test_benchmark_candidate_accepted_by_flawed_test(fig1):
    verdict = verify_flawed(max_flow(fig1, (0, 2, 3, 1, 3, 3)))
    assert verdict.is_dmc
    assert verdict.flow_value == 5


def test_flaw_witness_exists_at_demand_7(fig1):
    # At least one generated candidate splits the two tests.
    witnesses = []
    for cut in enumerate_min_cuts(fig1):
        for cand in enumerate_candidates(fig1, cut, 7):
            if verify(fig1, cand, 7).is_dmc != verify_flawed(max_flow(fig1, cand)).is_dmc:
                witnesses.append(cand)
    assert (0, 2, 3, 1, 3, 3) in witnesses


def test_single_arc_network_definition():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    verdict = verify(net, (2,), 2)
    assert verdict.is_dmc  # W(3) = 3 > 2 on the only unsaturated arc


def test_saturated_vector_verdicts(fig1):
    full = fig1.max_capacities
    # Max flow of the saturated network is 8: vacuous acceptance there only.
    assert verify(fig1, full, 8).is_dmc
    assert verify_flawed(max_flow(fig1, full)).is_dmc
    rejected = verify(fig1, full, 7)
    assert not rejected.is_dmc
    assert rejected.flow_value == 8


def test_verify_on_a_flow_in_hand_equals_verify_from_scratch():
    # A maximum flow reached from a smaller state's flow, as the solver's
    # search reaches it, gives the verdict of a max flow from zero.
    rng = random.Random(19)
    checked = 0
    for _ in range(300):
        net = random_network(rng)
        for _ in range(5):
            state = random_state(rng, net)
            lower = tuple(rng.randint(0, x) for x in state)
            start = max_flow(net, lower)
            residual, value = list(start.residual), start.value
            # Each arc goes from lower to state one unit at a time, and a unit that lifts the flow
            # is pushed along the two trees, searched afresh.
            for i, (x, y) in enumerate(zip(state, lower)):
                for _ in range(x - y):
                    if push(net, residual, 2 * i, 1, [None, None]) is not None:
                        value += 1
                    else:
                        residual[2 * i] += 1
            warm = FlowState(net=net, residual=tuple(residual), value=value)
            assert_feasible(warm, state)
            assert value == max_flow_value(net, state)
            for demand in range(value + 2):
                assert verify(net, state, demand, warm) == verify(net, state, demand)
                checked += 1
    assert checked > 1_000


def test_verify_refuses_a_flow_it_cannot_use(fig1):
    state = (3, 2, 2, 1, 3, 3)
    fs = max_flow(fig1, state)
    assert verify(fig1, state, 7, fs) == verify(fig1, state, 7)
    # Not maximal: the zero flow still reaches the sink.
    with pytest.raises(ValidationError, match="not maximal"):
        verify(fig1, state, 7, zero_flow(fig1, state))
    # A maximum flow of other capacities, on the same arcs.
    with pytest.raises(ValidationError, match="under this state"):
        verify(fig1, (3, 2, 2, 1, 3, 2), 7, fs)
    with pytest.raises(ValidationError, match="under this state"):
        verify(fig1, state, 7, max_flow(fig1, (4, 2, 2, 1, 3, 3)))
    # The same flow on another network object.
    with pytest.raises(ValidationError, match="this network"):
        verify(parse_network(serialize_network(fig1)), state, 7, fs)
    # The state itself must still lie in the box.
    with pytest.raises(ValidationError, match="outside"):
        verify(fig1, (5, 2, 3, 1, 3, 3), 7, fs)


def test_failing_arc_is_lowest_witness(fig1):
    # (3,2,2,1,3,3) has max flow 7; bumping arc 1 stays at 7, bumping arc 3
    # reaches 8, so arc 1 is the witness and the scan short-circuits.
    verdict = verify(fig1, (3, 2, 2, 1, 3, 3), 7)
    assert not verdict.is_dmc
    assert verdict.failing_arc == 1


def test_failing_arc_matches_definitional_minimum():
    rng = random.Random(401)
    seen_failures = 0
    while seen_failures < 50:
        net = random_network(rng, max_arcs=6)
        state = tuple(rng.randint(0, w) for w in net.max_capacities)
        demand = max_flow_value(net, state)
        verdict = verify(net, state, demand)
        if verdict.is_dmc or verdict.failing_arc is None:
            continue
        failing = [
            arc_id
            for arc_id in sorted(unsaturated_set(net, state))
            if max_flow_value(net, bump(net, state, arc_id)) <= demand
        ]
        assert verdict.failing_arc == failing[0]
        seen_failures += 1


def test_failing_arc_is_the_lowest_of_the_set_formula(fig1):
    # The verdict stops at the first unsaturated arc that does not lift; the set formula collects
    # them all.  Both are read at W(X), where the arcs are examined, and one unit off it.
    rng = random.Random(2605)
    nets = [fig1] * 100 + [random_network(rng) for _ in range(300)]
    failing = 0
    for net in nets:
        state = random_state(rng, net)
        fs = max_flow(net, state)
        for demand in (fs.value, fs.value + 1):
            verdict = verify(net, state, demand)
            assert (verdict.is_dmc, verdict.failing_arc) == verdict_by_set_formula(fs, state, demand)
            failing += verdict.failing_arc is not None
    assert failing > 100


def test_verify_agrees_with_definition_on_full_box(fig1):
    nets = [
        fig1,
        parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n"),
        parse_network(
            "nodes 3 source 1 sink 3\nedge 1 1 2 2\nedge 2 2 3 2\nedge 3 1 3 1\nedge 4 3 2 1\n"
        ),
        parse_network(
            "nodes 4 source 1 sink 4\nedge 1 1 2 1\nedge 2 1 3 2\nedge 3 2 4 2\n"
            "edge 4 3 4 1\nedge 5 2 3 1\nedge 6 4 2 1\n"
        ),
    ]
    for net in nets:
        levels = dmc_levels(net)
        for state in box(net):
            demand = max_flow_value(net, state)
            expected = state in levels.get(demand, ())
            assert verify(net, state, demand).is_dmc is expected
            assert not verify(net, state, demand + 1).is_dmc


def test_flawed_test_never_rejects_a_true_dmc():
    rng = random.Random(402)
    confirmed = 0
    for _ in range(40):
        net = random_network(rng, max_arcs=6)
        for demand, vectors in dmc_levels(net).items():
            for state in vectors:
                assert verify_flawed(max_flow(net, state)).is_dmc
                confirmed += 1
    assert confirmed > 100


def test_flawed_verdict_matches_literal_definition():
    # The published test, read literally: bump each unsaturated arc in turn
    # and accept iff every bumped graph has a source-sink path of positive
    # capacities; the witness is the lowest arc whose bump has none.
    rng = random.Random(403)
    rejections = 0
    for _ in range(300):
        net = random_network(rng)
        for _ in range(10):
            # Zero-heavy states, so that plain reachability fails often.
            state = tuple(rng.randint(0, w) if rng.random() < 0.5 else 0 for w in net.max_capacities)
            failing = [
                arc_id
                for arc_id in sorted(unsaturated_set(net, state))
                if net.sink not in reachable_from_source(net, positive_caps=bump(net, state, arc_id))
            ]
            rng.randint(0, 4)  # the demand the test ignores; drawn so the states stay the same
            verdict = verify_flawed(max_flow(net, state))
            assert verdict.is_dmc is (not failing)
            assert verdict.failing_arc == (failing[0] if failing else None)
            assert verdict.flow_value == max_flow_value(net, state)
            rejections += bool(failing)
    assert rejections > 1000


def test_flawed_verdict_searches_only_at_zero_flow(fig1, residual_tree_calls):
    # A positive max flow accepts without a search; at W(X) = 0 the verdict
    # is classify(fs, 0), whose backward search is the only one.
    rng = random.Random(404)
    nets = [fig1] + [random_network(rng) for _ in range(40)]
    seen = {True: 0, False: 0}
    for net in nets:
        for _ in range(10):
            state = tuple(rng.randint(0, w) if rng.random() < 0.5 else 0 for w in net.max_capacities)
            fs = max_flow(net, state)
            residual_tree_calls.clear()
            verify_flawed(fs)
            assert residual_tree_calls == ([] if fs.value > 0 else [(net.sink, 1)]), state
            seen[fs.value > 0] += 1
    assert min(seen.values()) > 50


def positive_cycles(net, state):
    """Yield every simple directed cycle of arcs with positive capacity in ``state``, as arc ids.

    Each cycle is walked once, from its lowest node.
    """
    out = {v: [a for a in net.arcs if a.tail == v and state[a.index - 1] > 0]
           for v in range(1, net.node_count + 1)}

    def walk(start, node, path, seen):
        for arc in out[node]:
            if arc.head == start:
                yield path + [arc.index]
            elif arc.head > start and arc.head not in seen:
                yield from walk(start, arc.head, path + [arc.index], seen | {arc.head})

    for start in out:
        yield from walk(start, start, [], {start})


def test_flawed_verdict_reads_any_maximum_flow():
    # With W(X) = 0, a circulation round a directed cycle is another maximum
    # flow of X; the flawed verdict read off it must not change.
    rng = random.Random(11)
    circulations = rejections = 0
    for _ in range(3000):
        net = random_network(rng, max_arcs=9)
        state = random_state(rng, net)
        fs = max_flow(net, state)
        if fs.value != 0:
            continue
        failing = [
            arc_id
            for arc_id in sorted(unsaturated_set(net, state))
            if net.sink not in reachable_from_source(net, positive_caps=bump(net, state, arc_id))
        ]
        literal = (not failing, 0, failing[0] if failing else None)
        expected = verify_flawed(fs)
        assert (expected.is_dmc, expected.flow_value, expected.failing_arc) == literal
        for cycle in positive_cycles(net, state):
            residual = list(fs.residual)
            for _ in range(min(state[a - 1] for a in cycle)):
                for a in cycle:
                    residual[2 * a - 2] -= 1
                    residual[2 * a - 1] += 1
                circulating = FlowState(net=net, residual=tuple(residual), value=0)
                assert_feasible(circulating, state)
                assert verify_flawed(circulating) == expected
                circulations += 1
                rejections += not expected.is_dmc
    assert circulations > 300
    assert rejections > 300


def test_residual_route_matches_direct_inequality_for_candidates(fig1):
    # For candidates that pass the flow clause, the per-arc residual answer
    # equals the bumped max-flow comparison, arc by arc.
    for cut in enumerate_min_cuts(fig1):
        for demand in range(0, 10):
            for cand in enumerate_candidates(fig1, cut, demand):
                if max_flow_value(fig1, cand) != demand:
                    continue
                verdict = verify(fig1, cand, demand)
                direct = all(
                    max_flow_value(fig1, bump(fig1, cand, a)) > demand
                    for a in unsaturated_set(fig1, cand)
                )
                assert verdict.is_dmc is direct


def test_verify_rejects_out_of_box_vector(fig1):
    with pytest.raises(ValidationError):
        verify(fig1, (5, 2, 3, 1, 3, 3), 7)
