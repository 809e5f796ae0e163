import random
import tracemalloc

import pytest

from dmincut import (
    Arc,
    EdgeDistribution,
    Network,
    NetworkParseError,
    ValidationError,
    parse_edge_distribution,
    parse_network,
    unsaturated_set,
)
from dmincut.network import MAX_NODE_COUNT, MAX_TOTAL_CAPACITY

from helpers import bump, random_network, random_state, serialize_network, uniform_distribution


def test_parse_fig1(fig1):
    assert fig1.node_count == 4
    assert fig1.arc_count == 6
    assert fig1.source == 1
    assert fig1.sink == 4
    assert fig1.max_capacities == (4, 2, 3, 1, 3, 3)
    assert fig1.arcs[3] == Arc(index=4, tail=3, head=2, max_capacity=1)


def test_parse_zero_capacity_arc_is_valid():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 0\n")
    assert net.max_capacities == (0,)


def test_parse_duplicate_arc_id_rejected():
    text = "nodes 2 source 1 sink 2\nedge 1 1 2 1\nedge 1 2 1 1\n"
    with pytest.raises((NetworkParseError, ValidationError)):
        parse_network(text)


def test_parse_arc_id_gap_rejected():
    text = "nodes 3 source 1 sink 3\nedge 1 1 2 1\nedge 3 2 3 1\n"
    with pytest.raises(ValidationError):
        parse_network(text)


def test_parse_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        parse_network("nodes 2 source 1 sink 2\nedge 1 1 1 1\n")


def test_parse_node_out_of_range_rejected():
    with pytest.raises(ValidationError, match="arc 1"):
        parse_network("nodes 2 source 1 sink 2\nedge 1 1 5 1\n")


def test_parse_source_equals_sink_rejected():
    with pytest.raises(ValidationError):
        parse_network("nodes 2 source 1 sink 1\nedge 1 1 2 1\n")


def test_parse_malformed_line_reports_line_number():
    text = "nodes 2 source 1 sink 2\nedge 1 1 2 banana\n"
    with pytest.raises(NetworkParseError, match="line 2"):
        parse_network(text)
    # A bad token in each edge field; with two, the first is named.
    for edge, message in (
        ("edge x 1 2 1", "arc id must be an integer, got 'x'"),
        ("edge 1 one 2 1", "tail must be an integer, got 'one'"),
        ("edge 1 1 2.0 1", "head must be an integer, got '2.0'"),
        ("edge 1 1 2 banana", "capacity must be an integer, got 'banana'"),
        ("edge 1 1 x y", "head must be an integer, got 'x'"),
    ):
        text = f"nodes 2 source 1 sink 2\n# arcs\n\n{edge}  # the only arc\n"
        with pytest.raises(NetworkParseError) as info:
            parse_network(text)
        assert (info.value.line_no, str(info.value)) == (4, f"line 4: {message}")


def test_parse_unknown_directive_rejected():
    with pytest.raises(NetworkParseError, match="vertex"):
        parse_network("vertex 2\n")


def test_parse_missing_header_rejected():
    with pytest.raises(NetworkParseError):
        parse_network("edge 1 1 2 1\n")


def test_capacity_sum_overflow_rejected():
    big = MAX_TOTAL_CAPACITY // 2 + 1
    text = f"nodes 2 source 1 sink 2\nedge 1 1 2 {big}\nedge 2 1 2 {big}\n"
    with pytest.raises(ValidationError, match="guard"):
        parse_network(text)


def test_serialize_parse_round_trip(fig1):
    assert parse_network(serialize_network(fig1)) == fig1


def test_serialize_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(25):
        net = random_network(rng)
        assert parse_network(serialize_network(net)) == net


def test_saturated_vector_fig1(fig1):
    assert fig1.max_capacities == (4, 2, 3, 1, 3, 3)


def test_saturated_vector_degenerate_cases():
    zero = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 0\nedge 2 2 1 0\n")
    assert zero.max_capacities == (0, 0)
    one_arc = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 5\n")
    assert one_arc.max_capacities == (5,)


def test_bump_increments_single_component(fig1):
    assert bump(fig1, (0, 2, 3, 1, 3, 3), 1) == (1, 2, 3, 1, 3, 3)
    assert bump(fig1, (0, 0, 0, 0, 0, 0), 3) == (0, 0, 1, 0, 0, 0)


def test_bump_saturated_arc_is_flagged(fig1):
    full = fig1.max_capacities
    with pytest.raises(ValidationError, match="maximum"):
        bump(fig1, full, 1)


def test_bump_unknown_arc_rejected(fig1):
    with pytest.raises(ValidationError):
        bump(fig1, fig1.max_capacities, 7)


def test_unsaturated_set_fig1(fig1):
    assert unsaturated_set(fig1, (0, 2, 3, 1, 3, 3)) == {1}
    assert unsaturated_set(fig1, fig1.max_capacities) == set()
    assert unsaturated_set(fig1, (0, 0, 0, 0, 0, 0)) == {1, 2, 3, 4, 5, 6}


def test_bump_shrinks_unsaturated_set():
    rng = random.Random(11)
    for _ in range(50):
        net = random_network(rng)
        state = tuple(rng.randint(0, w) for w in net.max_capacities)
        before = unsaturated_set(net, state)
        for arc_id in before:
            after = bump(net, state, arc_id)
            assert unsaturated_set(net, after) <= before
            diffs = [(i, a, b) for i, (a, b) in enumerate(zip(state, after)) if a != b]
            assert diffs == [(arc_id - 1, state[arc_id - 1], state[arc_id - 1] + 1)]


def test_validate_state_bounds(fig1):
    refusals = [
        ((0, 0, 0), "state vector has length 3, expected 6"),
        ((0,) * 7, "state vector has length 7, expected 6"),
        ((0, -1, 3, 1, 3, 3), "arc 2: capacity -1 outside [0, 2]"),
        ((5, 2, 3, 1, 3, 3), "arc 1: capacity 5 outside [0, 4]"),
        ((0, 2, float("nan"), 1, 3, 3), "arc 3: capacity nan outside [0, 3]"),
        # Two offences: the message names the lower arc.
        ((0, 0, 0, 2, 0, -1), "arc 4: capacity 2 outside [0, 1]"),
    ]
    for state, message in refusals:
        with pytest.raises(ValidationError) as refusal:
            fig1.validate_state(state)
        assert str(refusal.value) == message


def test_validate_state_accepts_exactly_the_box():
    # The arc-by-arc rule, written out: every state it refuses is refused,
    # with the message of its first offence, and every other one passes.
    def first_offence(net, state):
        if len(state) != net.arc_count:
            return f"state vector has length {len(state)}, expected {net.arc_count}"
        for arc_id, (x, w) in enumerate(zip(state, net.max_capacities), start=1):
            if not 0 <= x <= w:
                return f"arc {arc_id}: capacity {x} outside [0, {w}]"
        return None

    rng = random.Random(12)
    nan, inf = float("nan"), float("inf")
    for _ in range(300):
        net = random_network(rng)
        for _ in range(10):
            state = list(random_state(rng, net))
            for _ in range(rng.choice((0, 0, 1, 2))):
                i = rng.randrange(net.arc_count)
                state[i] = rng.choice((-1, net.max_capacities[i] + 1, nan, inf, -inf, 0.5, -0.0))
            extra = rng.choice((0, 0, 0, 0, -1, 1))
            state = tuple(state[:len(state) + extra] if extra < 0 else state + [0] * extra)
            expected = first_offence(net, state)
            if expected is None:
                net.validate_state(state)
            else:
                with pytest.raises(ValidationError) as refusal:
                    net.validate_state(state)
                assert str(refusal.value) == expected, state


def test_distribution_uniform_valid(fig1):
    dist = uniform_distribution(fig1)
    assert len(dist.pmfs) == 6
    assert len(dist.pmfs[0]) == 5


def test_distribution_bad_sum_rejected(fig1):
    pmfs = [tuple(1.0 / (w + 1) for _ in range(w + 1)) for w in fig1.max_capacities]
    pmfs[2] = (0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError, match="arc 3"):
        EdgeDistribution(tuple(pmfs)).validate(fig1)


def test_distribution_negative_mass_rejected(fig1):
    pmfs = [tuple(1.0 / (w + 1) for _ in range(w + 1)) for w in fig1.max_capacities]
    pmfs[0] = (1.2, -0.2, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError, match="negative"):
        EdgeDistribution(tuple(pmfs)).validate(fig1)


@pytest.mark.parametrize("mass", [float("nan"), float("inf"), 1e308])
def test_distribution_nan_and_oversized_mass_rejected(fig1, mass):
    pmfs = [tuple(1.0 / (w + 1) for _ in range(w + 1)) for w in fig1.max_capacities]
    pmfs[3] = (0.5, mass)
    with pytest.raises(ValidationError, match="arc 4: probability mass is negative, NaN or above 1"):
        EdgeDistribution(tuple(pmfs)).validate(fig1)


def test_parse_prob_non_number_reports_line_number(fig1_text, fig1):
    text = fig1_text + "prob 1 0.2 0.2 0.2 0.2 0.2\n\nprob 2 0.5 pear 0.5\n"
    with pytest.raises(NetworkParseError) as info:
        parse_edge_distribution(text, fig1)
    line_no = len(fig1_text.splitlines()) + 3
    assert str(info.value) == f"line {line_no}: probabilities must be numbers"


def test_parse_prob_nan_rejected():
    text = "nodes 2 source 1 sink 2\nedge 1 1 2 1\nprob 1 0.5 nan\n"
    with pytest.raises(ValidationError, match="NaN"):
        parse_edge_distribution(text, parse_network(text))


def test_node_count_guard_refuses_without_allocating_per_node():
    text = f"nodes {MAX_NODE_COUNT + 1} source 1 sink 2\nedge 1 1 2 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="MAX_NODE_COUNT"):
            parse_network(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # one entry per node would take megabytes


def test_distribution_wrong_length_rejected(fig1):
    pmfs = [tuple(1.0 / (w + 1) for _ in range(w + 1)) for w in fig1.max_capacities]
    pmfs[3] = (1.0,)
    with pytest.raises(ValidationError, match="arc 4"):
        EdgeDistribution(tuple(pmfs)).validate(fig1)


def test_parse_prob_lines(fig1_prob):
    net, dist = fig1_prob
    assert dist is not None
    assert dist.pmfs[3] == (0.5, 0.5)
    # Round trip through the serializer.
    text = serialize_network(net, dist)
    assert parse_edge_distribution(text, parse_network(text)) == dist


def test_parse_prob_absent_returns_none(fig1_text, fig1):
    assert parse_edge_distribution(fig1_text, fig1) is None


def test_parse_prob_partial_coverage_rejected(fig1_text, fig1):
    text = fig1_text + "prob 1 0.2 0.2 0.2 0.2 0.2\n"
    with pytest.raises(ValidationError, match="missing pmf"):
        parse_edge_distribution(text, fig1)


def test_parse_prob_wrong_arity_rejected(fig1_text, fig1):
    text = fig1_text + "".join(
        f"prob {a.index} " + " ".join(["0.5"] * 2) + "\n" for a in fig1.arcs
    )
    with pytest.raises(ValidationError):
        parse_edge_distribution(text, fig1)


def test_network_is_hashable_value(fig1, fig1_text):
    # Frozen dataclasses compare by value; reparsing yields an equal network.
    assert parse_network(fig1_text) == fig1


def test_source_and_sink_need_not_be_1_and_n():
    # The file declares the endpoints explicitly; node 1 as sink is fine.
    net = parse_network(
        "nodes 3 source 3 sink 1\nedge 1 3 2 2\nedge 2 2 1 2\nedge 3 3 1 1\n"
    )
    assert (net.source, net.sink) == (3, 1)
    from dmincut import enumerate_min_cuts, max_flow

    assert max_flow(net, (2, 2, 1)).value == 3
    assert enumerate_min_cuts(net) == [(1, 3), (2, 3)]
