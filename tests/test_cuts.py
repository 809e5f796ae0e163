import itertools
import random
from dataclasses import replace

import pytest

from dmincut import (
    Arc,
    Network,
    NetworkParseError,
    ValidationError,
    brute_force_dmcs,
    enumerate_min_cuts,
    format_cuts,
    is_min_cut,
    max_flow,
    parse_cuts,
)
from dmincut.cli import main
from dmincut.network import parse_network

from conftest import FIXTURES
from helpers import grid_network, min_cuts_by_node_subsets, min_cuts_by_subsets, random_network


def test_fig1_min_cuts(fig1):
    cuts = enumerate_min_cuts(fig1)
    assert cuts == [(1, 2, 3), (2, 3, 5), (3, 5, 6), (1, 3, 4, 6)]
    assert (1, 3, 4, 6) in cuts


def test_fig1_cuts_match_subset_oracle(fig1):
    assert enumerate_min_cuts(fig1) == min_cuts_by_subsets(fig1)


def test_is_min_cut_fig1(fig1, fig1_text):
    cuts = enumerate_min_cuts(fig1)
    assert all(is_min_cut(fig1, cut) for cut in cuts)
    assert is_min_cut(fig1, (1, 3, 4, 6))
    # Not a cut: 1 -> 3 -> 2 -> 4 survives the removal of {1, 3, 6}.  Refusals
    # are not recorded, so the second call is refused by a search too.
    assert [is_min_cut(fig1, (1, 3, 6)) for _ in range(2)] == [False, False]
    # A cut but not minimal, and the empty set, which is no cut while the sink is reachable.
    assert not is_min_cut(fig1, (1, 2, 3, 4, 5, 6))
    assert not is_min_cut(fig1, ())
    # The record of proven cuts belongs to one network object: with arc 4
    # turned to run 2 -> 3, {1, 3, 6} already cuts and {1, 3, 4, 6} is refused.
    flipped = replace(fig1, arcs=tuple(
        replace(a, tail=a.head, head=a.tail) if a.index == 4 else a for a in fig1.arcs
    ))
    assert not is_min_cut(flipped, (1, 3, 4, 6))
    # And it is no part of the network's value.
    fresh = parse_network(fig1_text)
    assert fig1 == fresh and hash(fig1) == hash(fresh) and repr(fig1) == repr(fresh)


def test_is_min_cut_rejects_unknown_arc(fig1):
    with pytest.raises(ValidationError):
        is_min_cut(fig1, (1, 9))


def test_is_min_cut_refuses_a_repeated_arc_id(fig1):
    # {1, 2, 3} is in the record of proven cuts; the repeat is refused before that lookup.
    assert is_min_cut(fig1, (1, 2, 3))
    with pytest.raises(ValidationError, match=r"^\(1, 2, 3, 3\) has a repeated arc id$"):
        is_min_cut(fig1, (1, 2, 3, 3))
    # Arc ids outside the network are refused first.
    with pytest.raises(ValidationError, match=r"^arc id 9 outside \[1, 6\]$"):
        is_min_cut(fig1, (3, 9, 9))


def test_single_arc_network():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    assert enumerate_min_cuts(net) == [(1,)]


def test_disconnected_network_has_the_empty_cut():
    # The source cannot reach the sink, so the empty set is the one minimal cut, as the arc-subset filter says.
    net = parse_network("nodes 3 source 1 sink 3\nedge 1 1 2 1\nedge 2 3 2 1\n")
    assert enumerate_min_cuts(net) == min_cuts_by_subsets(net) == [()]
    assert format_cuts([()]) == "cut 1\n"
    # A fresh network object has no record of proven cuts, so these run the search.
    fresh = parse_network("nodes 3 source 1 sink 3\nedge 1 1 2 1\nedge 2 3 2 1\n")
    assert is_min_cut(fresh, ())
    assert parse_cuts(format_cuts([()]), fresh) == [()]
    with pytest.raises(NetworkParseError, match="^line 1: expected 'cut <id> <arc_id> ...'$"):
        parse_cuts("cut\n", fresh)


def test_enumeration_matches_subset_oracle_on_random_networks():
    rng = random.Random(201)
    for _ in range(30):
        net = random_network(rng)
        cuts = enumerate_min_cuts(net)
        expected = min_cuts_by_subsets(net)
        assert cuts == expected
        assert len(set(cuts)) == len(cuts)
        # A minimal cut is the zero set of a 0-MC of the unit-capacity network.
        unit = replace(net, arcs=tuple(replace(a, max_capacity=1) for a in net.arcs))
        zero_sets = [tuple(a for a, x in enumerate(dmc, start=1) if x == 0)
                     for dmc in brute_force_dmcs(unit, 0)]
        assert cuts == sorted(zero_sets, key=lambda c: (len(c), c))
        expected = set(expected)
        ids = [a.index for a in net.arcs]
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                assert is_min_cut(net, subset) == (tuple(sorted(subset)) in expected)


def test_enumeration_matches_subset_oracle_up_to_twelve_arcs():
    rng = random.Random(203)
    for _ in range(6):
        net = random_network(rng, max_nodes=6, max_arcs=12, max_cap=2)
        assert enumerate_min_cuts(net) == min_cuts_by_subsets(net)


def test_enumeration_matches_the_subset_filters_on_a_few_hundred_networks_and_the_grids():
    rng = random.Random(2604)
    shapes = dict.fromkeys(("anti-parallel", "into the source", "out of the sink"), 0)
    for _ in range(300):
        net = random_network(rng)
        expected = min_cuts_by_subsets(net)
        assert enumerate_min_cuts(net) == expected == min_cuts_by_node_subsets(net)
        # A fresh copy holds no proven cut, so is_min_cut searches every subset.
        fresh, expected = replace(net), set(expected)
        ids = [a.index for a in net.arcs]
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                assert is_min_cut(fresh, subset) == (subset in expected)
        ends = {(a.tail, a.head) for a in net.arcs}
        shapes["anti-parallel"] += any((h, t) in ends for t, h in ends)
        shapes["into the source"] += any(h == net.source for _, h in ends)
        shapes["out of the sink"] += any(t == net.sink for t, _ in ends)
    assert min(shapes.values()) >= 30, shapes
    # Too many arcs to filter every arc subset: every node subset instead.
    for rows, cols in ((2, 6), (3, 4), (4, 4)):
        net = grid_network(rows, cols, itertools.repeat(1))
        assert enumerate_min_cuts(net) == min_cuts_by_node_subsets(net)


def test_grid_4x4_cut_count_and_no_cut_contains_another():
    # The perfbench 4x4 grid shape with unit capacities.
    net = grid_network(4, 4, itertools.repeat(1))
    cuts = enumerate_min_cuts(net)
    assert len(cuts) == 1160
    sets = [frozenset(c) for c in cuts]
    assert not any(other < c for c in sets for other in sets)


def test_cut_capacity_bounds_max_flow():
    rng = random.Random(202)
    for _ in range(25):
        net = random_network(rng)
        full = net.max_capacities
        value = max_flow(net, full).value
        for cut in enumerate_min_cuts(net):
            assert sum(full[a - 1] for a in cut) >= value


def test_cut_file_round_trip(fig1):
    cuts = enumerate_min_cuts(fig1)
    text = format_cuts(cuts)
    assert text.splitlines()[3] == "cut 4 1 3 4 6"
    assert parse_cuts(text, fig1) == cuts


def test_cut_file_partial_list_allowed(fig1):
    assert parse_cuts("cut 1 2 3 5\n", fig1) == [(2, 3, 5)]


def test_cut_file_invalid_cut_rejected(fig1, capsys, tmp_path):
    for text, cut in (("cut 1 1 3 6\n", "(1, 3, 6)"), ("cut 1\n", "()")):
        with pytest.raises(ValidationError, match="not a minimal cut"):
            parse_cuts(text, fig1)
        for command in ("solve", "check-flaw"):
            assert refusal_on_the_command_line(capsys, tmp_path, text, command) == (
                2, f"error: line 1: {cut} is not a minimal cut\n"
            )


def test_cut_file_duplicate_rejected(fig1):
    with pytest.raises(ValidationError, match="duplicate"):
        parse_cuts("cut 1 2 3 5\ncut 2 5 3 2\n", fig1)


def refusal_on_the_command_line(capsys, tmp_path, text, command="solve"):
    cuts = tmp_path / "bad.cuts"
    cuts.write_text(text)
    code = main([command, str(FIXTURES / "fig1.net"), "--demand", "7", "--cuts", str(cuts)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_cut_file_arc_id_out_of_range_names_its_line(fig1, capsys, tmp_path):
    text = "cut 1 1 2 3\ncut 2 99\n"
    with pytest.raises(ValidationError, match=r"^line 2: arc id 99 outside \[1, 6\]$"):
        parse_cuts(text, fig1)
    assert refusal_on_the_command_line(capsys, tmp_path, text) == (
        2, "error: line 2: arc id 99 outside [1, 6]\n"
    )


def test_cut_file_non_integer_cut_id_rejected(fig1, capsys, tmp_path):
    text = "cut x 1 2 3\n"
    with pytest.raises(NetworkParseError, match=r"^line 1: cut id must be an integer, got 'x'$"):
        parse_cuts(text, fig1)
    assert refusal_on_the_command_line(capsys, tmp_path, text) == (
        2, "error: line 1: cut id must be an integer, got 'x'\n"
    )


def test_cut_file_empty_rejected(fig1):
    with pytest.raises(ValidationError, match="no cuts"):
        parse_cuts("# nothing here\n", fig1)


def test_fig1_orientation_is_uniquely_forced(fig1):
    """Flipping any arc subset breaks minimality of the {1,3,4,6} cut.

    The benchmark drawing leaves directions implicit; requiring that
    {e1,e3,e4,e6} be a *minimal* 1-4 cut pins every arrow.  This
    re-derives the fixture's orientation comment exhaustively.
    """
    consistent = []
    for mask in range(1 << fig1.arc_count):
        arcs = []
        for a in fig1.arcs:
            if mask >> (a.index - 1) & 1:
                arcs.append(Arc(index=a.index, tail=a.head, head=a.tail, max_capacity=a.max_capacity))
            else:
                arcs.append(a)
        variant = Network(node_count=4, arcs=tuple(arcs), source=1, sink=4)
        if is_min_cut(variant, (1, 3, 4, 6)):
            consistent.append(mask)
    assert consistent == [0]
    # And the pinned orientation reproduces the benchmark flow values.
    assert max_flow(fig1, (1, 2, 3, 1, 3, 3)).value == 6
