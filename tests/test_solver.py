import json
import math
import random
import time
from dataclasses import asdict, replace

import pytest

from dmincut import (
    OperationCounters,
    SolveReport,
    StateSpaceLimitError,
    ValidationError,
    audit_complexity,
    brute_force_dmcs,
    count_candidates,
    dmc_levels,
    enumerate_candidates,
    enumerate_min_cuts,
    find_all_dmcs,
    format_cuts,
    max_flow,
    oracle,
    parse_cuts,
    unsaturated_set,
    verify,
)
from dmincut import candidates as candidates_module
from dmincut import cuts as cuts_module
from dmincut import solver as solver_module
from dmincut.network import parse_network

from conftest import REPO_ROOT
from helpers import bump, grid_network, random_network, reference_dmcs, verdict_by_set_formula


def test_fig1_demand7_excludes_benchmark_candidate(fig1):
    report = find_all_dmcs(fig1, 7, enumerate_min_cuts(fig1))
    assert (0, 2, 3, 1, 3, 3) not in report.dmcs
    assert report.dmcs == (
        (2, 2, 3, 1, 3, 3),
        (4, 1, 3, 1, 3, 3),
        (4, 2, 2, 1, 3, 3),
        (4, 2, 3, 1, 2, 3),
        (4, 2, 3, 1, 3, 1),
    )
    assert report.dmcs == brute_force_dmcs(fig1, 7)


def test_fig1_demand8_is_exactly_the_saturated_vector(fig1):
    report = find_all_dmcs(fig1, 8, enumerate_min_cuts(fig1))
    assert report.dmcs == ((4, 2, 3, 1, 3, 3),)
    assert not report.infeasible_demand


def test_fig1_demand0_matches_oracle(fig1):
    report = find_all_dmcs(fig1, 0, enumerate_min_cuts(fig1))
    assert report.dmcs == brute_force_dmcs(fig1, 0)
    # The 0-MCs zero out one minimal cut each; the all-zero vector is not
    # maximal and must be absent.
    assert (0, 0, 0, 0, 0, 0) not in report.dmcs
    assert report.dmcs == (
        (0, 0, 0, 1, 3, 3),
        (0, 2, 0, 0, 3, 0),
        (4, 0, 0, 1, 0, 3),
        (4, 2, 0, 1, 0, 0),
    )


def test_infeasible_demand_flagged(fig1):
    cuts = enumerate_min_cuts(fig1)
    report = find_all_dmcs(fig1, 9, cuts)
    assert report.dmcs == ()
    assert report.infeasible_demand
    assert "exceeds the max flow 8" in report.diagnostic
    # Past every cut's total capacity not even candidates exist.
    report12 = find_all_dmcs(fig1, 12, cuts)
    assert report12.counters.candidates_total == 0
    assert report12.infeasible_demand


def test_feasible_demands_never_flagged(fig1):
    cuts = enumerate_min_cuts(fig1)
    for demand in range(0, 9):
        report = find_all_dmcs(fig1, demand, cuts)
        assert not report.infeasible_demand
        assert report.diagnostic is None
        assert report.dmcs  # every feasible level has at least one d-MC


def test_partial_cut_list_yields_subset(fig1):
    # With only the cut {1,2,3} at demand 8 every candidate fails, so the
    # result is empty yet the demand is feasible: no infeasibility flag.
    report = find_all_dmcs(fig1, 8, [(1, 2, 3)])
    assert report.dmcs == ()
    assert not report.infeasible_demand
    full = find_all_dmcs(fig1, 7, enumerate_min_cuts(fig1))
    partial = find_all_dmcs(fig1, 7, [(1, 3, 4, 6)])
    assert set(partial.dmcs) <= set(full.dmcs)


def unverified_candidates(net, cut_list, demand, report, verified):
    """The candidates ``find_all_dmcs`` gave no verdict, given the states it passed to its leaf verdict.

    The verified states must be the cuts' candidate streams in order with
    some candidates left out, since the search visits each cut's leaves in
    stream order.  Each unverified candidate must be no d-MC by the
    oracle, and the counters must account for them: all of
    ``below_demand``, each with W < d, and the part of ``not_maximal``
    that no leaf verdict rejected.
    """
    leaves = iter(verified)
    expected = next(leaves, None)
    unverified = []
    for cut in cut_list:
        for cand in enumerate_candidates(net, cut, demand):
            if cand == expected:
                expected = next(leaves, None)
            else:
                unverified.append(cand)
    assert expected is None, f"{expected} is no candidate left in the streams"
    c = report.counters
    rejected_leaves = len(verified) - c.accepted - c.duplicates_removed
    assert len(unverified) == c.below_demand + c.not_maximal - rejected_leaves
    values = [oracle.max_flow_value(net, cand) for cand in unverified]
    assert sum(value < demand for value in values) >= c.below_demand
    for cand, value in zip(unverified, values):
        assert value != demand or any(
            oracle.max_flow_value(net, bump(net, cand, arc_id)) == demand
            for arc_id in unsaturated_set(net, cand)
        ), f"{cand} is a {demand}-MC"
    return unverified


def test_solve_verifies_only_search_leaves_on_fig1(fig1, leaf_calls, max_flow_calls):
    # The search passes each surviving leaf to its leaf verdict with the
    # flow it carries, so no candidate gets a max flow.  A d-MC proves the demand
    # feasible, so the saturated max flow of the infeasibility diagnostic
    # runs only when none was found.
    cuts = enumerate_min_cuts(fig1)
    counts = []
    for demand, cut_list, found in [(d, cuts, True) for d in range(9)] + [
        (9, cuts, False), (12, cuts, False), (8, [(1, 2, 3)], False),
    ]:
        leaf_calls.clear()
        max_flow_calls.clear()
        report = find_all_dmcs(fig1, demand, cut_list)
        assert bool(report.dmcs) is found
        unverified_candidates(fig1, cut_list, demand, report, leaf_calls)
        assert max_flow_calls == ([] if found else [fig1.max_capacities])
        counts.append(len(leaf_calls))
        assert report.infeasible_demand is (demand > 8)
    # d = 0..9, then d = 12 (no candidate) and the lone cut {1, 2, 3} at d = 8.
    assert counts == [4, 13, 27, 41, 42, 35, 21, 9, 2, 0, 0, 0]


def seed1_grid():
    """The seed-1 4x4 benchmark grid (n=18, m=32) with its stored list of all 1,160 cuts."""
    rng = random.Random("grid-4x4:1")
    net = grid_network(4, 4, [rng.randint(1, 3) for _ in range(32)])
    return net, parse_cuts((REPO_ROOT / "perfbench" / "data" / "grid-4x4.cuts").read_text(), net)


def test_grid_search_matches_the_reference_with_pinned_leaves(max_flow_calls, leaf_calls):
    net, cuts = seed1_grid()
    pinned = {
        2: (37_475, 2_877, 14_952, (4_905, 29_521, 2_877, 172)),
        3: (113_053, 950, 10_204, (29_500, 82_507, 950, 96)),
    }
    for demand in range(4):
        leaf_calls.clear()
        max_flow_calls.clear()
        report = find_all_dmcs(net, demand, cuts)
        assert max_flow_calls == []
        c = report.counters
        if demand in pinned:
            candidates, dmcs, leaves, partition = pinned[demand]
            assert (c.candidates_total, len(report.dmcs), len(leaf_calls)) == (candidates, dmcs, leaves)
            assert (c.below_demand, c.not_maximal, c.accepted, c.duplicates_removed) == partition
        assert (report.dmcs, c.duplicates_removed) == reference_dmcs(net, demand, cuts)


def test_search_counts_are_pinned(fig1, residual_tree_calls):
    # A step looks its arc up in the source tree and the sink tree its node keeps and pushes one
    # unit along them, so the searches are the trees a push emptied a slot of, and the ones a node
    # never needed before.  On the grid, 26,610, 58,226 and 67,236 at d = 1..3 when every step ran
    # an augmenting search and every leaf two more.
    net, cuts = seed1_grid()
    counts = []
    for demand in range(4):
        residual_tree_calls.clear()
        find_all_dmcs(net, demand, cuts)
        counts.append(len(residual_tree_calls))
    assert counts == [2_320, 10_167, 26_022, 34_791]
    cuts = enumerate_min_cuts(fig1)
    counts = []
    for demand in range(10):
        residual_tree_calls.clear()
        find_all_dmcs(fig1, demand, cuts)
        counts.append(len(residual_tree_calls))
    # No 9-MC exists, so d = 9 counts the searches of the diagnostic's saturated max flow too.
    assert counts == [8, 8, 11, 20, 28, 34, 34, 27, 19, 15]


def test_each_cut_builds_one_table_after_every_cut_passed_the_guard(fig1, monkeypatch, residual_tree_calls):
    real = solver_module.composition_table
    built = []

    def recording(caps, total):
        built.append(caps)
        return real(caps, total)

    monkeypatch.setattr(solver_module, "composition_table", recording)
    cuts = enumerate_min_cuts(fig1)
    report = find_all_dmcs(fig1, 7, cuts)
    # The table the bound is read from is the one the search reads its pruned subtrees from.
    assert built == [[fig1.max_capacities[a - 1] for a in cut] for cut in cuts]
    assert report.counters.candidates_per_cut == [count_candidates(fig1, cut, 7) for cut in cuts]
    assert audit_complexity(report)
    # At d = 7 the tables hold 6, 3, 6 and 16 cells.  A guard that refuses only the last cut
    # refuses it before any table is built or any tree is searched for the first three.
    built.clear()
    residual_tree_calls.clear()
    monkeypatch.setattr(candidates_module, "COMPOSITION_WORK_GUARD", 15)
    with pytest.raises(StateSpaceLimitError, match="16 cells"):
        find_all_dmcs(fig1, 7, cuts)
    assert built == [] and residual_tree_calls == []


def test_candidate_search_guard_refuses_before_the_cut_that_passes_it(fig1, monkeypatch, residual_tree_calls):
    # 60 parallel unit arcs at demand 30: a counting table of 1,800 cells, but C(60, 30) candidates,
    # every one a d-MC.  The solve is refused before any tree is searched.
    net = parse_network("nodes 2 source 1 sink 2\n" + "".join(f"edge {a} 1 2 1\n" for a in range(1, 61)))
    cuts = enumerate_min_cuts(net)
    residual_tree_calls.clear()
    started = time.perf_counter()
    with pytest.raises(StateSpaceLimitError, match=f"{math.comb(60, 30)} candidates.*CANDIDATE_SEARCH_GUARD"):
        find_all_dmcs(net, 30, cuts)
    assert time.perf_counter() - started < 1.0 and residual_tree_calls == []
    # The guard charges each cut's count to a running total: on fig1 at d = 7 the cuts count
    # 6, 3, 6 and 23.  A limit of 37 lets the first three cuts through and refuses the last before
    # its search; at 38 the whole solve passes.
    cuts = enumerate_min_cuts(fig1)
    assert [count_candidates(fig1, cut, 7) for cut in cuts] == [6, 3, 6, 23]
    monkeypatch.setattr(solver_module, "CANDIDATE_SEARCH_GUARD", 37)
    searched = []
    real = solver_module._search_cut
    monkeypatch.setattr(solver_module, "_search_cut", lambda net, cut, *rest: searched.append(cut) or real(net, cut, *rest))
    with pytest.raises(StateSpaceLimitError, match="cuts 1..4 of 4 have 38 candidates"):
        find_all_dmcs(fig1, 7, cuts)
    assert searched == cuts[:3]
    monkeypatch.setattr(solver_module, "CANDIDATE_SEARCH_GUARD", 38)
    assert find_all_dmcs(fig1, 7, cuts).total_candidate_bound == 38


def sweep_networks():
    """The acceptance sweep's 200 networks (seed 8415), each with its minimal cuts."""
    rng = random.Random(8415)
    for _ in range(200):
        net = random_network(rng, max_nodes=6, max_arcs=8, max_cap=3)
        yield net, enumerate_min_cuts(net)


def test_sweep_search_matches_the_reference_and_leaves_no_dmc_unverified(leaf_calls):
    unverified = below = 0
    for net, cuts in sweep_networks():
        for demand in range(oracle.max_flow_value(net, net.max_capacities) + 2):
            leaf_calls.clear()
            report = find_all_dmcs(net, demand, cuts)
            unverified += len(unverified_candidates(net, cuts, demand, report, leaf_calls))
            below += report.counters.below_demand
            assert (report.dmcs, report.counters.duplicates_removed) == reference_dmcs(net, demand, cuts)
    # Both prunes are exercised: 828 and 606 when this was written.
    assert unverified > 800 and below > 600


@pytest.fixture
def leaf_verdicts(monkeypatch):
    """``(net, state, demand, verdict)`` of every leaf the solver's leaf verdict decides."""
    real = solver_module._leaf_is_dmc
    verdicts = []

    def recording(net, state, demand, *rest):
        verdicts.append((net, state, demand, real(net, state, demand, *rest)))
        return verdicts[-1][-1]

    monkeypatch.setattr(solver_module, "_leaf_is_dmc", recording)
    return verdicts


def test_leaf_verdicts_match_verify_from_scratch_and_the_set_formula(leaf_verdicts):
    net, cuts = seed1_grid()
    find_all_dmcs(net, 1, cuts)
    for net, cuts in sweep_networks():
        for demand in range(oracle.max_flow_value(net, net.max_capacities) + 2):
            find_all_dmcs(net, demand, cuts)
    for net, state, demand, verdict in leaf_verdicts:
        assert verify(net, state, demand).is_dmc is verdict, (state, demand)
        assert verdict_by_set_formula(max_flow(net, state), state, demand)[0] is verdict, (state, demand)
    # Both outcomes are common: 3,543 d-MC leaves and 5,327 others on the grid, 2,077 and 415 on the sweep.
    accepted = sum(verdict for *_, verdict in leaf_verdicts)
    assert (len(leaf_verdicts), accepted) == (8_870 + 2_492, 3_543 + 2_077)


def test_verify_decides_only_the_leaves_the_tree_check_passes(fig1, monkeypatch):
    # A leaf with an unsaturated cut arc that does not lift is rejected in the search, so the public
    # verify sees only d-MCs: the accepted ones and the duplicates another cut found first.
    real = solver_module.verify
    verdicts = []
    monkeypatch.setattr(solver_module, "verify", lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    net, grid_cuts = seed1_grid()
    runs = [(fig1, d, enumerate_min_cuts(fig1)) for d in range(9)] + [(net, d, grid_cuts) for d in (2, 3)]
    for net, demand, cuts in runs:
        verdicts.clear()
        c = find_all_dmcs(net, demand, cuts).counters
        assert len(verdicts) == c.accepted + c.duplicates_removed, (demand, len(verdicts))
        assert all(verdict.is_dmc for verdict in verdicts)


def diamond(cap4):
    """Arcs 1 and 2 leave the source for nodes 2 and 3; arcs 3 and 4 join those to the sink."""
    return parse_network(f"nodes 4 source 1 sink 4\nedge 1 1 2 2\nedge 2 1 3 2\nedge 3 2 4 2\nedge 4 3 4 {cap4}\n")


def assert_matches_the_reference(net, demands):
    cuts = enumerate_min_cuts(net)
    for demand in demands:
        report = find_all_dmcs(net, demand, cuts)
        assert (report.dmcs, report.counters.duplicates_removed) == reference_dmcs(net, demand, cuts)
        assert audit_complexity(report)


def partition(report):
    c = report.counters
    return c.below_demand, c.not_maximal, c.accepted, c.duplicates_removed


def test_a_rest_that_fills_the_free_arcs_reaches_its_leaf(leaf_calls):
    # On the cut {1, 2} at d = 3, arc 1 at 1 leaves a rest of 2, all that arc 2 holds.
    net = diamond(2)
    report = find_all_dmcs(net, 3, [(1, 2)])
    assert leaf_calls == [(1, 2, 2, 2), (2, 1, 2, 2)]
    assert partition(report) == (0, 0, 2, 0)
    assert partition(find_all_dmcs(net, 3, enumerate_min_cuts(net))) == (0, 0, 4, 4)
    assert_matches_the_reference(net, range(6))


def test_a_rest_that_fills_the_free_arcs_but_not_the_flow_is_one_below_demand(leaf_calls):
    # As above, but arc 4 carries 1: (1, 2, 2, 1) has W = 2 < 3, and (2, 1, 2, 1) is not maximal.
    net = diamond(1)
    report = find_all_dmcs(net, 3, [(1, 2)])
    assert leaf_calls == [(2, 1, 2, 1)]
    assert partition(report) == (1, 1, 0, 0)
    assert partition(find_all_dmcs(net, 3, enumerate_min_cuts(net))) == (2, 2, 1, 1)
    assert_matches_the_reference(net, range(6))


def test_a_wide_parallel_cut_lists_every_candidate(leaf_calls):
    # One cut of 40 unit arcs, where every candidate is a d-MC.  At low demand a leaf is reached
    # with most arcs unassigned, and the leaf sets them to 0; at 39 and 40 the rest fills the free
    # arcs, and the search raises them one by one.
    net = parse_network("nodes 2 source 1 sink 2\n" + "".join(f"edge {a} 1 2 1\n" for a in range(1, 41)))
    for demand, leaves in [(0, 1), (1, 40), (2, 780), (39, 40), (40, 1)]:
        leaf_calls.clear()
        report = find_all_dmcs(net, demand, [tuple(range(1, 41))])
        assert partition(report) == (0, 0, leaves, 0)
        assert sorted(leaf_calls) == list(report.dmcs)
    assert_matches_the_reference(net, [0, 1, 2, 39, 40])


PARALLEL = f"nodes 2 source 1 sink 2\nedge 1 1 2 {10**12}\nedge 2 1 2 {10**12}\n"
SERIES = f"nodes 3 source 1 sink 3\nedge 1 1 2 {10**12}\nedge 2 2 3 {10**12}\n"


@pytest.mark.parametrize(
    "text, demand, dmcs",
    [
        # One unit to spare: each arc of the one cut descends to 10^12 - 1 in one push.
        (PARALLEL, 2 * 10**12 - 1, [(10**12 - 1, 10**12), (10**12, 10**12 - 1)]),
        # Each cut's arc is raised to the demand in one push along the other arc.
        (SERIES, 10**12 - 1, [(10**12 - 1, 10**12), (10**12, 10**12 - 1)]),
        # Here that push empties the other arc, and both cuts reach the saturated vector.
        (SERIES, 10**12, [(10**12, 10**12)]),
    ],
    ids=["parallel", "series-below", "series-full"],
)
def test_huge_capacities_are_raised_by_a_few_pushes(monkeypatch, text, demand, dmcs):
    real = solver_module.push
    pushes = []

    def counting(net, residual, slot, units, trees):
        pushes.append(units)
        return real(net, residual, slot, units, trees)

    monkeypatch.setattr(solver_module, "push", counting)
    net = parse_network(text)
    report = find_all_dmcs(net, demand, enumerate_min_cuts(net))
    assert list(report.dmcs) == dmcs
    assert audit_complexity(report)
    # One push per descent and per step: 4 on the parallel pair, one per cut in series.
    assert len(pushes) <= 4


def test_counters_account_every_candidate(fig1):
    cuts = enumerate_min_cuts(fig1)
    report = find_all_dmcs(fig1, 7, cuts)
    c = report.counters
    assert c.candidates_total == sum(c.candidates_per_cut)
    assert c.candidates_per_cut == [count_candidates(fig1, cut, 7) for cut in cuts]
    assert c.candidates_total == report.total_candidate_bound
    assert report.max_candidates_per_cut == max(c.candidates_per_cut)
    # Each candidate is in one class, by the reason the search used.
    verdicts = [verify(fig1, cand, 7) for cut in cuts for cand in enumerate_candidates(fig1, cut, 7)]
    assert c.accepted == len(report.dmcs)
    assert c.accepted + c.duplicates_removed == sum(v.is_dmc for v in verdicts)
    assert c.below_demand + c.not_maximal == sum(not v.is_dmc for v in verdicts)
    assert c.below_demand <= sum(v.flow_value < 7 for v in verdicts)
    assert (c.below_demand, c.not_maximal, c.accepted, c.duplicates_removed) == (20, 13, 5, 0)


def test_dedup_bookkeeping_explicit_duplicate():
    net = parse_network("nodes 3 source 1 sink 3\nedge 1 1 2 2\nedge 2 2 3 2\n")
    cuts = enumerate_min_cuts(net)
    assert cuts == [(1,), (2,)]
    report = find_all_dmcs(net, 2, cuts)
    # Both cuts emit the saturated vector; it is kept once.
    assert report.dmcs == ((2, 2),)
    assert report.counters.duplicates_removed == 1


def test_dedup_invariant_against_recount(fig1):
    cuts = enumerate_min_cuts(fig1)
    for demand in range(0, 9):
        report = find_all_dmcs(fig1, demand, cuts)
        verified_true = sum(
            1
            for cut in cuts
            for cand in enumerate_candidates(fig1, cut, demand)
            if verify(fig1, cand, demand).is_dmc
        )
        assert len(report.dmcs) + report.counters.duplicates_removed == verified_true


def test_every_listed_vector_verifies(fig1):
    cuts = enumerate_min_cuts(fig1)
    for demand in range(0, 9):
        report = find_all_dmcs(fig1, demand, cuts)
        assert list(report.dmcs) == sorted(set(report.dmcs))
        for vector in report.dmcs:
            assert verify(fig1, vector, demand).is_dmc


def test_matches_oracle_on_random_networks():
    rng = random.Random(501)
    for _ in range(25):
        net = random_network(rng)
        cuts = enumerate_min_cuts(net)
        levels = dmc_levels(net)
        top = max(levels)
        for demand in range(0, top + 2):
            report = find_all_dmcs(net, demand, cuts)
            assert report.dmcs == tuple(sorted(levels.get(demand, ())))
            assert audit_complexity(report)


def test_determinism_including_counters(fig1):
    cuts = enumerate_min_cuts(fig1)
    a = find_all_dmcs(fig1, 7, cuts)
    b = find_all_dmcs(fig1, 7, cuts)
    assert a == b
    assert a.to_json() == b.to_json()


def test_report_json_round_trip(fig1):
    report = find_all_dmcs(fig1, 7, enumerate_min_cuts(fig1))
    data = json.loads(report.to_json())
    again = SolveReport(**{**data, "dmcs": tuple(map(tuple, data["dmcs"])),
                           "counters": OperationCounters(**data["counters"])})
    assert again == report


def test_report_schema_is_pinned(fig1):
    # The keys come from the dataclass fields, so a new field changes the
    # documented JSON schema; this keeps that change deliberate.
    report = find_all_dmcs(fig1, 7, enumerate_min_cuts(fig1))
    fields = asdict(report)
    assert list(fields) == [
        "demand", "cut_count", "arc_count", "max_candidates_per_cut", "total_candidate_bound",
        "dmcs", "counters", "infeasible_demand", "diagnostic",
    ]
    assert list(fields["counters"]) == [
        "candidates_total", "candidates_per_cut", "below_demand", "not_maximal", "accepted",
        "duplicates_removed",
    ]
    data = json.loads(report.to_json())
    assert list(data) == sorted(fields)
    assert list(data["counters"]) == sorted(fields["counters"])
    assert data["dmcs"][0] == [2, 2, 3, 1, 3, 3]


def test_preconditions(fig1):
    cuts = enumerate_min_cuts(fig1)
    with pytest.raises(ValidationError):
        find_all_dmcs(fig1, -1, cuts)
    with pytest.raises(ValidationError):
        find_all_dmcs(fig1, 3, [])
    # The set {1, 2, 3} is a minimal cut, but listing arc 3 twice makes the stream walk it twice.
    with pytest.raises(ValidationError, match="repeated arc id"):
        find_all_dmcs(fig1, 3, [(1, 2, 3, 3)])
    # Proven cuts spare their search, never the refusal of a set that is not minimal.
    for listed in ([(1, 3, 6)], cuts + [(1, 3, 6)]):
        with pytest.raises(ValidationError, match="not a minimal cut"):
            find_all_dmcs(fig1, 3, listed)


def test_solve_searches_no_cut_its_source_proved(fig1_text, monkeypatch):
    """Cuts from enumerate_min_cuts or parse_cuts cost find_all_dmcs no minimality search."""
    real = cuts_module.lifting_arcs
    searches = []
    monkeypatch.setattr(cuts_module, "lifting_arcs", lambda fs, arc_ids: searches.append(fs) or real(fs, arc_ids))
    rng = random.Random(3)
    caps = [rng.randint(1, 3) for _ in range(20)]
    for build in (lambda: parse_network(fig1_text), lambda: grid_network(2, 6, caps)):
        net = build()
        cuts = enumerate_min_cuts(net)
        assert len(searches) == 0
        find_all_dmcs(net, 1, cuts)
        assert len(searches) == 0
        net = build()
        parsed = parse_cuts(format_cuts(cuts), net)
        assert (parsed, len(searches)) == (cuts, len(cuts))
        searches.clear()
        find_all_dmcs(net, 1, parsed)
        assert len(searches) == 0


def test_audit_single_arc_network():
    net = parse_network("nodes 2 source 1 sink 2\nedge 1 1 2 3\n")
    cuts = enumerate_min_cuts(net)
    for demand in range(0, 6):
        report = find_all_dmcs(net, demand, cuts)
        assert audit_complexity(report)
        # The one cut {1} yields the candidate (d,) while d fits the arc, and none after.
        assert report.counters.candidates_total == (demand <= 3)
        # The audit is an identity: one candidate more in the bound fails it.
        assert not audit_complexity(replace(report, total_candidate_bound=report.total_candidate_bound + 1))
