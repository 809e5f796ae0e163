import json
import random
from dataclasses import asdict, replace

import pytest

from dmincut import (
    OperationCounters,
    SolveReport,
    ValidationError,
    audit_complexity,
    brute_force_dmcs,
    count_candidates,
    dmc_levels,
    enumerate_candidates,
    enumerate_min_cuts,
    find_all_dmcs,
    format_cuts,
    oracle,
    parse_cuts,
    verify,
)
from dmincut import cuts as cuts_module
from dmincut.network import parse_network

from conftest import REPO_ROOT
from helpers import grid_network, random_network


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


def skipped_candidates(net, cut_list, demand, report, calls):
    """The candidates ``find_all_dmcs`` ran no max flow on, given the states it did.

    The calls must be the cuts' candidate streams in order with some
    candidates left out, then the saturated state when no d-MC was found.
    """
    calls = list(calls)
    if not report.dmcs:
        assert calls.pop() == net.max_capacities
    flowed = iter(calls)
    expected = next(flowed, None)
    skipped = []
    for cut in cut_list:
        for cand in enumerate_candidates(net, cut, demand):
            if cand == expected:
                expected = next(flowed, None)
            else:
                skipped.append(cand)
    assert expected is None, f"{expected} is no candidate left in the streams"
    return skipped


def test_solve_max_flows_every_candidate_no_certificate_skips(fig1, max_flow_calls):
    # A candidate is skipped only when a min cut from an earlier max flow of
    # its cut's stream proves W < d.  A d-MC proves the demand feasible, so
    # the saturated max flow of the infeasibility diagnostic runs only when
    # none was found.
    cuts = enumerate_min_cuts(fig1)
    counts = []
    for demand, cut_list, found in [(d, cuts, True) for d in range(9)] + [
        (9, cuts, False), (12, cuts, False), (8, [(1, 2, 3)], False),
    ]:
        max_flow_calls.clear()
        report = find_all_dmcs(fig1, demand, cut_list)
        assert bool(report.dmcs) is found
        for cand in skipped_candidates(fig1, cut_list, demand, report, max_flow_calls):
            assert oracle.max_flow_value(fig1, cand) < demand
        counts.append(len(max_flow_calls))
        assert report.infeasible_demand is (demand > 8)
    # d = 0..9 (the 5 at d = 9 includes the saturated max flow), then d = 12
    # (no candidate) and the lone cut {1, 2, 3} at d = 8.
    assert counts == [4, 13, 27, 43, 50, 45, 31, 17, 8, 5, 1, 3]


def test_solve_max_flow_count_on_the_grid_at_demand_2(max_flow_calls):
    # The seed-1 4x4 benchmark grid with its stored list of all 1,160 cuts.
    rng = random.Random("grid-4x4:1")
    net = grid_network(4, 4, [rng.randint(1, 3) for _ in range(32)])
    cuts = parse_cuts((REPO_ROOT / "perfbench" / "data" / "grid-4x4.cuts").read_text(), net)
    report = find_all_dmcs(net, 2, cuts)
    assert (report.counters.candidates_total, len(report.dmcs)) == (37_475, 2_877)
    assert len(max_flow_calls) == 28_979


def test_skipped_candidates_are_below_demand_on_the_acceptance_sweep(max_flow_calls):
    rng = random.Random(8415)  # the acceptance sweep's 200 networks, drawn alike
    skipped = 0
    for _ in range(200):
        net = random_network(rng, max_nodes=6, max_arcs=8, max_cap=3)
        cuts = enumerate_min_cuts(net)
        for demand in range(oracle.max_flow_value(net, net.max_capacities) + 2):
            max_flow_calls.clear()
            report = find_all_dmcs(net, demand, cuts)
            for cand in skipped_candidates(net, cuts, demand, report, max_flow_calls):
                assert oracle.max_flow_value(net, cand) < demand
                skipped += 1
    assert skipped > 300  # 343 when this was written: the property is exercised


def test_counters_account_every_candidate(fig1):
    cuts = enumerate_min_cuts(fig1)
    report = find_all_dmcs(fig1, 7, cuts)
    c = report.counters
    assert c.candidates_total == sum(c.candidates_per_cut)
    assert c.candidates_per_cut == [count_candidates(fig1, cut, 7) for cut in cuts]
    assert c.candidates_total == report.total_candidate_bound
    assert report.max_candidates_per_cut == max(c.candidates_per_cut)
    # One residual search per candidate, duplicates included, whose max flow meets the demand.
    assert c.residual_searches == sum(
        oracle.max_flow_value(fig1, cand) == 7
        for cut in cuts
        for cand in enumerate_candidates(fig1, cut, 7)
    )


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
        "candidates_total", "candidates_per_cut", "residual_searches", "duplicates_removed",
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
    monkeypatch.setattr(cuts_module, "lifting_arcs", lambda fs: searches.append(fs) or real(fs))
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
