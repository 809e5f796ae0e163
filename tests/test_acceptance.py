"""Acceptance gate: every release-blocking check, one test per criterion.

Each test prints a single ``ACCEPTANCE n ... PASS`` line on success (visible
with ``pytest -s``); a failed assertion marks the criterion failed.  The
random sweeps are seed-controlled and shared across criteria via a
module-scoped fixture so the suite stays fast.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import pytest

from dmincut import (
    EdgeDistribution,
    audit_complexity,
    count_candidates,
    count_compositions,
    dmc_levels,
    enumerate_candidates,
    enumerate_min_cuts,
    find_all_dmcs,
    flow_table,
    lifting_arcs,
    max_flow,
    reliability_exhaustive,
    reliability_from_dmcs,
    residual_reachable,
    unsaturated_set,
    verify,
    verify_flawed,
)
from dmincut.candidates import compositions

from conftest import FIXTURES
from helpers import bump, count_by_inclusion_exclusion, random_distribution, random_network

SWEEP_SEED = 8415
SWEEP_NETWORKS = 200


@dataclass
class SweepRecord:
    net: object
    cuts: list
    table: dict
    levels: dict
    reports: dict  # demand -> SolveReport


@pytest.fixture(scope="module")
def sweep():
    """200 seed-controlled random networks with oracle tables and solver runs."""
    rng = random.Random(SWEEP_SEED)
    records = []
    started = time.perf_counter()
    for _ in range(SWEEP_NETWORKS):
        net = random_network(rng, max_nodes=6, max_arcs=8, max_cap=3)
        cuts = enumerate_min_cuts(net)
        table = flow_table(net)
        levels = dmc_levels(net, table)
        top = max(levels)  # the saturated max flow
        reports = {
            demand: find_all_dmcs(net, demand, cuts) for demand in range(0, top + 2)
        }
        records.append(SweepRecord(net=net, cuts=cuts, table=table, levels=levels, reports=reports))
    elapsed = time.perf_counter() - started
    return records, elapsed


def test_acceptance_1_counterexample_reproduction(fig1):
    started = time.perf_counter()
    cut = (1, 3, 4, 6)
    candidate = (0, 2, 3, 1, 3, 3)
    generated = list(enumerate_candidates(fig1, cut, 7))
    assert candidate in generated
    bumped_value = max_flow(fig1, (1, 2, 3, 1, 3, 3)).value
    assert bumped_value == 6
    assert verify(fig1, candidate, 7).is_dmc is False
    assert verify_flawed(max_flow(fig1, candidate)).is_dmc is True
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 (counterexample candidate {candidate}, bumped flow "
        f"{bumped_value}, sound reject / flawed accept, {elapsed:.3f}s): PASS"
    )


def test_acceptance_2_oracle_equivalence_sweep(sweep):
    records, elapsed = sweep
    started = time.perf_counter()
    assert len(records) >= 200
    mismatches = 0
    compared = 0
    for record in records:
        for demand, report in record.reports.items():
            expected = tuple(sorted(record.levels.get(demand, ())))
            compared += 1
            if report.dmcs != expected:
                mismatches += 1
    assert mismatches == 0
    total = elapsed + (time.perf_counter() - started)
    assert total < 300.0
    print(
        f"\nACCEPTANCE 2 ({len(records)} networks, {compared} demand levels, "
        f"{mismatches} mismatches, {total:.1f}s): PASS"
    )


def test_acceptance_3_residual_route_equals_direct_inequality(sweep):
    records, _ = sweep
    agreements = 0
    disagreements = 0
    lifting_disagreements = 0
    for record in records:
        net = record.net
        top = max(record.levels)
        for demand in range(0, top + 2):
            for cut in record.cuts:
                for cand in enumerate_candidates(net, cut, demand):
                    if record.table[cand] != demand:
                        continue
                    fs = max_flow(net, cand)
                    lifting = lifting_arcs(fs)
                    for arc_id in sorted(unsaturated_set(net, cand)):
                        bumped = bump(net, cand, arc_id)
                        # The same flow under the bumped state: one more unit of room on the arc.
                        residual = list(fs.residual)
                        residual[2 * arc_id - 2] += 1
                        via_residual = residual_reachable(replace(fs, residual=tuple(residual)))
                        via_inequality = record.table[bumped] > demand
                        if via_residual is via_inequality:
                            agreements += 1
                        else:
                            disagreements += 1
                        if (arc_id in lifting) is not via_inequality:
                            lifting_disagreements += 1
    assert disagreements == 0
    assert lifting_disagreements == 0
    assert agreements > 3_000  # the sweep must actually exercise the property
    print(
        f"\nACCEPTANCE 3 ({agreements} arcwise checks, {disagreements} disagreements, "
        f"{lifting_disagreements} lifting_arcs disagreements): PASS"
    )


def test_acceptance_4_operation_count_audit(sweep):
    records, _ = sweep
    audited = 0
    for record in records:
        net = record.net
        for demand, report in record.reports.items():
            bound = sum(count_candidates(net, cut, demand) for cut in record.cuts)
            assert report.counters.candidates_total == bound
            assert report.counters.residual_searches <= net.arc_count * report.counters.candidates_total
            assert audit_complexity(report)
            audited += 1
    print(f"\nACCEPTANCE 4 ({audited} solver runs audited): PASS")


def test_acceptance_5_unit_step_monotonicity():
    rng = random.Random(SWEEP_SEED + 1)
    pairs = 0
    violations = 0
    while pairs < 100_000:
        net = random_network(rng, max_nodes=6, max_arcs=8, max_cap=3)
        for _ in range(20):
            state = tuple(rng.randint(0, w) for w in net.max_capacities)
            value = max_flow(net, state).value
            for arc_id in unsaturated_set(net, state):
                bumped_value = max_flow(net, bump(net, state, arc_id)).value
                if not value <= bumped_value <= value + 1:
                    violations += 1
                pairs += 1
    assert violations == 0
    print(f"\nACCEPTANCE 5 ({pairs} (state, arc) pairs, {violations} violations): PASS")


def test_acceptance_6_reliability_consistency(fig1):
    rng = random.Random(SWEEP_SEED + 2)
    comparisons = 0
    worst = 0.0

    def check(net, dist, levels):
        nonlocal comparisons, worst
        for demand, dmcs in sorted(levels.items()):
            union = reliability_from_dmcs(net, dmcs, dist)
            complement = reliability_exhaustive(net, dist, demand + 1)
            gap = abs(1.0 - union - complement)
            worst = max(worst, gap)
            assert gap <= 1e-12
            comparisons += 1

    check(fig1, EdgeDistribution.uniform(fig1), dmc_levels(fig1))
    for _ in range(50):
        net = random_network(rng, max_nodes=6, max_arcs=5, max_cap=3)
        check(net, random_distribution(rng, net), dmc_levels(net))
    assert comparisons >= 100
    print(
        f"\nACCEPTANCE 6 ({comparisons} level comparisons, worst gap {worst:.2e}): PASS"
    )


def test_acceptance_7_candidate_counts_on_exhaustive_grid():
    profiles = 0
    mismatches = 0
    for k in (1, 2, 3, 4):
        for caps in itertools.product(range(7), repeat=k):
            assert sum(caps) <= 24
            profiles += 1
            for total in range(0, sum(caps) + 2):
                streamed = sum(1 for _ in compositions(caps, total))
                counted = count_compositions(caps, total)
                if not counted == count_by_inclusion_exclusion(caps, total) == streamed:
                    mismatches += 1
    assert profiles == 7 + 49 + 343 + 2401
    assert mismatches == 0
    print(f"\nACCEPTANCE 7 ({profiles} capacity profiles, {mismatches} mismatches): PASS")


def test_acceptance_8_solve_json_determinism():
    cmd = [
        sys.executable,
        "-m",
        "dmincut.cli",
        "solve",
        str(FIXTURES / "fig1.net"),
        "--demand",
        "7",
        "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["counters"]["candidates_total"] == data["total_candidate_bound"]
    print(
        f"\nACCEPTANCE 8 (two runs, {len(first.stdout)} identical bytes, counters included): PASS"
    )
