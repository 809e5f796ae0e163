#!/usr/bin/env python3
"""Enumerate the d-MCs of the benchmark network at every feasible demand.

Shows the full pipeline: minimal cuts in, each cut's bounded-composition
candidates searched as a tree of warm-started flows, whole subtrees
pruned below the demand or as not maximal, residual checks per
unsaturated arc at the surviving leaves, duplicates merged.  The
brute-force oracle sweeps the whole capacity box and must agree level by
level; the four counter classes add up to the counted candidates.
"""

from pathlib import Path

from dmincut import (
    audit_complexity,
    brute_force_dmcs,
    enumerate_min_cuts,
    find_all_dmcs,
    format_vector,
    max_flow,
    parse_network,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fig1.net"


def main():
    net = parse_network(FIXTURE.read_text())
    cuts = enumerate_min_cuts(net)
    top = max_flow(net, net.max_capacities).value
    print(f"network {FIXTURE.name}: saturated max flow = {top}, "
          f"{len(cuts)} minimal cuts\n")

    header = (f"{'d':>2} {'#d-MC':>6} {'candidates':>11} {'below':>6} {'not-max':>8}"
              f" {'dups':>5} {'audit':>6}")
    print(header)
    print("-" * len(header))
    for demand in range(0, top + 2):
        report = find_all_dmcs(net, demand, cuts)
        c = report.counters
        print(f"{demand:>2} {len(report.dmcs):>6} {c.candidates_total:>11} {c.below_demand:>6}"
              f" {c.not_maximal:>8} {c.duplicates_removed:>5} {str(audit_complexity(report)):>6}")
        assert report.dmcs == brute_force_dmcs(net, demand), "oracle disagrees!"

    print("\nall levels match the brute-force oracle")
    demand = 7
    report = find_all_dmcs(net, demand, cuts)
    print(f"\nthe {demand}-MCs themselves:")
    for vector in report.dmcs:
        print(f"  {format_vector(vector)}")
    if report.infeasible_demand:
        print(report.diagnostic)
    beyond = find_all_dmcs(net, top + 1, cuts)
    print(f"\nat demand {top + 1}: {beyond.diagnostic}")


if __name__ == "__main__":
    main()
