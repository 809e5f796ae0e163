#!/usr/bin/env python3
"""Reliability of the benchmark network, computed two independent ways.

Reliability at demand d is the probability that the random capacity state
supports a max flow of at least d.  The exhaustive route sums the
probability mass of every state in the box.  The d-MC route uses the fact
that {X : W(X) <= d-1} is the union of the boxes below the (d-1)-MCs and
evaluates that union as a sum of disjoint boxes; the complement is the
reliability.  Both must agree to twelve decimal places at every demand.
"""

from pathlib import Path

from dmincut import (
    dmc_levels,
    enumerate_min_cuts,
    find_all_dmcs,
    max_flow,
    parse_edge_distribution,
    parse_network,
    reliability_exhaustive,
    reliability_from_dmcs,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fig1_prob.net"


def main():
    text = FIXTURE.read_text()
    net = parse_network(text)
    dist = parse_edge_distribution(text, net)
    cuts = enumerate_min_cuts(net)
    top = max_flow(net, net.max_capacities).value

    print(f"network {FIXTURE.name}: saturated max flow = {top}")
    print(f"{'demand':>6} {'exhaustive':>16} {'via d-MCs':>16}")
    for demand in range(0, top + 2):
        exact = reliability_exhaustive(net, dist, demand)
        if demand == 0:
            via = 1.0
        else:
            report = find_all_dmcs(net, demand - 1, cuts)
            if report.infeasible_demand:
                via = 0.0
            else:
                via = 1.0 - reliability_from_dmcs(net, report.dmcs, dist)
        gap = abs(exact - via)
        assert gap <= 1e-12, f"routes disagree at demand {demand}: {gap}"
        print(f"{demand:>6} {exact:>16.12f} {via:>16.12f}")

    print("\nd-MC set sizes per level (the boxes whose union is {X : W(X) <= level}):")
    for level, dmcs in sorted(dmc_levels(net).items()):
        print(f"  level {level}: {len(dmcs)} vectors")


if __name__ == "__main__":
    main()
