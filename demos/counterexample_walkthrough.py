#!/usr/bin/env python3
"""Walk through the benchmark counterexample that separates the two tests.

The bundled 4-node network (fixtures/fig1.net) has a minimal cut
{e1, e3, e4, e6}.  At demand 7 that cut generates the candidate
X = (0,2,3,1,3,3).  A naive acceptance test that only looks for a
source-sink path after bumping each unsaturated arc happily accepts it,
but the candidate's max flow is 5, not 7, and bumping its only
unsaturated arc reaches just 6.  The sound test checks W(X) = d first
and then asks for a residual augmenting path on top of d pushed units.
"""

from pathlib import Path

from dmincut import (
    enumerate_candidates,
    enumerate_min_cuts,
    format_vector,
    max_flow,
    unsaturated_set,
    parse_network,
    verify,
    verify_flawed,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fig1.net"


def main():
    net = parse_network(FIXTURE.read_text())
    demand = 7
    print("=" * 64)
    print(f"network: {FIXTURE.name}  (m={net.arc_count}, max capacities "
          f"{format_vector(net.max_capacities)})")
    print("=" * 64)

    cuts = enumerate_min_cuts(net)
    print("\nminimal cuts:")
    for k, cut in enumerate(cuts, start=1):
        print(f"  C{k} = {{{', '.join('e%d' % a for a in cut)}}}")

    cut = (1, 3, 4, 6)
    target = (0, 2, 3, 1, 3, 3)
    stream = list(enumerate_candidates(net, cut, demand))
    print(f"\ncut {{e1,e3,e4,e6}} generates {len(stream)} candidates at demand {demand};")
    print(f"the interesting one is X = {format_vector(target)} "
          f"(on-cut capacities 0+3+1+3 = {demand})")
    assert target in stream

    flow = max_flow(net, target).value
    print(f"\nmax flow of X is {flow}, so X cannot be a {demand}-MC "
          f"(the demand clause already fails)")

    arcs = sorted(unsaturated_set(net, target))
    print(f"unsaturated arcs of X: {['e%d' % a for a in arcs]}")
    for arc_id in arcs:
        bumped = target[:arc_id - 1] + (target[arc_id - 1] + 1,) + target[arc_id:]
        print(f"  bump e{arc_id}: max flow of {format_vector(bumped)} = "
              f"{max_flow(net, bumped).value}  (not > {demand})")

    sound = verify(net, target, demand)
    flawed = verify_flawed(max_flow(net, target))
    print("\nverdicts:")
    print(f"  sound test : {'accept' if sound.is_dmc else 'reject'} "
          f"(W(X)={sound.flow_value})")
    print(f"  flawed test: {'accept' if flawed.is_dmc else 'reject'} "
          f"(plain reachability says a path exists, so it never notices)")

    print("\nThe flawed test is one-sided: it never rejects a true d-MC, it")
    print("only lets impostors through.  Run `dmincut check-flaw` over a whole")
    print("network to list every candidate on which the two tests disagree.")


if __name__ == "__main__":
    main()
