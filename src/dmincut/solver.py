"""End-to-end d-MC enumeration with operation accounting.

Every listed cut must pass :func:`~dmincut.cuts.is_min_cut`, so a library
caller's non-minimal cut is refused, and no cut may list an arc twice.
Cuts that :func:`~dmincut.cuts.enumerate_min_cuts` or
:func:`~dmincut.cuts.parse_cuts` produced on the same network object are
already in its record of proven cuts, and that check then runs no search.

The candidates of a minimal cut C are searched as a tree: arc i of C at
depth i, values ascending.  A node's partial state has C's assigned arcs
at their values, C's other arcs at 0 and every other arc full; it carries
a maximum flow of that state in a residual of its own, warm-started from
its parent's, and kept only while the flow equals the assigned sum (the
capacity of C under the partial state).  A step from value v to v+1 adds
one unit of room and runs one augmentation of :func:`~dmincut.maxflow.augment`.
Two prunes are sound:

* W < d.  A leaf X with W(X) = d has a flow of value d that saturates C
  and sends nothing back across it, so each of its paths crosses C once;
  the paths through C's first arcs are a flow of their assigned sum in the
  partial state.  A node whose flow falls short of that sum therefore has
  no leaf with W = d below it, and neither has any larger value at its
  depth, since a unit raises a max flow by at most one.
* Ancestor lifting.  If a unit on an assigned arc j with x_j below its
  maximum lifts W(X) at a leaf X with W(X) = d, a flow of value d + 1
  saturates C under X + e_j, and its paths through C's first arcs lift the
  partial flow at every ancestor of X.  So when the step v to v+1 fails,
  arc i at v does not lift, and no leaf below the child at v is a d-MC
  either.  This costs no search beyond the failed step.

A pruned subtree's leaves are counted from one table per cut,
:func:`~dmincut.candidates.composition_table`: for each depth j, the
prefix sums over the rest r of the number of vectors over the free arcs
j.. summing to r.  A prune at depth j then costs two reads: the child's
subtree is one rest, and the larger values at its depth are a range of
rests.  The table is built at a cut's first prune, so a cut that never
prunes (as every cut of the benchmark grids at d = 1) builds none.  Where the rest of the cut is forced
(nothing left to assign, or exactly what the free arcs hold) the walk
goes straight to the leaf.  A leaf's flow has value d, which is maximal
because C's capacity under the leaf is d, so :func:`~dmincut.verify.verify`
classifies it on that flow and no leaf gets a max flow of its own.  Depths
are kept on an explicit stack, so a cut of any width is fine.

Accepted vectors are merged into a set because distinct cuts can emit the
same d-MC.  The infeasibility diagnostic costs one max flow, of the
saturated state, and runs only when no d-MC was found: a d-MC X has
W(X) = d, and the saturated max flow is at least W(X), so any d-MC already
proves the demand feasible.

The counters partition the candidates: each is below the demand, not
maximal, accepted or a duplicate, by the reason the search itself used,
and they must add up to the corrected Theorem 6 count summed over the cuts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import accumulate

# enumerate_candidates is unused here: the benchmark tracer wraps dmincut.solver.enumerate_candidates.
from .candidates import composition_table, count_candidates, enumerate_candidates  # noqa: F401
from .cuts import MinCut, is_min_cut
from .errors import ValidationError
from .maxflow import FlowState, augment, max_flow
from .network import Network, StateVector
from .verify import verify


@dataclass
class OperationCounters:
    candidates_total: int = 0
    candidates_per_cut: list[int] = field(default_factory=list)
    below_demand: int = 0
    not_maximal: int = 0
    accepted: int = 0
    duplicates_removed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveReport:
    """Deduplicated, lexicographically sorted d-MC list plus instrumentation."""

    demand: int
    cut_count: int
    arc_count: int
    max_candidates_per_cut: int
    total_candidate_bound: int
    dmcs: tuple[StateVector, ...]
    counters: OperationCounters
    infeasible_demand: bool
    diagnostic: str | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def infeasibility(net: Network, demand: int) -> str | None:
    """Why no d-MC exists at ``demand`` (above the saturated max flow), or None.

    This max-flow call is outside the per-candidate accounting.
    :func:`find_all_dmcs` makes it only when it found no d-MC.
    """
    top = max_flow(net, net.max_capacities).value
    if demand > top:
        return f"no {demand}-MC exists: demand {demand} exceeds the max flow {top} of the fully saturated network"
    return None


def _search_cut(
    net: Network, cut: MinCut, demand: int, counters: OperationCounters, found: set[StateVector]
) -> int:
    """Walk the candidate tree of ``cut``; return how many candidates it accounted for.

    A stack frame ``(i, v, residual, rest)`` is the node with arc i of the
    cut at v, ``rest`` units of the demand still to assign, and in
    ``residual`` a flow of value ``demand - rest``, owned by the frame.
    Depth -1 is the root, where nothing is assigned yet.
    """
    positions = [arc_id - 1 for arc_id in cut]
    caps = [net.max_capacities[p] for p in positions]
    suffix = [*accumulate(reversed(caps), initial=0)][::-1]
    if demand > suffix[0]:
        return 0
    table = []

    def leaves_below(j: int, least: int, rest: int) -> int:
        """Leaves whose arcs from j on hold a sum in [least, rest], read off the cut's table.

        The table is built at the first prune, so a cut that never prunes builds none.
        """
        if not table:
            table.extend(composition_table(caps, demand))
        low, prefix = table[j]
        return prefix[rest + 1 - low] - prefix[max(least - low, 0)]

    vector = list(net.max_capacities)
    root = [0] * (2 * net.arc_count)
    root[::2] = vector
    for p in positions:
        root[2 * p] = 0
    below = pruned = leaves = 0
    stack = [(-1, 0, root, demand)]
    while stack:
        i, v, residual, rest = stack.pop()
        if i >= 0:
            vector[positions[i]] = v
            if rest and v < caps[i]:
                step = residual.copy()
                step[2 * positions[i]] += 1
                if augment(net, step, 1)[0]:
                    stack.append((i, v + 1, step, rest - 1))
                else:
                    # Arc i at v does not lift: the child at v has no d-MC, and v+1.. are below d.
                    pruned += leaves_below(i + 1, rest, rest)
                    below += leaves_below(i + 1, rest - caps[i] + v, rest - 1)
                    continue
        j = i + 1
        if rest == 0:
            for p in positions[j:]:
                vector[p] = 0
        elif rest == suffix[j]:
            for p, cap in zip(positions[j:], caps[j:]):
                vector[p] = residual[2 * p] = cap
            if augment(net, residual, rest)[0] < rest:
                below += 1
                continue
        else:
            low = max(0, rest - suffix[j + 1])
            if low:
                residual[2 * positions[j]] = low
                if augment(net, residual, low)[0] < low:
                    below += leaves_below(j, rest, rest)
                    continue
            stack.append((j, low, residual, rest - low))
            continue
        # A leaf: its flow has value demand, the cut's capacity under it, so it is maximal.
        leaves += 1
        state = tuple(vector)
        flow = FlowState(net=net, residual=tuple(residual), value=demand)
        if not verify(net, state, demand, flow).is_dmc:
            counters.not_maximal += 1
        elif state in found:
            counters.duplicates_removed += 1
        else:
            found.add(state)
            counters.accepted += 1
    counters.below_demand += below
    counters.not_maximal += pruned
    return below + pruned + leaves


def find_all_dmcs(net: Network, demand: int, cuts: list[MinCut]) -> SolveReport:
    """Enumerate every d-MC of ``net`` at level ``demand`` from the given cut list.

    With the complete minimal-cut list the result is exactly the set of
    d-MCs; with a partial list it is the subset those cuts generate.  The
    run is sequential and fully deterministic, counters included.
    """
    if demand < 0:
        raise ValidationError(f"demand must be nonnegative, got {demand}")
    if not cuts:
        raise ValidationError("cut list is empty")
    for cut in cuts:
        if not is_min_cut(net, cut):
            raise ValidationError(f"{tuple(cut)} is not a minimal cut of this network")

    # Counting runs first, so a cut past the counting guard is refused before any search.
    per_cut_bounds = [count_candidates(net, cut, demand) for cut in cuts]
    counters = OperationCounters()
    found: set[StateVector] = set()
    for cut in cuts:
        searched = _search_cut(net, cut, demand, counters, found)
        counters.candidates_total += searched
        counters.candidates_per_cut.append(searched)

    diagnostic = None if found else infeasibility(net, demand)
    return SolveReport(
        demand=demand,
        cut_count=len(cuts),
        arc_count=net.arc_count,
        max_candidates_per_cut=max(per_cut_bounds),
        total_candidate_bound=sum(per_cut_bounds),
        dmcs=tuple(sorted(found)),
        counters=counters,
        infeasible_demand=diagnostic is not None,
        diagnostic=diagnostic,
    )


def audit_complexity(report: SolveReport) -> bool:
    """True iff the counters partition exactly the summed per-cut candidate counts.

    The bound is the corrected Theorem 6 count of each cut, so the identity
    says the solver accounted for exactly the candidates that count
    promises, each under one reason.
    """
    c = report.counters
    classified = c.below_demand + c.not_maximal + c.accepted + c.duplicates_removed
    return classified == c.candidates_total == report.total_candidate_bound
