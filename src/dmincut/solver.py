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
capacity of C under the partial state).  Such a flow saturates C and sends
nothing back across it, so the residual's source tree stays on C's source
side and its sink tree on C's sink side.  A unit more on a cut arc (u, v)
therefore lifts the flow iff the source tree reaches u and the sink tree
reaches v.  Each node keeps both trees, searched only when first needed,
and a step from value v to v+1 is those two lookups and, when they
succeed, :func:`~dmincut.maxflow.push_unit`: one unit along the trees,
with no search.  The child inherits each tree the push kept, and searches
the others when it needs them.  A step that fails runs no search.
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

Every cut first passes the guards of :func:`~dmincut.candidates.cut_caps`,
so a cut past the counting guard is refused before any search.  Each cut
then builds one table, :func:`~dmincut.candidates.composition_table`: for
each depth j, the prefix sums over the rest r of the number of vectors
over the free arcs j.. summing to r.  Row 0 holds the cut's candidate
count, the bound of the report, and a pruned subtree's leaves are read
off the other rows: a prune at depth j costs two reads, since the child's
subtree is one rest and the larger values at its depth are a range of
rests.  Only the table of the cut being searched is alive.

Each arc starts at the least value from which the arcs after it can
still hold the rest of d, and is raised to it one unit at a time, so the
arc is full whenever a tree is searched; a node with nothing left to
assign is a leaf, its later arcs at 0.  A leaf's flow has value d, which
is maximal because C's capacity under the leaf is d, so
:func:`~dmincut.verify.verify` classifies it on that flow and no leaf gets
a max flow of its own.  The leaf's flow carries both of its node's trees,
so its classification runs no search either.  Depths are kept on an
explicit stack, so a cut of any width is fine.

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

# count_candidates and enumerate_candidates are unused here: the benchmark tracer wraps both names in this module.
from .candidates import composition_table, count_candidates, cut_caps, enumerate_candidates  # noqa: F401
from .cuts import MinCut, is_min_cut
from .errors import ValidationError
from .maxflow import FlowState, max_flow, push_unit, residual_tree
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
    net: Network, cut: MinCut, caps: list[int], demand: int, counters: OperationCounters,
    found: set[StateVector],
) -> tuple[int, int]:
    """Walk the candidate tree of ``cut``; return its candidate count and how many candidates it accounted for.

    ``caps`` are the cut's maximum capacities, already past the guards.
    The count is row 0 of their ``composition_table`` at ``demand``, the
    table the prunes are read from, which dies with the call.

    A stack frame ``(i, v, residual, rest, trees)`` is the node with arc i
    of the cut at v, ``rest`` units of the demand still to assign, in
    ``residual`` a flow of value ``demand - rest``, and in ``trees`` its
    source tree and sink tree, None until searched; the frame owns the
    residual and the list.  Depth -1 is the root, where nothing is
    assigned yet.
    """
    table = composition_table(caps, demand)
    if not table:
        return 0, 0
    positions = [arc_id - 1 for arc_id in cut]
    slots = [2 * p for p in positions]
    suffix = [*accumulate(reversed(caps), initial=0)][::-1]
    to, source, sink = net.slot_heads, net.source, net.sink

    def leaves_below(j: int, least: int, rest: int) -> int:
        """Leaves whose arcs from j on hold a sum in [least, rest], read off the cut's table."""
        low, prefix = table[j]
        return prefix[rest + 1 - low] - prefix[max(least - low, 0)]

    def crosses(residual: list[int], trees: list, j: int) -> bool:
        """Whether one unit more on arc j of the cut lifts the node's flow.

        The source tree must reach the arc's tail and the sink tree its
        head.  A tree the node lacks is searched here and kept in
        ``trees``, the sink tree only once the tail is reached.
        """
        if trees[0] is None:
            trees[0] = residual_tree(net, residual, source)
        if trees[0][to[slots[j] ^ 1]] < 0:
            return False
        if trees[1] is None:
            trees[1] = residual_tree(net, residual, sink, 1)
        return trees[1][to[slots[j]]] >= 0

    vector = list(net.max_capacities)
    root = [0] * (2 * net.arc_count)
    root[::2] = vector
    for p in positions:
        root[2 * p] = 0
    below = pruned = leaves = 0
    stack = [(-1, 0, root, demand, [None, None])]
    while stack:
        i, v, residual, rest, trees = stack.pop()
        if i >= 0:
            vector[positions[i]] = v
            if rest and v < caps[i]:
                if crosses(residual, trees, i):
                    step = residual.copy()
                    stack.append((i, v + 1, step, rest - 1, push_unit(net, step, slots[i], *trees)))
                else:
                    # Arc i at v does not lift: the child at v has no d-MC, and v+1.. are below d.
                    pruned += leaves_below(i + 1, rest, rest)
                    below += leaves_below(i + 1, rest - caps[i] + v, rest - 1)
                    continue
        j = i + 1
        if rest:
            # rest <= suffix[j], so an arc is left: raise it to the least value that can still reach d,
            # one unit at a time, so that it is full whenever a tree is searched.
            low = max(0, rest - suffix[j + 1])
            for _ in range(low):
                if not crosses(residual, trees, j):
                    below += leaves_below(j, rest, rest)
                    break
                trees = push_unit(net, residual, slots[j], *trees)
            else:
                stack.append((j, low, residual, rest - low, trees))
            continue
        for p in positions[j:]:
            vector[p] = 0
        # A leaf: its flow has value demand, the cut's capacity under it, so it is maximal.
        leaves += 1
        state = tuple(vector)
        flow = FlowState(net=net, residual=tuple(residual), value=demand)
        vars(flow).update(
            source_tree=trees[0] or residual_tree(net, residual, source),
            sink_tree=trees[1] or residual_tree(net, residual, sink, 1),
        )
        if not verify(net, state, demand, flow).is_dmc:
            counters.not_maximal += 1
        elif state in found:
            counters.duplicates_removed += 1
        else:
            found.add(state)
            counters.accepted += 1
    counters.below_demand += below
    counters.not_maximal += pruned
    return table[0][1][-1], below + pruned + leaves


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

    # The guards run first, so a cut past the counting guard is refused before any search.
    guarded = [cut_caps(net, cut, demand) for cut in cuts]
    per_cut_bounds = []
    counters = OperationCounters()
    found: set[StateVector] = set()
    for cut, caps in zip(cuts, guarded):
        bound, searched = _search_cut(net, cut, caps, demand, counters, found)
        per_cut_bounds.append(bound)
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
