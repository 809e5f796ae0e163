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
and a step from value v to v+1 is :func:`~dmincut.maxflow.push` of one
unit on a copy of the node's residual: those two lookups and, when they
succeed, one unit along the trees, with no search.  The push stores the
trees it searched in the node's list, so the node keeps them.  The child
inherits each tree the push kept, and searches the others when it needs
them.  A step that fails runs no search.
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
rests.  Only the table of the cut being searched is alive.  The row 0
counts also keep a running total, and the solve is refused before the
search of the cut that takes it past ``CANDIDATE_SEARCH_GUARD``
(:func:`refuse_candidates_past_guard`, which check-flaw asks too, and
again with ``CHECK_FLAW_WORK_GUARD`` for its max flow per candidate);
the guard charges no work per step.

Each arc starts at the least value from which the arcs after it can
still hold the rest of d, and is raised to it by one push in place, so
the arc is full whenever a tree is searched.  Units follow one path until
a slot on it empties, and the push sends each such run at once, so an arc
of any capacity costs a few walks; a node with nothing left to
assign is a leaf, its later arcs at 0.  A leaf's flow has value d, which
is maximal because C's capacity under the leaf is d, so no leaf gets a
max flow of its own: its node's two trees, searched if missing, decide it
(:func:`_leaf_is_dmc`).  Every arc off C is full, so the leaf's
unsaturated arcs are among C's, and one whose tail the source tree or
whose head the sink tree misses does not lift: the search rejects the
leaf there.  Only a leaf that passes, a d-MC, gets a
:class:`~dmincut.maxflow.FlowState` and goes to
:func:`~dmincut.verify.verify` with its flow and both trees, so every
listed d-MC is certified by the public classifier with no search; on the
seed-1 4x4 grid at d = 2 that is 3,049 of 14,952 leaves.  Depths are kept
on an explicit stack, so a cut of any width is fine.

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
from .errors import StateSpaceLimitError, ValidationError
from .maxflow import FlowState, max_flow, push, residual_tree
from .network import Network, StateVector
from .verify import verify

# Candidates one solve may search, summed over its cuts in order: each cut's count is row 0 of its
# counting table, charged before its search.  The largest input the tests and benchmarks solve, the
# 5x5 grid at d = 3, has 14,149,574.
CANDIDATE_SEARCH_GUARD = 10**8
# Candidate-arcs one check-flaw may read, charged over its cuts before any stream is read: each
# candidate gets a max flow from scratch, which reads all m arcs.  A candidate-arc costs about
# 1-1.8 us (2-vCPU VM, CPython 3.11), so the limit admits about 10-18 s.  The largest input the
# tests and the docs check, the 4x4 grid at d = 3, charges 113,053 * 32 = 3.6*10^6.
CHECK_FLAW_WORK_GUARD = 10**7


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


def refuse_candidates_past_guard(
    total: int, index: int, cut_count: int, demand: int, guard: str = "CANDIDATE_SEARCH_GUARD", cost: int = 1
) -> None:
    """Raise :class:`StateSpaceLimitError` when cuts 1..``index`` have ``total`` candidates, past ``guard``.

    ``guard`` names a limit of this module, read at each call, and each
    candidate is charged ``cost`` against it.  The caller adds up the
    cuts' candidate counts in order and asks after each, before it
    searches or streams that cut.
    """
    limit = globals()[guard]
    if total * cost > limit:
        charged = f", charged {cost} each ({total * cost})" if cost != 1 else ""
        raise StateSpaceLimitError(
            f"cuts 1..{index} of {cut_count} have {total} candidates at demand {demand}{charged},"
            f" above the guard {guard}={limit}"
        )


def _leaf_is_dmc(
    net: Network, state: StateVector, demand: int, residual: list[int], trees: list, slots: list[int]
) -> bool:
    """Whether the search leaf ``state``, whose flow of value ``demand`` is ``residual``, is a d-MC.

    The flow is maximal, since the cut's capacity under the leaf is
    ``demand``, and ``trees`` are its node's source tree and sink tree,
    None where not searched yet; both are searched here if missing.  Every
    arc off the cut is full, so the leaf's unsaturated arcs are among the
    cut's ``slots``: one below its maximum whose tail the source tree or
    whose head the sink tree misses does not lift, and the leaf is
    rejected with no further work.  A leaf that passes is decided by
    :func:`~dmincut.verify.verify` on its flow, so every listed d-MC is
    certified by the public classifier.
    """
    source_tree = trees[0] or residual_tree(net, residual, net.source)
    sink_tree = trees[1] or residual_tree(net, residual, net.sink, 1)
    heads, tops = net.slot_heads, net.max_capacities
    for s in slots:
        if state[s >> 1] < tops[s >> 1] and (source_tree[heads[s ^ 1]] < 0 or sink_tree[heads[s]] < 0):
            return False
    flow = FlowState(net=net, residual=tuple(residual), value=demand)
    vars(flow).update(source_tree=source_tree, sink_tree=sink_tree)
    return verify(net, state, demand, flow).is_dmc


def _search_cut(
    net: Network, cut: MinCut, caps: list[int], table: list, demand: int, counters: OperationCounters,
    found: set[StateVector],
) -> int:
    """Walk the candidate tree of ``cut``; return how many candidates it accounted for.

    ``caps`` are the cut's maximum capacities, already past the guards,
    and ``table`` their non-empty ``composition_table`` at ``demand``,
    which the prunes are read from.

    A stack frame ``(i, v, residual, rest, trees)`` is the node with arc i
    of the cut at v, ``rest`` units of the demand still to assign, in
    ``residual`` a flow of value ``demand - rest``, and in ``trees`` its
    source tree and sink tree, None until searched; the frame owns the
    residual and the list.  Depth -1 is the root, where nothing is
    assigned yet.
    """
    positions = [arc_id - 1 for arc_id in cut]
    slots = [2 * p for p in positions]
    suffix = [*accumulate(reversed(caps), initial=0)][::-1]

    def leaves_below(j: int, least: int, rest: int) -> int:
        """Leaves whose arcs from j on hold a sum in [least, rest], read off the cut's table."""
        low, prefix = table[j]
        return prefix[rest + 1 - low] - prefix[max(least - low, 0)]

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
                step = residual.copy()
                kept = push(net, step, slots[i], 1, trees)
                if kept is None:
                    # Arc i at v does not lift: the child at v has no d-MC, and v+1.. are below d.
                    pruned += leaves_below(i + 1, rest, rest)
                    below += leaves_below(i + 1, rest - caps[i] + v, rest - 1)
                    continue
                stack.append((i, v + 1, step, rest - 1, kept))
        j = i + 1
        if rest:
            # rest <= suffix[j], so an arc is left: raise it to the least value that can still reach d.
            # push sends those units along the node's trees, so the arc is full whenever a tree is searched.
            low = max(0, rest - suffix[j + 1])
            trees = push(net, residual, slots[j], low, trees)
            if trees is None:
                below += leaves_below(j, rest, rest)
            else:
                stack.append((j, low, residual, rest - low, trees))
            continue
        for p in positions[j:]:
            vector[p] = 0
        leaves += 1
        state = tuple(vector)
        if not _leaf_is_dmc(net, state, demand, residual, trees, slots):
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

    # The guards run first, so a cut past the counting guard is refused before any search.
    guarded = [cut_caps(net, cut, demand) for cut in cuts]
    per_cut_bounds = []
    bound = 0
    counters = OperationCounters()
    found: set[StateVector] = set()
    for index, (cut, caps) in enumerate(zip(cuts, guarded), start=1):
        table = composition_table(caps, demand)
        per_cut_bounds.append(table[0][1][-1] if table else 0)
        bound += per_cut_bounds[-1]
        refuse_candidates_past_guard(bound, index, len(cuts), demand)
        searched = _search_cut(net, cut, caps, table, demand, counters, found) if table else 0
        counters.candidates_total += searched
        counters.candidates_per_cut.append(searched)

    diagnostic = None if found else infeasibility(net, demand)
    return SolveReport(
        demand=demand,
        cut_count=len(cuts),
        arc_count=net.arc_count,
        max_candidates_per_cut=max(per_cut_bounds),
        total_candidate_bound=bound,
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
