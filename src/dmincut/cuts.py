"""Minimal source-sink cut sets.

A minimal cut (MC) is an inclusion-minimal set of arcs whose removal
disconnects the source from the sink.  Cuts are structural: capacities play
no role here.  A minimal cut is the set of arcs at 0 in a 0-MC of the
unit-capacity network, so minimality is the d-MC question at d = 0: close
the cut's arcs, open every other arc to one unit, and the set is a minimal
cut iff no source-sink path is left and every cut arc's unit bump opens
one (:func:`~dmincut.maxflow.lifting_arcs` of the zero flow, asked about
the cut's arcs only; :func:`is_min_cut`).

Each :class:`~dmincut.network.Network` keeps a record of the cuts already
shown minimal on it, keyed by their sorted arc-id tuples:
:func:`enumerate_min_cuts` records every cut it emits and
:func:`is_min_cut` every set it accepts, so a solve from either source's
output (:func:`parse_cuts` checks each line with :func:`is_min_cut`)
searches no cut a second time.  The record lives on the network object
and dies with it; it is no module-level cache, and it holds only proven
cuts, never refusals.  It only grows, and each entry is a fact about the
network's fixed arcs, so threads sharing a network can at worst repeat a
search.

Enumeration is output-sensitive: a backtracking search over source sides S
(after Provan & Shier 1996) builds only the sets whose out-arcs are minimal
cuts, so its work grows with the number of cuts, not with the 2^(n-2) node
subsets.  Each frame carries S's out-arcs, and the search branches on the
lowest-id free head among them.  Each search step is charged n+m and the
search refuses once the total passes ``CUT_SEARCH_GUARD`` = 10^8.  On a
2-vCPU VM with CPython 3.11 the 4x4 grid (n=18, 1,160 cuts, 4,347 steps)
takes about 0.015 s and the 5x5 grid (n=27, m=50, 43,984 cuts, 194,429
steps) about 0.9 s.  When the source cannot reach the sink, S grows to
every node the source reaches and the search emits the network's one
minimal cut, the empty set.

Cut files are one cut per line: ``cut <id> <arc_id> <arc_id> ...``.  A line
with no arc ids is the empty cut, which is minimal only when the sink is
unreachable.
"""

from __future__ import annotations

from .errors import NetworkParseError, StateSpaceLimitError, ValidationError
from .maxflow import FlowState, lifting_arcs, residual_reachable, residual_tree
from .network import Network, _parse_int, _tokenize

MinCut = tuple[int, ...]

# Work units of the backtracking search: each step costs at most n+m, the size
# of its residual search.  The 5x5 grid needs about 1.5*10^7.
CUT_SEARCH_GUARD = 10**8

# Node marks of the search: on the source side S, or kept off it (the sink
# and every banned node).  Unmarked nodes are still free.
_IN, _OUT = 1, 2


def _unit_zero_flow(net: Network, closed) -> FlowState:
    """The zero flow with one unit of room on every arc not in ``closed``, whatever its capacity."""
    residual = [1, 0] * net.arc_count
    for arc_id in closed:
        residual[2 * arc_id - 2] = 0
    return FlowState(net=net, residual=tuple(residual), value=0)


def refuse_repeated_arcs(cut) -> None:
    """Raise :class:`ValidationError` when ``cut`` lists an arc id more than once."""
    if len(set(cut)) != len(cut):
        raise ValidationError(f"{tuple(cut)} has a repeated arc id")


def is_min_cut(net: Network, arc_ids) -> bool:
    """True iff ``arc_ids`` disconnects source from sink and no proper subset does.

    The zero flow with the cut's arcs closed and every other arc open is
    maximal exactly when the cut disconnects, that is when its source tree
    misses the sink, and then its lifting arcs are the cut arcs whose
    reopening restores a path.  So the set is a minimal cut iff the source
    tree misses the sink and every cut arc lifts: a cut arc that does not
    is not needed.  No open arc can lift then, since the two trees share
    no node, so only the cut's arcs are asked about.

    Arc ids outside the network are refused first, then a repeated arc
    id.  A set in the network's record of proven cuts is accepted without
    a search; a set the search accepts joins the record, as ``arc_ids``
    itself when that is already its sorted tuple, so no second tuple is
    kept.  Refusals are not recorded: a refused set ends its solve or cut
    file with an error, so it is seldom asked about twice, and keeping
    refusals would let any caller's probes grow the record without bound.
    """
    cut = frozenset(arc_ids)
    for arc_id in cut:
        if not 1 <= arc_id <= net.arc_count:
            raise ValidationError(f"arc id {arc_id} outside [1, {net.arc_count}]")
    refuse_repeated_arcs(arc_ids)
    key = tuple(sorted(cut))
    proven = net._proven_min_cuts
    if key in proven:
        return True
    fs = _unit_zero_flow(net, cut)
    if residual_reachable(fs) or lifting_arcs(fs, cut) != cut:
        return False
    proven.add(arc_ids if isinstance(arc_ids, tuple) and arc_ids == key else key)
    return True


def enumerate_min_cuts(net: Network) -> list[MinCut]:
    """All minimal source-sink cuts, sorted by size then arc ids.

    A minimal cut is the out-arc set of exactly one source side S: a node
    set holding the source, whose nodes the source reaches inside S, and
    whose out-arcs all lead to nodes that reach the sink without entering
    S.  The search starts from S = {source} and branches on the lowest-id
    free out-neighbour v of S: add v to S, or ban v from it.  A branch is
    dropped as soon as a banned node can no longer reach the sink without
    entering S (one backward search from the sink per growth of S), so
    every branch ends in a cut; S's out-arcs are emitted once it has no
    free out-neighbour.  Each frame carries what growing S changes: the
    slots open to that backward search and S's out-arcs, whose heads are
    S's out-neighbours, so a growth by v touches only v's arcs, not all
    m.  The stack is explicit, so long paths do not hit the recursion
    limit.  Searches whose work passes ``CUT_SEARCH_GUARD`` are refused.
    Every cut returned joins the network's record of proven cuts, so
    :func:`is_min_cut` accepts it without a search.
    """
    adj, heads = net.out_slots, net.slot_heads
    step_cost = net.node_count + net.arc_count
    steps = 0
    side = bytearray(net.node_count + 1)
    side[net.sink] = _OUT
    found: list[MinCut] = []
    # A frame is (banned nodes, search entries towards the sink avoiding S, node marks, open slots,
    # cut, joining node).  The open slots give one unit of room to each arc with no end in S, and
    # the cut is S's out-arc set, so the heads of its arcs are S's out-neighbours.  A frame with a
    # joining node shares these with its parent until S grows by that node here, and its entries
    # are then searched again.
    stack = [((), None, side, [1, 0] * net.arc_count, set(), net.source)]
    while stack:
        banned, to_sink, side, open_slots, cut, joining = stack.pop()
        steps += 1
        if steps * step_cost > CUT_SEARCH_GUARD:
            raise StateSpaceLimitError(
                f"minimal-cut enumeration passed the guard CUT_SEARCH_GUARD={CUT_SEARCH_GUARD}"
                f" at search step {steps}, each charged n+m={step_cost}; the commands that"
                " take --cuts can be given the cuts in a cut file instead"
            )
        if joining:
            # The joining node's arcs close, and its in-arcs in the cut give way to its out-arcs
            # that leave S.
            side, open_slots, cut = side.copy(), open_slots.copy(), cut.copy()
            side[joining] = _IN
            for slot, v in adj[joining]:
                open_slots[slot & -2] = 0
                if slot & 1:
                    cut.discard((slot >> 1) + 1)
                elif side[v] != _IN:
                    cut.add((slot >> 1) + 1)
            to_sink = residual_tree(net, open_slots, net.sink, backward=1)
            if any(to_sink[v] < 0 for v in banned):
                continue
        branch = min((heads[2 * a - 2] for a in cut if not side[heads[2 * a - 2]]), default=0)
        if not branch:
            found.append(tuple(sorted(cut)))
            continue
        if to_sink[branch] >= 0:
            ban = side.copy()
            ban[branch] = _OUT
            stack.append((banned + (branch,), to_sink, ban, open_slots, cut, 0))
        stack.append((banned, None, side, open_slots, cut, branch))
    net._proven_min_cuts.update(found)
    return sorted(found, key=lambda c: (len(c), c))


def parse_cuts(text: str, net: Network) -> list[MinCut]:
    """Parse a cut file; every listed cut must be a valid minimal cut of ``net``.

    The list may be a subset of the network's cuts (a published list, say);
    duplicates are rejected, and so is a line that repeats an arc id, by
    :func:`is_min_cut`.
    """
    cuts: list[MinCut] = []
    seen: set[MinCut] = set()
    for line_no, tokens in _tokenize(text):
        if tokens[0] != "cut":
            raise NetworkParseError(line_no, f"unknown directive {tokens[0]!r}")
        if len(tokens) < 2:
            raise NetworkParseError(line_no, "expected 'cut <id> <arc_id> ...'")
        _parse_int(tokens[1], line_no, "cut id")
        try:
            arc_ids = tuple(sorted(int(t) for t in tokens[2:]))
        except ValueError:
            raise NetworkParseError(line_no, "arc ids must be integers") from None
        try:
            minimal = is_min_cut(net, arc_ids)
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
        if not minimal:
            raise ValidationError(f"line {line_no}: {arc_ids} is not a minimal cut")
        if arc_ids in seen:
            raise ValidationError(f"line {line_no}: duplicate cut {arc_ids}")
        seen.add(arc_ids)
        cuts.append(arc_ids)
    if not cuts:
        raise ValidationError("cut file lists no cuts")
    return cuts


def format_cuts(cuts: list[MinCut]) -> str:
    """Render cuts in the cut-file format with 1-based sequence ids."""
    return "\n".join(" ".join(map(str, ("cut", k, *cut))) for k, cut in enumerate(cuts, start=1)) + "\n"
