"""Max-flow engine: shortest augmenting paths, residual trees and pushes along them.

The solver needs three primitives: the max-flow value W(X) of a network
under a capacity state X, the residual graph of a feasible flow, and the
question "which arcs, raised by one unit, lift the max flow above the d
units in place".  Max flow augments along shortest residual paths
(Edmonds-Karp): each path is the one a :func:`residual_tree` search
entered the sink by, walked back through the entry slots.  Slots are
traversed in ascending arc-id order, so identical inputs always produce the
identical flow, not merely the same value.  That loop is
:func:`max_flow`'s, from the zero flow.

Residual bookkeeping is per arc (slot pair), which makes anti-parallel
arcs work without node-splitting tricks, and a :class:`FlowState` keeps
that per-slot residual as the only record of its flow.  Every graph search
in the package is :func:`residual_tree` over such a slot list.  A maximum
flow's residual has two trees: the source tree, searched forward from the
source, and the sink tree, searched backward to the sink.  They share no
node, and a unit more on arc (u, v) lifts the flow exactly when the source
tree reaches u and the sink tree reaches v.  A :class:`FlowState` keeps
both once searched, as :attr:`FlowState.source_tree` and
:attr:`FlowState.sink_tree`; the search that ends a max flow, the one that
no longer reaches the sink, is its source tree, so classifying a max flow
costs one backward search more, not two.  :func:`stuck_arcs` is that
classification, one arc at a time and lazily, so a caller that needs
only the first arc that does not lift stops there; :func:`lifting_arcs`
is its complement.

A kept tree need not be a fresh search's entries, only as good: it
reaches exactly the nodes a fresh :func:`residual_tree` reaches, and each
entry slot has room.  :func:`push` raises an arc by any number of units
and sends them along the two trees, and tells which tree still holds for
the new residual: a side whose path emptied no slot keeps its reachable
set, since the room a push adds points back towards that tree's root.
It is the one place that decides whether a unit lifts, and it searches
a tree only when the caller lacks it or a push lost it.  The solver's
candidate search steps and descends so from node to node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .network import Network, StateVector

__all__ = [
    "FlowState", "max_flow", "residual_tree", "push", "residual_reachable", "stuck_arcs",
    "lifting_arcs",
]


@dataclass(frozen=True)
class FlowState:
    """A feasible integer flow under a specific capacity state, kept as its residual.

    ``residual[2i]`` is the room left on arc i+1 and ``residual[2i+1]`` its
    flow, so the two sum to the arc's capacity; ``value`` is the net outflow
    of the source.  Conservation and capacity feasibility hold by
    construction for states produced by :func:`max_flow`.
    """

    net: Network
    residual: tuple[int, ...]
    value: int

    @cached_property
    def source_tree(self) -> list[int]:
        """``residual_tree(net, residual, net.source)``, searched once and then kept.

        :func:`max_flow` stores its last search here, and the solver a tree
        it kept while stepping (see the module docstring for what a kept
        tree must satisfy).  The cache is not a field: equality, hash and
        repr ignore it, and ``dataclasses.replace`` builds a new state that
        searches its own residual again.
        """
        return residual_tree(self.net, self.residual, self.net.source)

    @cached_property
    def sink_tree(self) -> list[int]:
        """``residual_tree(net, residual, net.sink, backward=1)``, searched once and then kept.

        Kept like :attr:`source_tree`; :func:`max_flow` stores none, and
        the solver stores the one it kept while stepping.
        """
        return residual_tree(self.net, self.residual, self.net.sink, 1)


def residual_tree(net: Network, residual, start: int, backward: int = 0) -> list[int]:
    """Breadth-first search from ``start`` over slots with positive ``residual``.

    Returns each node's entry: the slot the search first entered it by, so
    ``net.slot_heads[entry[v] ^ 1]`` is the node one step nearer ``start``
    and walking entries back from any reached node takes the shortest way
    to ``start``.  Each node's ``(slot, head)`` pairs in
    :attr:`~dmincut.network.Network.out_slots` are scanned in ascending arc
    order, and the residual is read only for nodes not yet entered.
    ``backward=1`` reads slot ``s ^ 1`` instead of ``s``, so the search runs
    against the residual arcs: an entry ``s`` then records that ``s ^ 1``
    has room and leads from the entered node towards ``start``.  Unreached
    nodes read -1, ``start`` reads ``len(residual)`` (no slot, but not
    negative, so ``entry[v] >= 0`` tests reachability), and index 0 is
    unused.
    """
    adj = net.out_slots
    entry = [-1] * (net.node_count + 1)
    entry[start] = len(residual)
    queue = [start]
    # The list grows while it is walked: a node appended is visited in turn.
    for u in queue:
        for slot, v in adj[u]:
            if entry[v] < 0 and residual[slot ^ backward] > 0:
                entry[v] = slot
                queue.append(v)
    return entry


def max_flow(net: Network, state: StateVector) -> FlowState:
    """Send as much flow as possible from source to sink under ``state``, along shortest paths."""
    net.validate_state(state)
    source, sink = net.source, net.sink
    to = net.slot_heads
    residual = [0] * (2 * net.arc_count)
    residual[::2] = state
    total = 0
    while True:
        entry = residual_tree(net, residual, source)
        if entry[sink] < 0:
            break
        path: list[int] = []
        v = sink
        while v != source:
            path.append(entry[v])
            v = to[entry[v] ^ 1]
        sent = min(residual[slot] for slot in path)
        for slot in path:
            residual[slot] -= sent
            residual[slot ^ 1] += sent
        total += sent
    fs = FlowState(net=net, residual=tuple(residual), value=total)
    # The search that missed the sink ran on this very residual.
    fs.__dict__["source_tree"] = entry
    return fs


def push(net: Network, residual: list[int], slot: int, units: int, trees: list) -> list | None:
    """Raise the arc of ``slot`` by ``units`` and send them from the source to the sink, in place.

    ``residual`` must hold a maximum flow, and ``trees`` its source tree and
    sink tree, None where not searched yet; such a tree is searched here and
    stored in ``trees``, the sink tree only once the source tree reaches the
    slot's tail, so the caller keeps what was searched.  A unit lifts the
    flow exactly when the source tree reaches the slot's tail and the sink
    tree its head: then no path had room to cross the slot, and the unit,
    which becomes the slot's new flow, runs along the source tree's entries
    to the tail, across the slot and along the sink tree's entries to the
    sink.  The trees share no node, so that walk is a path, and the flow
    stays feasible with value one higher; it is maximal, since a unit
    raises a max flow by at most one.

    Returns None once a unit does not lift, with the units before it sent.
    Otherwise returns ``[source_tree, sink_tree]`` for the new residual,
    with None for a side whose path emptied a slot and must be searched
    again.  A side whose path emptied none keeps its tree: each of its
    entries still has room, and the room a push adds points towards the
    tree's root or across the arc into the other tree, so it enters no node
    sooner.  So units follow one path until a slot on it empties: each
    round sends as many as that path has room for, capped at the units
    left, and then searches the trees it lost.  A single unit needs no
    room walk, since every entry slot has room for one.
    """
    to, source, sink = net.slot_heads, net.source, net.sink
    tail, head = to[slot ^ 1], to[slot]
    while units:
        from_source = trees[0] = trees[0] or residual_tree(net, residual, source)
        if from_source[tail] < 0:
            return None
        to_sink = trees[1] = trees[1] or residual_tree(net, residual, sink, 1)
        if to_sink[head] < 0:
            return None
        sent = units
        if units > 1:
            # Each side's least room, along the slots the walks below push through.
            for side, tree, v, root in ((0, from_source, tail, source), (1, to_sink, head, sink)):
                while v != root:
                    s = tree[v] ^ side
                    sent = min(sent, residual[s])
                    v = to[s ^ 1 ^ side]
        residual[slot ^ 1] += sent
        trees = [from_source, to_sink]
        v = tail
        while v != source:
            s = from_source[v]
            residual[s] -= sent
            residual[s ^ 1] += sent
            if not residual[s]:
                trees[0] = None
            v = to[s ^ 1]
        v = head
        while v != sink:
            # The sink tree entered v by a slot that has room in reverse, from v towards the sink.
            s = to_sink[v] ^ 1
            residual[s] -= sent
            residual[s ^ 1] += sent
            if not residual[s]:
                trees[1] = None
            v = to[s]
        units -= sent
    return trees


def residual_reachable(fs: FlowState) -> bool:
    """True iff the sink is reachable from the source in the residual graph.

    Forward residual exists where flow is below capacity, backward residual
    where flow is positive.  For a maximal flow this is always False.  It
    reads :attr:`FlowState.source_tree`, so a flow from :func:`max_flow`
    answers without a search.
    """
    return fs.source_tree[fs.net.sink] >= 0


def stuck_arcs(fs: FlowState, arc_ids):
    """The arcs among ``arc_ids``, in their order, whose tail the source tree or whose head the sink tree misses.

    When ``fs`` is a maximum flow, every new augmenting path crosses a
    raised arc, so these are exactly the arcs that, raised by one unit,
    do not lift the max flow above ``fs.value``.  Both trees are read
    here, kept or searched once, and each arc drawn from the returned
    iterator then costs two reads, so a caller that needs only the first
    stuck arc stops there.  Arc ids are not checked: every caller draws
    them from the network.
    """
    heads, from_source, to_sink = fs.net.slot_heads, fs.source_tree, fs.sink_tree
    return (a for a in arc_ids if from_source[heads[2 * a - 1]] < 0 or to_sink[heads[2 * a - 2]] < 0)


def lifting_arcs(fs: FlowState, arc_ids) -> set[int]:
    """The arcs among ``arc_ids`` that :func:`stuck_arcs` does not report.

    A caller that needs a few arcs, such as check-flaw asking about the
    unsaturated ones, pays for those, not for all m, and a flow whose
    trees are kept runs no search here.  On the zero flow with a cut's
    arcs closed and every other arc at one unit, which is maximal when the
    cut disconnects, they are the cut arcs whose reopening restores a
    source-sink path; :func:`dmincut.cuts.is_min_cut` decides minimality so.
    """
    arc_ids = set(arc_ids)
    return arc_ids.difference(stuck_arcs(fs, arc_ids))
