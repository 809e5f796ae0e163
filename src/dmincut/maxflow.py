"""Max-flow engine: shortest augmenting paths, residual trees and unit pushes.

The solver needs three primitives: the max-flow value W(X) of a network
under a capacity state X, the residual graph of a feasible flow, and the
question "which arcs, raised by one unit, lift the max flow above the d
units in place".  Max flow augments along shortest residual paths
(Edmonds-Karp): each path is the one a :func:`residual_tree` search
entered the sink by, walked back through the entry slots.  Slots are
traversed in ascending arc-id order, so identical inputs always produce the
identical flow, not merely the same value.  That loop is :func:`augment`,
and only :func:`max_flow` runs it, from the zero flow.

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
costs one backward search more, not two.

A kept tree need not be a fresh search's entries, only as good: it
reaches exactly the nodes a fresh :func:`residual_tree` reaches, and each
entry slot has room.  :func:`push_unit` sends the unit such an arc lifts
along the two trees, with no search, and tells which tree still holds for
the new residual: a side whose path emptied no slot keeps its reachable
set, since the room a push adds points back towards that tree's root.
The solver's candidate search steps so from node to node.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable

from .network import Network, StateVector

__all__ = [
    "FlowState", "augment", "max_flow", "residual_tree", "push_unit", "residual_reachable",
    "lifts_by_one", "lifting_arcs",
]


class _kept:
    """A computed attribute stored in the instance on first read, like ``functools.cached_property``.

    Before Python 3.12 ``cached_property`` takes a lock on every first
    read, which costs as much as a small search; the solver's leaves are
    flows whose trees it already holds.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        instance.__dict__[self.name] = value = self.compute(instance)
        return value


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

    @_kept
    def source_tree(self) -> list[int]:
        """``residual_tree(net, residual, net.source)``, searched once and then kept.

        :func:`max_flow` stores its last search here, and the solver a tree
        it kept while stepping (see the module docstring for what a kept
        tree must satisfy).  The cache is not a field: equality, hash and
        repr ignore it, and ``dataclasses.replace`` builds a new state that
        searches its own residual again.
        """
        return residual_tree(self.net, self.residual, self.net.source)

    @_kept
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


def augment(net: Network, residual: list[int], limit=inf) -> tuple[int, list[int] | None]:
    """Push flow along shortest residual paths, in place, until ``limit`` units or no path.

    This is :func:`max_flow`'s loop.  Each path is the one a
    :func:`residual_tree` search entered the sink by, walked back through
    the entry slots.  Returns the units sent and,
    when the loop stopped because a search missed the sink, that search's
    entries; stopping at ``limit`` runs no further search and returns None.
    """
    source, sink = net.source, net.sink
    to = net.slot_heads
    total = 0
    while total < limit:
        entry = residual_tree(net, residual, source)
        if entry[sink] < 0:
            return total, entry
        path: list[int] = []
        v = sink
        while v != source:
            path.append(entry[v])
            v = to[entry[v] ^ 1]
        sent = min(residual[slot] for slot in path)
        if sent > limit - total:
            sent = limit - total
        for slot in path:
            residual[slot] -= sent
            residual[slot ^ 1] += sent
        total += sent
    return total, None


def max_flow(net: Network, state: StateVector) -> FlowState:
    """Send as much flow as possible from source to sink under ``state``."""
    net.validate_state(state)
    residual = [0] * (2 * net.arc_count)
    residual[::2] = state
    total, entry = augment(net, residual)
    fs = FlowState(net=net, residual=tuple(residual), value=total)
    # The search that missed the sink ran on this very residual.
    fs.__dict__["source_tree"] = entry
    return fs


def push_unit(net: Network, residual: list[int], slot: int, source_tree: list[int], sink_tree: list[int]) -> list:
    """Raise the arc of ``slot`` by one unit and send that unit from the source to the sink, in place.

    ``residual`` must hold a maximum flow, and the trees must be its source
    tree and sink tree, with the first reaching the slot's tail and the
    second its head: then no path had room to cross the slot, and the
    unit, which becomes the slot's new flow, runs along the source tree's
    entries to the tail, across the slot and along the sink tree's entries
    to the sink.  The trees share no node, so that walk is a path, and the
    flow stays feasible with value one higher; it is maximal, since a unit
    raises a max flow by at most one.

    Returns ``[source_tree, sink_tree]`` for the new residual, with None
    for a side whose path emptied a slot and must be searched again.  A
    side whose path emptied none keeps its tree: each of its entries still
    has room, and the room the push adds points towards the tree's root or
    across the arc into the other tree, so it enters no node sooner.
    """
    to = net.slot_heads
    residual[slot ^ 1] += 1
    kept = [source_tree, sink_tree]
    v = to[slot ^ 1]
    while v != net.source:
        s = source_tree[v]
        residual[s] -= 1
        residual[s ^ 1] += 1
        if not residual[s]:
            kept[0] = None
        v = to[s ^ 1]
    v = to[slot]
    while v != net.sink:
        # The sink tree entered v by a slot that has room in reverse, from v towards the sink.
        s = sink_tree[v] ^ 1
        residual[s] -= 1
        residual[s ^ 1] += 1
        if not residual[s]:
            kept[1] = None
        v = to[s]
    return kept


def residual_reachable(fs: FlowState) -> bool:
    """True iff the sink is reachable from the source in the residual graph.

    Forward residual exists where flow is below capacity, backward residual
    where flow is positive.  For a maximal flow this is always False.  It
    reads :attr:`FlowState.source_tree`, so a flow from :func:`max_flow`
    answers without a search.
    """
    return fs.source_tree[fs.net.sink] >= 0


def lifts_by_one(fs: FlowState) -> Callable[[int], bool]:
    """The test "the source tree reaches arc a's tail and the sink tree its head" on the flow ``fs``.

    When ``fs`` is a maximum flow, every new augmenting path crosses a
    raised arc, so this is exactly "arc a, raised by one unit, lifts the
    max flow above ``fs.value``".  Both trees are read here, kept or
    searched once, and each arc asked about then costs O(1).  Arc ids are
    not checked: every caller draws them from the network.
    """
    heads, from_source, to_sink = fs.net.slot_heads, fs.source_tree, fs.sink_tree
    return lambda a: from_source[heads[2 * a - 1]] >= 0 and to_sink[heads[2 * a - 2]] >= 0


def lifting_arcs(fs: FlowState, arc_ids) -> set[int]:
    """The arcs among ``arc_ids`` that :func:`lifts_by_one` accepts.

    A caller that needs a few arcs, such as check-flaw asking about the
    unsaturated ones, pays for those, not for all m, and a flow whose
    trees are kept runs no search here.  On the zero flow with a cut's
    arcs closed and every other arc at one unit, which is maximal when the
    cut disconnects, they are, asked about every arc, the cut arcs whose
    reopening restores a source-sink path;
    :func:`dmincut.cuts.is_min_cut` decides minimality so.
    """
    return set(filter(lifts_by_one(fs), arc_ids))
