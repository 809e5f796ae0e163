"""Max-flow engine: shortest augmenting paths and residual searches.

The solver needs three primitives: the max-flow value W(X) of a network
under a capacity state X, the residual graph of a feasible flow, and the
question "which arcs, raised by one unit, lift the max flow above the d
units in place".  Max flow augments along shortest residual paths
(Edmonds-Karp): each path is the one a :func:`residual_tree` search
entered the sink by, walked back through the entry slots.  Slots are
traversed in ascending arc-id order, so identical inputs always produce the
identical flow, not merely the same value.  That loop is :func:`augment`:
:func:`max_flow` runs it from the zero flow, and the solver runs it from a
flow in hand after raising capacities, which keeps that flow feasible.

Residual bookkeeping is per arc (slot pair), which makes anti-parallel
arcs work without node-splitting tricks, and a :class:`FlowState` keeps
that per-slot residual as the only record of its flow.  Every graph search
in the package is :func:`residual_tree` over such a slot list.  The search
that ends a max flow, the one that no longer reaches the sink, is the
forward search of its residual; the :class:`FlowState` keeps it as
:attr:`FlowState.source_tree`, so classifying a max flow costs one backward
search more, not two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .network import Network, StateVector

__all__ = ["FlowState", "augment", "max_flow", "residual_tree", "residual_reachable", "lifting_arcs"]


class _kept:
    """A computed attribute stored in the instance on first read, like ``functools.cached_property``.

    Before Python 3.12 ``cached_property`` takes a lock on every first
    read, which costs as much as a small search; the solver reads a new
    flow's source tree once per leaf.
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

        :func:`max_flow` stores its last search here.  The cache is not a
        field: equality and repr ignore it, and ``dataclasses.replace``
        builds a new state that searches its own residual again.
        """
        return residual_tree(self.net, self.residual, self.net.source)


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

    Each path is the one a :func:`residual_tree` search entered the sink
    by, walked back through the entry slots.  Returns the units sent and,
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


def residual_reachable(fs: FlowState) -> bool:
    """True iff the sink is reachable from the source in the residual graph.

    Forward residual exists where flow is below capacity, backward residual
    where flow is positive.  For a maximal flow this is always False.  It
    reads :attr:`FlowState.source_tree`, so a flow from :func:`max_flow`
    answers without a search.
    """
    return fs.source_tree[fs.net.sink] >= 0


def lifting_arcs(fs: FlowState, arc_ids) -> set[int]:
    """The arcs (u, v) among ``arc_ids`` where the source reaches u and v reaches the sink in the residual.

    ``arc_ids`` are ids of arcs of ``fs.net``, 1..m; they are not checked
    here, since every caller draws them from the network.  One forward and
    one backward search classify every arc at once; the forward one is
    :attr:`FlowState.source_tree`, which a flow from :func:`max_flow`
    already holds, so only the backward search runs here, and each arc
    asked about costs O(1) more: a caller that needs a few arcs, such as a
    d-MC test asking about the unsaturated ones, pays for those, not for
    all m.  When ``fs`` is a maximum flow, every new augmenting path
    crosses a raised arc, so these are exactly the asked arcs whose
    capacity, raised by one unit, lifts the max flow above ``fs.value``.
    On the zero flow with a cut's arcs closed and every other arc at one
    unit, which is maximal when the cut disconnects, they are, asked about
    every arc, the cut arcs whose reopening restores a source-sink path;
    :func:`dmincut.cuts.is_min_cut` decides minimality so.
    """
    net, from_source = fs.net, fs.source_tree
    to_sink = residual_tree(net, fs.residual, net.sink, backward=1)
    arcs = net.arcs
    return {a for a in arc_ids if from_source[arcs[a - 1].tail] >= 0 and to_sink[arcs[a - 1].head] >= 0}
