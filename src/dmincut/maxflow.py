"""Max-flow engine: shortest augmenting paths and residual searches.

The solver needs three primitives: the max-flow value W(X) of a network
under a capacity state X, the residual graph of a feasible flow, and the
question "which arcs, raised by one unit, lift the max flow above the d
units in place".  Max flow augments along shortest residual paths
(Edmonds-Karp), each found by one :func:`residual_levels` search; slots are
traversed in ascending arc-id order, so identical inputs always produce the
identical flow, not merely the same value.

Residual bookkeeping is per arc (slot pair), which makes anti-parallel
arcs work without node-splitting tricks, and a :class:`FlowState` keeps
that per-slot residual as the only record of its flow.  Every graph search
in the package is :func:`residual_levels` over such a slot list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .network import Network, StateVector

__all__ = ["FlowState", "max_flow", "residual_levels", "residual_reachable", "lifting_arcs",
           "zero_flow"]


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


def residual_levels(net: Network, residual, start: int, backward: int = 0) -> list[int]:
    """Breadth-first distances from ``start`` over slots with positive ``residual``.

    ``backward=1`` reads slot ``s ^ 1`` instead of ``s``, so the search runs
    against the residual arcs and measures distances *to* ``start``.
    Unreached nodes get -1; index 0 is unused.
    """
    adj = net.out_slots
    to = net.slot_heads
    level = [-1] * (net.node_count + 1)
    level[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for slot in adj[u]:
            v = to[slot]
            if residual[slot ^ backward] > 0 and level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def max_flow(net: Network, state: StateVector) -> FlowState:
    """Send as much flow as possible from source to sink under ``state``."""
    net.validate_state(state)
    source, sink = net.source, net.sink
    adj = net.out_slots
    to = net.slot_heads
    residual = [0] * (2 * net.arc_count)
    residual[::2] = state

    total = 0
    while True:
        level = residual_levels(net, residual, source)
        if level[sink] < 0:
            break
        # Walk one shortest path back from the sink.  The search reached each
        # node through a residual slot from the level below, so one is found.
        path: list[int] = []
        v = sink
        while v != source:
            below = level[v] - 1
            for slot in adj[v]:
                u = to[slot]
                if level[u] == below and residual[slot ^ 1] > 0:
                    path.append(slot ^ 1)
                    v = u
                    break
        sent = min(residual[slot] for slot in path)
        for slot in path:
            residual[slot] -= sent
            residual[slot ^ 1] += sent
        total += sent

    return FlowState(net=net, residual=tuple(residual), value=total)


def zero_flow(net: Network, state: StateVector) -> FlowState:
    """The all-zero flow under ``state`` (value 0)."""
    net.validate_state(state)
    return FlowState(net=net, residual=tuple(r for x in state for r in (x, 0)), value=0)


def residual_reachable(fs: FlowState) -> bool:
    """True iff the sink is reachable from the source in the residual graph.

    Forward residual exists where flow is below capacity, backward residual
    where flow is positive.  For a maximal flow this is always False.
    """
    net = fs.net
    return residual_levels(net, fs.residual, net.source)[net.sink] >= 0


def lifting_arcs(fs: FlowState) -> set[int]:
    """Ids of the arcs (u, v) where the source reaches u and v reaches the sink in the residual.

    One forward and one backward search classify every arc at once.  When
    ``fs`` is a maximum flow, every new augmenting path crosses a raised
    arc, so these are exactly the arcs whose capacity, raised by one unit,
    lifts the max flow above ``fs.value``.  On the zero flow with a cut's
    arcs closed and every other arc at one unit, which is maximal when the
    cut disconnects, they are the cut arcs whose reopening restores a
    source-sink path; :func:`dmincut.cuts.is_min_cut` decides minimality so.
    """
    net, residual = fs.net, fs.residual
    from_source = residual_levels(net, residual, net.source)
    to_sink = residual_levels(net, residual, net.sink, backward=1)
    return {a.index for a in net.arcs if from_source[a.tail] >= 0 and to_sink[a.head] >= 0}
