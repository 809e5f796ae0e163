"""Brute-force ground truth for validating the solver, and the reliability union.

Everything but the union works straight from definitions: d-MCs are found
by sweeping the whole capacity box and testing each vector literally, and
``reliability_exhaustive`` is a probability-weighted sweep.  The max-flow
routine is a deliberately separate implementation (shortest augmenting
paths) so that agreement between solver and oracle is a genuine
cross-check, not the same code called twice.

``reliability_from_dmcs`` is the production reliability route: it splits
the union of the boxes below a d-MC set into disjoint boxes, and
``reliability_exhaustive`` is what it is checked against.

All sweeps, and the union, refuse to run past an explicit guard instead of
silently sampling: a sweep counts states, the union the coordinates its
split reads.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, compress, product
from math import fsum, prod
from operator import gt
from typing import Iterable, Sequence

from .errors import StateSpaceLimitError, ValidationError
from .network import EdgeDistribution, Network, StateVector

STATE_SPACE_GUARD = 10**7
# Coordinates the union's split may read.  A unit costs about 70-90 ns (2-vCPU VM, CPython 3.11),
# so the limit admits about 11-14 s.  The seed-1 4x4 grid's hardest levels, d = 1 and 2, charge
# 1.22*10^8 and 1.43*10^8.
UNION_WORK_GUARD = 15 * 10**7
RELIABILITY_TOLERANCE = 1e-12


class _AugmentingPathFlow:
    """Shortest-augmenting-path max flow, independent of the main engine."""

    def __init__(self, net: Network):
        self.n = net.node_count
        self.source = net.source
        self.sink = net.sink
        self.tails = [a.tail for a in net.arcs]
        self.heads = [a.head for a in net.arcs]
        self.m = net.arc_count
        self.neighbors: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i in range(self.m):
            self.neighbors[self.tails[i]].append(2 * i)
            self.neighbors[self.heads[i]].append(2 * i + 1)

    def value(self, state: Sequence[int]) -> int:
        residual = [0] * (2 * self.m)
        for i in range(self.m):
            residual[2 * i] = state[i]
        heads = self.heads
        tails = self.tails
        total = 0
        while True:
            came_from: dict[int, tuple[int, int]] = {self.source: (-1, -1)}
            queue = deque([self.source])
            while queue:
                u = queue.popleft()
                if u == self.sink:
                    break
                for slot in self.neighbors[u]:
                    if residual[slot] <= 0:
                        continue
                    v = heads[slot // 2] if slot % 2 == 0 else tails[slot // 2]
                    if v not in came_from:
                        came_from[v] = (u, slot)
                        queue.append(v)
            if self.sink not in came_from:
                return total
            bottleneck = None
            v = self.sink
            while v != self.source:
                u, slot = came_from[v]
                bottleneck = residual[slot] if bottleneck is None else min(bottleneck, residual[slot])
                v = u
            v = self.sink
            while v != self.source:
                u, slot = came_from[v]
                residual[slot] -= bottleneck
                residual[slot ^ 1] += bottleneck
                v = u
            total += bottleneck


def state_space_size(net: Network) -> int:
    return prod(w + 1 for w in net.max_capacities)


def _check_guard(net: Network) -> None:
    size = state_space_size(net)
    if size > STATE_SPACE_GUARD:
        raise StateSpaceLimitError(
            f"state space has {size} vectors, above the exhaustive guard {STATE_SPACE_GUARD}"
        )


def _box(net: Network) -> Iterable[StateVector]:
    return product(*(range(w + 1) for w in net.max_capacities))


def max_flow_value(net: Network, state: StateVector) -> int:
    """Max-flow value by the oracle's own algorithm (for cross-checks)."""
    net.validate_state(state)
    return _AugmentingPathFlow(net).value(state)


def flow_table(net: Network) -> dict[StateVector, int]:
    """Max-flow value of every state vector in the box, computed independently."""
    _check_guard(net)
    engine = _AugmentingPathFlow(net)
    return {state: engine.value(state) for state in _box(net)}


def dmc_levels(net: Network, table: dict[StateVector, int] | None = None) -> dict[int, tuple[StateVector, ...]]:
    """All d-MC sets of the network, keyed by level, straight from the definition.

    A vector belongs to level d = W(X) when every unit bump on an
    unsaturated arc strictly raises the max flow.
    """
    if table is None:
        table = flow_table(net)
    caps = net.max_capacities
    m = net.arc_count
    levels: dict[int, list[StateVector]] = {}
    for state, value in table.items():
        maximal = True
        for i in range(m):
            if state[i] < caps[i]:
                bumped = state[:i] + (state[i] + 1,) + state[i + 1 :]
                if table[bumped] <= value:
                    maximal = False
                    break
        if maximal:
            levels.setdefault(value, []).append(state)
    return {d: tuple(vectors) for d, vectors in levels.items()}


def brute_force_dmcs(net: Network, demand: int) -> tuple[StateVector, ...]:
    """Every d-MC at the given level, by exhaustive definitional sweep, sorted."""
    if demand < 0:
        raise ValidationError(f"demand must be nonnegative, got {demand}")
    return dmc_levels(net).get(demand, ())


def reliability_exhaustive(net: Network, dist: EdgeDistribution, demand: int) -> float:
    """Pr[W >= demand], the probability that the max flow meets the demand, by full enumeration."""
    dist.validate(net)
    _check_guard(net)
    engine = _AugmentingPathFlow(net)
    terms = []
    for state in _box(net):
        if engine.value(state) >= demand:
            terms.append(prod(pmf[x] for pmf, x in zip(dist.pmfs, state)))
    return fsum(terms)


def _cumulative(pmf: Sequence[float]) -> list[float]:
    """The sums 0, p_0, p_0 + p_1, ... of ``pmf``: the mass of [a, b] is c[b + 1] - c[a].

    Summed left to right, they never fall, so no mass is negative.  The
    last is the pmf's ``fsum`` (kept no lower than the one before it), so
    a box over an arc's whole range reads the arc's total with one rounding.
    """
    c = list(accumulate(pmf, initial=0.0))
    c[-1] = max(c[-2], fsum(pmf))
    return c


def reliability_from_dmcs(
    net: Network, dmcs: Sequence[StateVector], dist: EdgeDistribution
) -> float:
    """Pr[W <= d] from the complete d-MC set, as a sum of disjoint boxes.

    The d-MCs are the maximal vectors of {X : W(X) <= d}, so that set is the
    union of the boxes [0, u] below each of them.  This is the production
    union, not a brute-force sweep.  A subproblem is a lower corner ``lo``
    and the set of upper corners of the boxes [lo, u] still to cover.  Take
    a pivot v among them and count the box [lo, v]; the rest of the region
    splits into m disjoint slabs, one per coordinate, each holding
    x_i > v_i and lo_j <= x_j <= v_j for every coordinate j before i in the
    subproblem's slab order.  Each slab becomes a subproblem with the boxes
    that reach into it, clipped to it (recursive sum of disjoint products;
    Zuo, Tian & Huang 2007).  The split is exact for any set of corners and
    any order, so dominated ones need no filter: the pivot is a corner of
    largest coordinate sum, which no other corner strictly dominates, and a
    corner below it enters none of its slabs.  A subproblem with one box
    adds it and passes no slab on.  Every term is a nonnegative product of
    per-arc interval masses, each the difference of two cumulative sums of
    its pmf, so nothing cancels.  The complement 1 - result is Pr[W >= d+1].

    One pass over a subproblem's boxes finds the coordinates where each
    exceeds the pivot; a box enters the slab of each such coordinate and
    no other, so only those slabs are built.  Each subproblem orders its
    slabs by fewest taken boxes first, ties by arc id, and a box is clipped
    only on its coordinates that come earlier in that order, so the slabs
    that take the most boxes come last and take them clipped the most.
    On the seed-1 4x4 grid that order charges 1.1-1.5x less than arc order
    at d = 1..3, and 8% more at d = 0.

    The work is charged in coordinates read: m for each d-MC, and m for
    each box a slab takes, before it is clipped.  A subproblem scans each
    of its boxes once, and a slab copies each box it takes once, so the
    charge bounds the split within a small constant factor.  The call
    refuses before it clips the slab that takes the charge past
    ``UNION_WORK_GUARD``, and before any mass is read when the d-MCs alone
    do.
    """
    dist.validate(net)
    unique = sorted(set(tuple(v) for v in dmcs))
    if not unique:
        raise ValidationError("empty d-MC set: the union of zero boxes carries no probability")
    for v in unique:
        net.validate_state(v)
    m = net.arc_count
    work = 0

    def charge(boxes: int) -> None:
        nonlocal work
        work += m * boxes
        if work > UNION_WORK_GUARD:
            raise StateSpaceLimitError(
                f"splitting the union of {len(unique)} d-MC boxes into disjoint boxes reads more"
                f" coordinates than the guard UNION_WORK_GUARD={UNION_WORK_GUARD}"
            )

    charge(len(unique))
    cumulative = [_cumulative(pmf) for pmf in dist.pmfs]
    arcs = range(m)
    terms: list[float] = []
    stack = [((0,) * m, unique)]
    while stack:
        lo, uppers = stack.pop()
        v = max(uppers, key=sum)
        mass = 1.0
        for c, a, b in zip(cumulative, lo, v):
            mass *= c[b + 1] - c[a]
        terms.append(mass)
        if len(uppers) == 1:
            continue
        taken: dict[int, list[list[int]]] = {}
        for u in uppers:
            over = list(compress(arcs, map(gt, u, v)))
            if over:
                box = list(u)
                for i in over:
                    taken.setdefault(i, []).append(box)
        for i in sorted(taken, key=lambda i: (len(taken[i]), i)):
            boxes = taken[i]
            charge(len(boxes))
            stack.append((lo[:i] + (v[i] + 1,) + lo[i + 1 :], set(map(tuple, boxes))))
            # Later slabs in the order see these boxes clipped to the pivot here.
            for box in boxes:
                box[i] = v[i]
    return fsum(terms)
