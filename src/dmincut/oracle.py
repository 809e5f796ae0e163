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
silently sampling.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import fsum
from operator import le
from typing import Iterable, Sequence

from .errors import StateSpaceLimitError, ValidationError
from .network import EdgeDistribution, Network, StateVector

STATE_SPACE_GUARD = 10**7
UNION_WORK_GUARD = 5 * 10**6
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
    size = 1
    for w in net.max_capacities:
        size *= w + 1
    return size


def _check_guard(net: Network) -> None:
    size = state_space_size(net)
    if size > STATE_SPACE_GUARD:
        raise StateSpaceLimitError(
            f"state space has {size} vectors, above the exhaustive guard {STATE_SPACE_GUARD}"
        )


def _box(net: Network) -> Iterable[StateVector]:
    return itertools.product(*(range(w + 1) for w in net.max_capacities))


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
            mass = 1.0
            for pmf, x in zip(dist.pmfs, state):
                mass *= pmf[x]
            terms.append(mass)
    return fsum(terms)


def reliability_from_dmcs(
    net: Network, dmcs: Sequence[StateVector], dist: EdgeDistribution
) -> float:
    """Pr[W <= d] from the complete d-MC set, as a sum of disjoint boxes.

    The d-MCs are the maximal vectors of {X : W(X) <= d}, so that set is the
    union of the boxes [0, u] below each of them.  This is the production
    union, not a brute-force sweep.  A subproblem is a lower corner ``lo``
    and the maximal upper corners of the boxes [lo, u] still to cover.  Take
    a pivot v among them and count the box [lo, v]; the rest of the region
    splits into m disjoint slabs, slab i holding lo_j <= x_j <= v_j for
    j < i and x_i > v_i, and each slab becomes a subproblem with the other
    boxes clipped to it (recursive sum of disjoint products; Zuo, Tian &
    Huang 2007).  Every term is a nonnegative product of per-arc interval
    masses, so nothing cancels.  The complement 1 - result is Pr[W >= d+1].

    The dominance filter compares up to c^2 vector pairs for a list of c
    boxes; once those counts add up past ``UNION_WORK_GUARD`` the call
    refuses before doing that work.
    """
    dist.validate(net)
    unique = sorted(set(tuple(v) for v in dmcs))
    if not unique:
        raise ValidationError("empty d-MC set: the union of zero boxes carries no probability")
    for v in unique:
        net.validate_state(v)
    pmfs = dist.pmfs
    m = net.arc_count
    work = 0

    def maximal(vectors: list[StateVector]) -> list[StateVector]:
        """The vectors no other one dominates, each once, largest coordinate sum first."""
        nonlocal work
        work += len(vectors) ** 2
        if work > UNION_WORK_GUARD:
            raise StateSpaceLimitError(
                f"splitting the union of {len(unique)} d-MC boxes into disjoint boxes needs more"
                f" dominance comparisons than the guard UNION_WORK_GUARD={UNION_WORK_GUARD}"
            )
        kept: list[StateVector] = []
        for u in sorted(set(vectors), key=sum, reverse=True):
            if not any(all(map(le, u, w)) for w in kept):
                kept.append(u)
        return kept

    terms: list[float] = []
    stack = [((0,) * m, maximal(unique))]
    while stack:
        lo, uppers = stack.pop()
        v = uppers[0]
        mass = 1.0
        for pmf, a, b in zip(pmfs, lo, v):
            mass *= fsum(pmf[a : b + 1])
        terms.append(mass)
        for i, vi in enumerate(v):
            slab = [tuple(map(min, u[:i], v)) + u[i:] for u in uppers if u[i] > vi]
            if slab:
                stack.append((lo[:i] + (vi + 1,) + lo[i + 1 :], maximal(slab)))
    return fsum(terms)
