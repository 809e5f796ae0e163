"""Brute-force ground truth for validating the solver.

Everything works straight from definitions: d-MCs are found by sweeping
the whole capacity box and testing each vector literally, and
``reliability_exhaustive`` is a probability-weighted sweep.  The max-flow
routine is a deliberately separate implementation (shortest augmenting
paths) so that agreement between solver and oracle is a genuine
cross-check, not the same code called twice.

``reliability_exhaustive`` is what the production route,
``dmincut.reliability.reliability_from_dmcs``, is checked against.

All sweeps refuse to run past an explicit guard instead of silently
sampling: a sweep counts the states it visits.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import fsum, prod
from typing import Iterable, Sequence

from .errors import StateSpaceLimitError, ValidationError
from .network import EdgeDistribution, Network, StateVector

STATE_SPACE_GUARD = 10**7
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
