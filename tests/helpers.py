"""Shared test utilities: independent brute-force oracles and random instances.

The oracles here deliberately avoid the package's own graph machinery
(beyond the data model) so that agreement is meaningful: reachability and
cut scans are re-implemented from scratch.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from math import comb, fsum

from dmincut import (
    Arc,
    EdgeDistribution,
    FlowState,
    Network,
    ValidationError,
    enumerate_candidates,
    lifting_arcs,
    state_space_size,
    unsaturated_set,
    verify,
)


def reachable_from_source(net: Network, removed=frozenset(), positive_caps=None):
    """Plain BFS over arcs, skipping removed ids (and zero-capacity arcs if given)."""
    adj = {v: [] for v in range(1, net.node_count + 1)}
    for a in net.arcs:
        if a.index in removed:
            continue
        if positive_caps is not None and positive_caps[a.index - 1] <= 0:
            continue
        adj[a.tail].append(a.head)
    seen = {net.source}
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def residual_distances(net: Network, residual, start: int, backward=False) -> dict[int, int]:
    """Breadth-first distances from ``start`` over arcs with positive residual.

    Read from the arc list alone: arc i offers its tail-to-head direction
    when ``residual[2i-2] > 0`` and head-to-tail when ``residual[2i-1] > 0``.
    ``backward`` measures distances *to* ``start`` instead.  Reached nodes
    only.
    """
    adj = {v: [] for v in range(1, net.node_count + 1)}
    for a in net.arcs:
        for (u, v), room in (((a.tail, a.head), residual[2 * a.index - 2]),
                             ((a.head, a.tail), residual[2 * a.index - 1])):
            if room > 0:
                if backward:
                    u, v = v, u
                adj[u].append(v)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def assert_feasible(fs, state) -> None:
    """``fs`` is a feasible flow of value ``fs.value`` under the capacity state ``state``.

    Reads only ``fs.residual``: every slot is nonnegative, each arc's room
    and flow sum to its capacity in ``state``, and the flows (odd slots)
    are conserved at every node but the source and sink.
    """
    net = fs.net
    residual = fs.residual
    assert len(residual) == 2 * len(state) == 2 * net.arc_count
    assert all(r >= 0 for r in residual), residual
    for i, x in enumerate(state):
        assert residual[2 * i] + residual[2 * i + 1] == x, f"arc {i + 1} does not sum to {x}"
    balance = [0] * (net.node_count + 1)
    for arc, f in zip(net.arcs, residual[1::2]):
        balance[arc.tail] -= f
        balance[arc.head] += f
    for node in range(1, net.node_count + 1):
        if node == net.source:
            assert balance[node] == -fs.value
        elif node == net.sink:
            assert balance[node] == fs.value
        else:
            assert balance[node] == 0


def bump(net: Network, state, arc_id: int) -> tuple[int, ...]:
    """Return a copy of ``state`` with arc ``arc_id`` raised by one unit.

    Raising a saturated arc would leave the capacity box and raises
    :class:`ValidationError`.
    """
    if not 1 <= arc_id <= net.arc_count:
        raise ValidationError(f"arc id {arc_id} outside [1, {net.arc_count}]")
    i = arc_id - 1
    if state[i] >= net.max_capacities[i]:
        raise ValidationError(
            f"arc {arc_id} already at maximum capacity {net.max_capacities[i]}"
        )
    return state[:i] + (state[i] + 1,) + state[i + 1 :]


def every_arc(net: Network) -> range:
    """Every arc id of ``net``, ascending."""
    return range(1, net.arc_count + 1)


def verdict_by_set_formula(fs: FlowState, state, demand: int) -> tuple[bool, int | None]:
    """``(is_dmc, failing_arc)`` of the maximum flow ``fs`` under ``state``, by whole-network sets.

    The d-MC test as first written: W(X) = d, and the failing arcs are the
    unsaturated arcs minus the lifting arcs of every arc; the witness is
    the lowest of them.
    """
    if fs.value != demand:
        return False, None
    failing = unsaturated_set(fs.net, state) - lifting_arcs(fs, every_arc(fs.net))
    return not failing, min(failing, default=None)


def zero_flow(net: Network, state) -> FlowState:
    """The all-zero flow under ``state`` (value 0)."""
    net.validate_state(state)
    return FlowState(net=net, residual=tuple(r for x in state for r in (x, 0)), value=0)


def uniform_distribution(net: Network) -> EdgeDistribution:
    """Uniform pmf over 0..W(e) for every arc."""
    pmfs = tuple(tuple(1.0 / (w + 1) for _ in range(w + 1)) for w in net.max_capacities)
    dist = EdgeDistribution(pmfs)
    dist.validate(net)
    return dist


def serialize_network(net: Network, dist: EdgeDistribution | None = None) -> str:
    """Write a network (and optional distribution) back to the file format."""
    lines = [f"nodes {net.node_count} source {net.source} sink {net.sink}"]
    for a in net.arcs:
        lines.append(f"edge {a.index} {a.tail} {a.head} {a.max_capacity}")
    if dist is not None:
        for a, pmf in zip(net.arcs, dist.pmfs):
            lines.append(f"prob {a.index} " + " ".join(repr(p) for p in pmf))
    return "\n".join(lines) + "\n"


def cut_capacity_minimum(net: Network, state) -> int:
    """Min over all source/sink partitions of the forward capacity across the cut.

    By max-flow-min-cut this equals the max flow; it is the test suite's
    third, structurally different route to W(X).
    """
    others = [v for v in range(1, net.node_count + 1) if v not in (net.source, net.sink)]
    best = None
    for mask in range(1 << len(others)):
        side = {net.source}
        side.update(v for bit, v in enumerate(others) if mask >> bit & 1)
        capacity = sum(
            state[a.index - 1] for a in net.arcs if a.tail in side and a.head not in side
        )
        best = capacity if best is None else min(best, capacity)
    return best


def min_cuts_by_subsets(net: Network):
    """All minimal cuts by filtering every arc subset (independent of cuts.py)."""
    ids = [a.index for a in net.arcs]

    def cuts_st(removed):
        return net.sink not in reachable_from_source(net, frozenset(removed))

    found = []
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if cuts_st(combo) and all(not cuts_st(set(combo) - {a}) for a in combo):
                found.append(tuple(sorted(combo)))
    return sorted(found, key=lambda c: (len(c), c))


def box(net: Network):
    return itertools.product(*(range(w + 1) for w in net.max_capacities))


def random_network(
    rng: random.Random,
    max_nodes: int = 6,
    max_arcs: int = 8,
    max_cap: int = 3,
    max_states: int = 50_000,
) -> Network:
    """A random directed network with a structural source-sink path.

    Half the draws seed a source-to-sink backbone path before adding random
    arcs, which yields instances with several minimal cuts; the other half
    are fully random, which keeps degenerate shapes (single arc, dead ends,
    anti-parallel pairs) in the mix.
    """
    while True:
        n = rng.randint(2, max_nodes)
        pairs: list[tuple[int, int]] = []
        if rng.random() < 0.5 and n - 1 <= max_arcs:
            m = rng.randint(n - 1, max_arcs)
            pairs = [(v, v + 1) for v in range(1, n)]
        else:
            m = rng.randint(1, max_arcs)
        while len(pairs) < m:
            tail = rng.randint(1, n)
            head = rng.randint(1, n)
            while head == tail:
                head = rng.randint(1, n)
            pairs.append((tail, head))
        arcs = tuple(
            Arc(index=i + 1, tail=t, head=h, max_capacity=rng.randint(0, max_cap))
            for i, (t, h) in enumerate(pairs)
        )
        net = Network(node_count=n, arcs=arcs, source=1, sink=n)
        if net.sink not in reachable_from_source(net):
            continue
        if state_space_size(net) > max_states:
            continue
        return net


def grid_network(rows: int, cols: int, caps) -> Network:
    """The rows x cols grid: source -> each row start, right and down arcs, each row end -> sink.

    Node 1 is the source, cell (r, c) is node 2 + r*cols + c and the sink is
    the last node.  Arcs are numbered source arcs first, then each cell's
    right and down arcs in row-major order, then the sink arcs; ``caps``
    yields their maximum capacities in that order.
    """
    source, sink = 1, rows * cols + 2

    def cell(r, c):
        return 2 + r * cols + c

    pairs = [(source, cell(r, 0)) for r in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((cell(r, c), cell(r, c + 1)))
            if r + 1 < rows:
                pairs.append((cell(r, c), cell(r + 1, c)))
    pairs += [(cell(r, cols - 1), sink) for r in range(rows)]
    caps = iter(caps)
    arcs = tuple(
        Arc(index=i, tail=t, head=h, max_capacity=next(caps)) for i, (t, h) in enumerate(pairs, 1)
    )
    return Network(node_count=sink, arcs=arcs, source=source, sink=sink)


def random_state(rng: random.Random, net: Network):
    return tuple(rng.randint(0, w) for w in net.max_capacities)


def random_distribution(rng: random.Random, net: Network) -> EdgeDistribution:
    pmfs = []
    for w in net.max_capacities:
        weights = [rng.random() + 0.05 for _ in range(w + 1)]
        total = fsum(weights)
        pmfs.append(tuple(x / total for x in weights))
    dist = EdgeDistribution(tuple(pmfs))
    dist.validate(net)
    return dist


def union_by_inclusion_exclusion(vectors, dist: EdgeDistribution) -> float:
    """Pr[X <= some vector] by 2^k signed inclusion-exclusion terms over the k distinct vectors.

    The intersection of the boxes below a group of vectors is the box below
    their componentwise minimum.  Exponential in k, so kept to k <= 14.
    """
    unique = sorted(set(map(tuple, vectors)))
    if len(unique) > 14:
        raise ValueError(f"{len(unique)} vectors: 2^k terms are too many for a test")
    cdfs = [list(itertools.accumulate(pmf)) for pmf in dist.pmfs]
    terms = []
    for r in range(1, len(unique) + 1):
        for group in itertools.combinations(unique, r):
            mass = 1.0
            for cdf, column in zip(cdfs, zip(*group)):
                mass *= cdf[min(column)]
            terms.append(mass if r % 2 else -mass)
    return fsum(terms)


def union_by_box_sweep(net: Network, vectors, dist: EdgeDistribution) -> float:
    """Pr[X <= some vector]: the pmf mass of every state in the box that some vector dominates."""
    tops = set(map(tuple, vectors))
    terms = []
    for state in box(net):
        if any(all(x <= y for x, y in zip(state, top)) for top in tops):
            mass = 1.0
            for pmf, x in zip(dist.pmfs, state):
                mass *= pmf[x]
            terms.append(mass)
    return fsum(terms)


def count_by_inclusion_exclusion(caps, total: int) -> int:
    """Number of vectors 0 <= x_i <= caps[i] with sum(x) == total, by signed overflow terms.

    Inclusion-exclusion over the groups of arcs forced past their cap:
    subtracting cap+1 from the total for each member of a group reduces the
    bounded count to an unbounded stars-and-bars term.  Only groups that
    leave a nonnegative total contribute, so only those are built; there
    are up to 2^k of them.
    """
    k = len(caps)
    if total < 0:
        return 0
    if k == 0:
        return 1 if total == 0 else 0
    groups = [(total, 0)]  # (reduced total, group size)
    for cap in caps:
        groups += [(reduced - cap - 1, size + 1) for reduced, size in groups if reduced > cap]
    return sum((-1) ** size * comb(reduced + k - 1, k - 1) for reduced, size in groups)


def reference_dmcs(net: Network, demand: int, cuts) -> tuple[tuple, int]:
    """The per-candidate loop the solver's search replaced: ``verify`` on every candidate of every cut.

    Returns the sorted d-MCs and how many accepted candidates repeated one
    already found.
    """
    found = set()
    duplicates = 0
    for cut in cuts:
        for cand in enumerate_candidates(net, cut, demand):
            if verify(net, cand, demand).is_dmc:
                if cand in found:
                    duplicates += 1
                else:
                    found.add(cand)
    return tuple(sorted(found)), duplicates
