"""Seeded instance generators; the program only ever sees the files they write.

Two families:

* grid networks: source -> each row start, right and down arcs, each row
  end -> sink, arc capacities drawn from 1..3;
* small random networks in the shape of the acceptance sweep (at most 6
  nodes, 8 arcs, capacities 0..3) with a random pmf per arc.

The generators live here, not in the test suite, so that editing a test
cannot change a workload.  Each draws from its own ``random.Random``
keyed by the seed, so the same seed always yields the same files.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from math import fsum, prod

MAX_NODES = 6
MAX_ARCS = 8
MAX_CAP = 3
MAX_STATES = 20_000


@dataclass(frozen=True)
class Instance:
    """A network as plain data: arcs are (tail, head, max_capacity), ids 1..m."""

    node_count: int
    source: int
    sink: int
    arcs: tuple[tuple[int, int, int], ...]
    pmfs: tuple[tuple[float, ...], ...] | None = None

    def text(self) -> str:
        """The instance in the network file format."""
        lines = [f"nodes {self.node_count} source {self.source} sink {self.sink}"]
        lines += [f"edge {i} {t} {h} {w}" for i, (t, h, w) in enumerate(self.arcs, start=1)]
        if self.pmfs is not None:
            lines += [
                f"prob {i} " + " ".join(repr(p) for p in pmf)
                for i, pmf in enumerate(self.pmfs, start=1)
            ]
        return "\n".join(lines) + "\n"


def grid_shape(rows: int, cols: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Node count and (tail, head) pairs of the rows x cols grid, in arc-id order.

    Node 1 is the source, cell (r, c) is node 2 + r*cols + c and the sink
    is the last node.  Arcs: source -> each row start, then per cell in
    row-major order its right and down arcs, then each row end -> sink.
    """
    source, sink = 1, rows * cols + 2

    def cell(r: int, c: int) -> int:
        return 2 + r * cols + c

    pairs = [(source, cell(r, 0)) for r in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((cell(r, c), cell(r, c + 1)))
            if r + 1 < rows:
                pairs.append((cell(r, c), cell(r + 1, c)))
    pairs += [(cell(r, cols - 1), sink) for r in range(rows)]
    return sink, tuple(pairs)


def grid_network(rows: int, cols: int, seed: int) -> Instance:
    """The seeded rows x cols grid with capacities 1..3."""
    rng = random.Random(f"grid-{rows}x{cols}:{seed}")
    node_count, pairs = grid_shape(rows, cols)
    arcs = tuple((t, h, rng.randint(1, 3)) for t, h in pairs)
    return Instance(node_count=node_count, source=1, sink=node_count, arcs=arcs)


def _sink_reachable(node_count: int, arcs) -> bool:
    adj: list[list[int]] = [[] for _ in range(node_count + 1)]
    for tail, head, _ in arcs:
        adj[tail].append(head)
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return node_count in seen


def random_network(rng: random.Random) -> Instance:
    """A random network with a structural source-sink path and a random pmf per arc.

    Half the draws lay a source-to-sink backbone path before adding random
    arcs; the rest are fully random.  Draws whose capacity box exceeds
    ``MAX_STATES`` vectors are discarded, which bounds the cost of the
    exhaustive reference.
    """
    while True:
        n = rng.randint(2, MAX_NODES)
        pairs: list[tuple[int, int]] = []
        if rng.random() < 0.5:
            m = rng.randint(n - 1, MAX_ARCS)
            pairs = [(v, v + 1) for v in range(1, n)]
        else:
            m = rng.randint(1, MAX_ARCS)
        while len(pairs) < m:
            tail = rng.randint(1, n)
            head = rng.randint(1, n)
            while head == tail:
                head = rng.randint(1, n)
            pairs.append((tail, head))
        arcs = tuple((t, h, rng.randint(0, MAX_CAP)) for t, h in pairs)
        if not _sink_reachable(n, arcs):
            continue
        if prod(w + 1 for _, _, w in arcs) > MAX_STATES:
            continue
        pmfs = []
        for _, _, w in arcs:
            weights = [rng.random() + 0.05 for _ in range(w + 1)]
            total = fsum(weights)
            pmfs.append(tuple(x / total for x in weights))
        return Instance(node_count=n, source=1, sink=n, arcs=arcs, pmfs=tuple(pmfs))
