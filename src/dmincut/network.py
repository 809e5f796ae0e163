"""Data model for capacitated stochastic-flow networks.

A network is a directed graph with 1-based arc ids, a designated source and
sink, and a per-arc maximum capacity.  A *state vector* X assigns each arc a
current integer capacity between 0 and its maximum; it is represented as a
plain tuple of ints so that states are hashable, immutable and cheap to copy.

The module also owns the line-oriented network file format::

    # comments allowed anywhere
    nodes <n> source <s> sink <t>
    edge <id> <tail> <head> <max_capacity>      (one line per arc, ids 1..m in order)
    prob <id> <p0> <p1> ... <pW>                (optional pmf over states 0..W)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import fsum
from operator import le, lt

from .errors import NetworkParseError, ValidationError

StateVector = tuple[int, ...]

# Guard on sum of capacities so downstream integer accumulation stays in
# machine-word range even when the implementation language would allow more.
MAX_TOTAL_CAPACITY = 2**63 - 1

# Guard on the declared node count: the residual adjacency and every search
# allocate one entry per declared node, however few arcs there are.
MAX_NODE_COUNT = 10**6

PMF_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Arc:
    """Directed arc with a 1-based id and a nonnegative maximum capacity."""

    index: int
    tail: int
    head: int
    max_capacity: int


@dataclass(frozen=True)
class Network:
    """Immutable directed network with source/sink and max-capacity vector.

    Invariants are checked at construction: arc ids are exactly 1..m in
    order, node ids lie in [1, node_count], the source differs from the
    sink, self-loops are rejected and capacities are nonnegative.  The
    fields never change; besides derived tables, an instance only grows
    its record of proven minimal cuts (see :mod:`dmincut.cuts`).
    """

    node_count: int
    arcs: tuple[Arc, ...]
    source: int
    sink: int

    def __post_init__(self):
        if self.node_count < 2:
            raise ValidationError(f"need at least 2 nodes, got {self.node_count}")
        if self.node_count > MAX_NODE_COUNT:
            raise ValidationError(
                f"{self.node_count} nodes exceed the guard MAX_NODE_COUNT={MAX_NODE_COUNT}"
            )
        if self.source == self.sink:
            raise ValidationError("source and sink must differ")
        for label, node in (("source", self.source), ("sink", self.sink)):
            if not 1 <= node <= self.node_count:
                raise ValidationError(f"{label} node {node} outside [1, {self.node_count}]")
        total = 0
        for pos, arc in enumerate(self.arcs, start=1):
            if arc.index != pos:
                raise ValidationError(f"arc ids must be 1..m in order; got id {arc.index} at position {pos}")
            if arc.tail == arc.head:
                raise ValidationError(f"arc {arc.index} is a self-loop at node {arc.tail}")
            for node in (arc.tail, arc.head):
                if not 1 <= node <= self.node_count:
                    raise ValidationError(f"arc {arc.index} references node {node} outside [1, {self.node_count}]")
            if arc.max_capacity < 0:
                raise ValidationError(f"arc {arc.index} has negative capacity {arc.max_capacity}")
            total += arc.max_capacity
        if total > MAX_TOTAL_CAPACITY:
            raise ValidationError("total capacity exceeds the machine-integer guard")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def max_capacities(self) -> StateVector:
        """The saturated state: every arc at its maximum capacity."""
        return tuple(a.max_capacity for a in self.arcs)

    @cached_property
    def out_slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Residual-graph adjacency as ``(slot, head)`` pairs, indexed by node (0 unused).

        Slot 2*(i-1) is the forward direction of arc i, slot 2*(i-1)+1 the
        backward direction, and ``head`` is ``slot_heads[slot]``.  Built in
        ascending arc order so every traversal that follows slot order
        breaks ties by arc id.
        """
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count + 1)]
        for a in self.arcs:
            base = 2 * (a.index - 1)
            adj[a.tail].append((base, a.head))
            adj[a.head].append((base + 1, a.tail))
        return tuple(tuple(s) for s in adj)

    @cached_property
    def _proven_min_cuts(self) -> set[tuple[int, ...]]:
        """Sorted arc-id tuples already shown to be minimal cuts of this network.

        Only :mod:`dmincut.cuts` reads or adds to it.  Like every cached
        property here it is not a field, so equality, hash and repr ignore it.
        """
        return set()

    @cached_property
    def slot_heads(self) -> tuple[int, ...]:
        """Target node of each residual slot (paired with :attr:`out_slots`)."""
        heads: list[int] = []
        for a in self.arcs:
            heads.append(a.head)
            heads.append(a.tail)
        return tuple(heads)

    def validate_state(self, state: StateVector) -> None:
        """Raise unless ``state`` lies in the box [0, W] componentwise."""
        # One pass at C speed accepts a state in the box; anything else takes
        # the loop below, which names the first offending arc.
        if (len(state) == self.arc_count and all(map(le, state, self.max_capacities))
                and min(state, default=0) >= 0):
            return
        if len(state) != self.arc_count:
            raise ValidationError(f"state vector has length {len(state)}, expected {self.arc_count}")
        for arc, x in zip(self.arcs, state):
            if not 0 <= x <= arc.max_capacity:
                raise ValidationError(f"arc {arc.index}: capacity {x} outside [0, {arc.max_capacity}]")


def unsaturated_arcs(net: Network, state: StateVector):
    """Ids of arcs strictly below their maximum capacity, ascending, as a lazy iterator."""
    return compress(range(1, net.arc_count + 1), map(lt, state, net.max_capacities))


def unsaturated_set(net: Network, state: StateVector) -> set[int]:
    """Ids of arcs strictly below their maximum capacity."""
    return set(unsaturated_arcs(net, state))


def format_vector(state: StateVector) -> str:
    """Render a state vector as ``(x1,x2,...,xm)``."""
    return "(" + ",".join(str(x) for x in state) + ")"


@dataclass(frozen=True)
class EdgeDistribution:
    """Independent per-arc probability mass functions over capacity states.

    ``pmfs[i][v]`` is the probability that arc i+1 has capacity v; each pmf
    covers states 0..W(e) and must sum to 1 within ``PMF_SUM_TOLERANCE``.
    """

    pmfs: tuple[tuple[float, ...], ...]

    def validate(self, net: Network) -> None:
        if len(self.pmfs) != net.arc_count:
            raise ValidationError(f"{len(self.pmfs)} pmfs for {net.arc_count} arcs")
        for arc, pmf in zip(net.arcs, self.pmfs):
            if len(pmf) != arc.max_capacity + 1:
                raise ValidationError(
                    f"arc {arc.index}: pmf has {len(pmf)} entries, expected {arc.max_capacity + 1}"
                )
            if not all(0.0 <= p <= 1.0 for p in pmf):
                raise ValidationError(f"arc {arc.index}: probability mass is negative, NaN or above 1")
            if abs(fsum(pmf) - 1.0) > PMF_SUM_TOLERANCE:
                raise ValidationError(f"arc {arc.index}: pmf sums to {fsum(pmf)!r}, not 1")


def _tokenize(text: str):
    """Yield (line_no, tokens) for non-empty, non-comment lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


# What each field of an edge line holds, as its parse errors name it.
_EDGE_FIELDS = ("arc id", "tail", "head", "capacity")


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetworkParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def parse_network(text: str) -> Network:
    """Parse the network file format into a validated :class:`Network`.

    ``prob`` lines are tolerated here and read by
    :func:`parse_edge_distribution`.
    """
    header = None
    edges: list[tuple[int, Arc]] = []
    for line_no, tokens in _tokenize(text):
        kind = tokens[0]
        if kind == "nodes":
            if header is not None:
                raise NetworkParseError(line_no, "duplicate 'nodes' header")
            if len(tokens) != 6 or tokens[2] != "source" or tokens[4] != "sink":
                raise NetworkParseError(line_no, "expected 'nodes <n> source <s> sink <t>'")
            header = (
                _parse_int(tokens[1], line_no, "node count"),
                _parse_int(tokens[3], line_no, "source"),
                _parse_int(tokens[5], line_no, "sink"),
            )
        elif kind == "edge":
            if len(tokens) != 5:
                raise NetworkParseError(line_no, "expected 'edge <id> <tail> <head> <max_capacity>'")
            try:
                arc = Arc(*map(int, tokens[1:]))
            except ValueError:
                # The slow path names the first field that is not an integer.
                arc = Arc(*(_parse_int(token, line_no, what) for token, what in zip(tokens[1:], _EDGE_FIELDS)))
            edges.append((line_no, arc))
        elif kind == "prob":
            continue
        else:
            raise NetworkParseError(line_no, f"unknown directive {kind!r}")
    if header is None:
        raise NetworkParseError(1, "missing 'nodes' header")
    seen: set[int] = set()
    for line_no, arc in edges:
        if arc.index in seen:
            raise NetworkParseError(line_no, f"duplicate arc id {arc.index}")
        seen.add(arc.index)
    node_count, source, sink = header
    return Network(node_count=node_count, arcs=tuple(a for _, a in edges), source=source, sink=sink)


def parse_edge_distribution(text: str, net: Network) -> EdgeDistribution | None:
    """Read ``prob`` lines from a network file.

    Returns None when the network has arcs and the file carries no
    ``prob`` line at all; a partial set of pmfs is rejected because
    reliability needs every arc covered.  A network with no arcs needs no
    line: it gets the empty distribution.
    """
    pmfs: dict[int, tuple[float, ...]] = {}
    for line_no, tokens in _tokenize(text):
        if tokens[0] != "prob":
            continue
        if len(tokens) < 3:
            raise NetworkParseError(line_no, "expected 'prob <id> <p0> ... <pW>'")
        arc_id = _parse_int(tokens[1], line_no, "arc id")
        if not 1 <= arc_id <= net.arc_count:
            raise NetworkParseError(line_no, f"prob references unknown arc {arc_id}")
        if arc_id in pmfs:
            raise NetworkParseError(line_no, f"duplicate prob line for arc {arc_id}")
        try:
            pmfs[arc_id] = tuple(map(float, tokens[2:]))
        except ValueError:
            raise NetworkParseError(line_no, "probabilities must be numbers") from None
    if not pmfs and net.arcs:
        return None
    missing = [a.index for a in net.arcs if a.index not in pmfs]
    if missing:
        raise ValidationError(f"missing pmf for arcs {missing}")
    dist = EdgeDistribution(tuple(pmfs[i] for i in range(1, net.arc_count + 1)))
    dist.validate(net)
    return dist

