"""Candidate generation: bounded integer compositions over a cut.

A d-MC candidate is a state vector that gives the arcs of one minimal cut
capacities summing to the demand d (each within its maximum) and every
off-cut arc its full capacity.  A cut's stream yields these vectors as
plain tuples, lazily, in ascending lexicographic order of the on-cut
components.  The stream length is counted apart, by a prefix-sum dynamic
program over the cut's arcs in O(k*d) for k arcs at demand d; the solver's
search accounts for exactly that many candidates.  A cut whose counting
table would need more than ``COMPOSITION_WORK_GUARD`` cells is refused,
before any table is built or any candidate is streamed.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .cuts import MinCut, refuse_repeated_arcs
from .errors import StateSpaceLimitError, ValidationError
from .network import Network, StateVector

COMPOSITION_WORK_GUARD = 10**7


def _refuse_huge_table(k: int, total: int, spare: int) -> None:
    """Raise unless a counting table of k·min(total, spare) cells fits in ``COMPOSITION_WORK_GUARD``.

    That is the table :func:`count_compositions` builds for k arcs at
    ``total``, with each cap clipped to the total and ``spare`` the clipped
    caps' sum less the total.
    """
    cells = k * min(total, spare)
    if cells > COMPOSITION_WORK_GUARD:
        raise StateSpaceLimitError(
            f"a cut of {k} arcs at demand {total} needs a counting table of {cells} cells,"
            f" above the guard COMPOSITION_WORK_GUARD={COMPOSITION_WORK_GUARD}"
        )


def compositions(caps: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    """Yield all vectors 0 <= x_i <= caps[i] with sum(x) == total, lexicographically.

    The walk is one loop in O(k) memory, so a cut of any width is fine.
    After each vector it raises the rightmost position that has room and
    can take one unit from the positions after it, then refills those with
    the smallest values that still reach the total: each takes only what
    the positions after it cannot hold.  The first vector is such a fill.
    """
    k = len(caps)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    if not 0 <= total <= suffix[0]:
        return
    out = [0] * k
    pos, remaining = 0, total
    while True:
        for i in range(pos, k):
            out[i] = value = max(0, remaining - suffix[i + 1])
            remaining -= value
        yield tuple(out)
        tail = 0
        for pos in range(k - 1, -1, -1):
            if tail and out[pos] < caps[pos]:
                break
            tail += out[pos]
        else:
            return
        out[pos] += 1
        pos, remaining = pos + 1, tail - 1


def count_compositions(caps: Sequence[int], total: int) -> int:
    """Number of vectors 0 <= x_i <= caps[i] with sum(x) == total.

    ``ways[s]`` counts the vectors over the arcs seen so far that sum to s;
    an arc of capacity c replaces it by the sum of ``ways[s-c..s]``, kept as
    a sliding window, so each arc costs O(total).  Caps are first clipped
    to the total, and the complement x_i -> caps[i] - x_i maps the count at
    the total to the count at sum(caps) - total, so the table is as short as
    the smaller of the two and never longer than the count itself.
    """
    if total < 0:
        return 0
    caps = [min(cap, total) for cap in caps]
    spare = sum(caps) - total
    if spare < 0:
        return 0
    _refuse_huge_table(len(caps), total, spare)
    total = min(total, spare)
    ways = [1] + [0] * total
    for cap in caps:
        window = 0
        row = []
        for s, count in enumerate(ways):
            window += count
            if s > cap:
                window -= ways[s - cap - 1]
            row.append(window)
        ways = row
    return ways[total]


def enumerate_candidates(net: Network, cut: MinCut, demand: int) -> Iterator[StateVector]:
    """Stream every candidate of ``cut`` at level ``demand`` exactly once.

    The stream is empty when the demand exceeds the cut's total capacity;
    consuming lazily lets the solver interleave generation and testing.
    Every on-cut entry is rewritten for each candidate, so one buffer
    serves the whole stream and each candidate is a fresh tuple of it.
    A negative demand, a repeated arc id or a cut whose count would pass
    the guard is refused at the first read.
    """
    if demand < 0:
        raise ValidationError(f"demand must be nonnegative, got {demand}")
    refuse_repeated_arcs(cut)
    positions = [arc_id - 1 for arc_id in cut]
    caps = [net.max_capacities[p] for p in positions]
    _refuse_huge_table(len(caps), demand, sum(min(cap, demand) for cap in caps) - demand)
    vector = list(net.max_capacities)
    for on_cut in compositions(caps, demand):
        for p, value in zip(positions, on_cut):
            vector[p] = value
        yield tuple(vector)


def count_candidates(net: Network, cut: MinCut, demand: int) -> int:
    """Closed-form length of ``enumerate_candidates(net, cut, demand)``."""
    if demand < 0:
        raise ValidationError(f"demand must be nonnegative, got {demand}")
    refuse_repeated_arcs(cut)
    return count_compositions([net.max_capacities[a - 1] for a in cut], demand)
