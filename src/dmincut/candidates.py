"""Candidate generation: bounded integer compositions over a cut.

A d-MC candidate is a state vector that gives the arcs of one minimal cut
capacities summing to the demand d (each within its maximum) and every
off-cut arc its full capacity.  A cut's stream yields these vectors as
plain tuples, lazily, in ascending lexicographic order of the on-cut
components.  The stream length is counted apart, by one dynamic program,
:func:`composition_table`: it counts the vectors over each suffix of the
cut's arcs by the rest they hold, with prefix sums over the rest, in
O(k·min(d, spare)) cells for k arcs at demand d.  Its row 0 is the stream
length (:func:`count_compositions`), and the solver's search reads its
pruned subtrees off the other rows and accounts for exactly that many
candidates.  A cut whose counting table would need more than
``COMPOSITION_WORK_GUARD`` cells is refused by :func:`cut_caps`, before
any table is built or any candidate is streamed.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

from .cuts import MinCut, refuse_repeated_arcs
from .errors import StateSpaceLimitError, ValidationError
from .network import Network, StateVector

COMPOSITION_WORK_GUARD = 10**7


def _refuse_huge_table(k: int, total: int, spare: int) -> None:
    """Raise unless a counting table of k·min(total, spare) cells fits in ``COMPOSITION_WORK_GUARD``.

    That bounds the table :func:`composition_table` builds for k arcs at
    ``total``, with each cap clipped to the total and ``spare`` the clipped
    caps' sum less the total: each of its rows holds at most
    ``min(total, spare) + 1`` rests.
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
    suffix = [*accumulate(reversed(caps), initial=0)][::-1]
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


def composition_table(caps: Sequence[int], total: int) -> list[tuple[int, list[int]]]:
    """Prefix-summed counts of the vectors over each suffix ``caps[j:]``, for every rest a walk can leave.

    A walk that gives ``caps[:j]`` their values leaves a rest r for the
    arcs from j on.  With caps clipped to the total, r is at least
    ``low_j = max(0, total - sum(caps[:j]))`` and at most
    ``min(total, sum(caps[j:]))``, a range never wider than
    ``min(total, spare) + 1``, where ``spare`` is the clipped caps' sum less
    the total.  Row j is ``(low_j, prefix)`` with ``prefix[t]`` the number
    of vectors 0 <= x_i <= caps[i] over ``caps[j:]`` summing to a value in
    [low_j, low_j + t), so a count over any range of rests is two reads.
    Row k holds only the empty vector; row j is built from row j+1, each
    count the sum of row j+1 over a sliding window of cap + 1 rests, which
    two prefix reads give.  Row 0 holds only the total itself.  Empty when
    the total is negative or beyond the caps.
    """
    caps = [min(cap, total) for cap in caps]
    spare = sum(caps) - total
    if total < 0 or spare < 0:
        return []
    _refuse_huge_table(len(caps), total, spare)
    rows = [(0, [0, 1])]
    tail = 0
    for cap in reversed(caps):
        below, prefix = rows[-1]
        top, tail = len(prefix) - 1, tail + cap
        low = tail - spare if tail > spare else 0
        row, count = [0], 0
        # u is a rest less the next row's low; its count sums the next row over rests u - cap .. u.
        for u in range(low - below, (tail if tail < total else total) - below + 1):
            count += prefix[u + 1 if u < top else top] - (prefix[u - cap] if u > cap else 0)
            row.append(count)
        rows.append((low, row))
    return rows[::-1]


def count_compositions(caps: Sequence[int], total: int) -> int:
    """Number of vectors 0 <= x_i <= caps[i] with sum(x) == total: row 0 of :func:`composition_table`."""
    rows = composition_table(caps, total)
    return rows[0][1][-1] if rows else 0


def cut_caps(net: Network, cut: MinCut, demand: int) -> list[int]:
    """The maximum capacities of ``cut``'s arcs, once every guard of its candidates has passed.

    A negative demand, a repeated arc id and a cut whose counting table
    would pass ``COMPOSITION_WORK_GUARD`` are refused here, with no table
    built.
    """
    if demand < 0:
        raise ValidationError(f"demand must be nonnegative, got {demand}")
    refuse_repeated_arcs(cut)
    caps = [net.max_capacities[a - 1] for a in cut]
    _refuse_huge_table(len(caps), demand, sum(min(cap, demand) for cap in caps) - demand)
    return caps


def enumerate_candidates(net: Network, cut: MinCut, demand: int) -> Iterator[StateVector]:
    """Stream every candidate of ``cut`` at level ``demand`` exactly once.

    The stream is empty when the demand exceeds the cut's total capacity;
    consuming lazily lets the solver interleave generation and testing.
    Every on-cut entry is rewritten for each candidate, so one buffer
    serves the whole stream and each candidate is a fresh tuple of it.
    A negative demand, a repeated arc id or a cut whose count would pass
    the guard is refused at the first read.
    """
    caps = cut_caps(net, cut, demand)
    positions = [arc_id - 1 for arc_id in cut]
    vector = list(net.max_capacities)
    for on_cut in compositions(caps, demand):
        for p, value in zip(positions, on_cut):
            vector[p] = value
        yield tuple(vector)


def count_candidates(net: Network, cut: MinCut, demand: int) -> int:
    """Closed-form length of ``enumerate_candidates(net, cut, demand)``."""
    return count_compositions(cut_caps(net, cut, demand), demand)
