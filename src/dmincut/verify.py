"""Candidate verification.

A state vector X is a d-MC exactly when W(X) = d and raising any
unsaturated arc by one unit pushes the max flow above d.  ``classify``
implements the sound residual-path form of that test on a maximum flow
already in hand: with a max flow of value d in place, an extra unit on arc
(u, v) opens an augmenting path exactly when the source reaches u and v
reaches the sink in the residual graph, so one forward and one backward
search classify every unsaturated arc at once instead of a fresh max-flow
computation per arc.  It reads the capacity state off the flow, and it is
the only code that turns failing arcs into a :class:`Verdict`.
``verify`` is ``classify`` on ``max_flow(net, X)``.

``verify_flawed`` implements a historically published acceptance test that
drops the W(X) = d hypothesis and takes plain source-sink reachability in
the bumped capacity graph as its evidence.  It is kept as a diagnostic
because it wrongly accepts candidates whose max flow is below the demand;
``dmincut check-flaw`` surfaces the disagreements.  It accepts when the
state has a source-sink path; otherwise it is ``classify(fs, 0)`` on the
maximum flow in hand, so one max flow of X feeds both tests, and
check-flaw takes its evidence from that same flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .maxflow import FlowState, lifting_arcs, max_flow, residual_reachable, zero_flow
from .network import Network, StateVector, unsaturated_set


@dataclass(frozen=True)
class Verdict:
    """Outcome of a candidate test.

    ``failing_arc`` is the lowest-indexed unsaturated arc whose unit bump
    failed the test, or None; a sound rejection with ``flow_value !=
    demand`` happened before any arc was examined.  Both tests build their
    verdict with :func:`classify`; ``flow_value`` is W(X) for both.

    ``min_cut`` is set only on that rejection, and None otherwise: the
    ascending ids of the arcs leaving the nodes the source reaches in the
    max flow's residual, a source-sink cut whose capacities under X sum to
    ``flow_value``.  No state has a max flow above its total over them.
    """

    is_dmc: bool
    flow_value: int
    failing_arc: int | None
    min_cut: tuple[int, ...] | None = None


def _capacities(fs: FlowState) -> StateVector:
    """The capacity state ``fs`` flows under: room plus flow on each arc."""
    return tuple(map(add, fs.residual[::2], fs.residual[1::2]))


def classify(fs: FlowState, demand: int) -> Verdict:
    """Classify the state of the maximum flow ``fs`` as d-MC or not at level ``demand``.

    Sound test.  The reported witness is the lowest-id unsaturated arc
    whose unit bump does not lift the flow, so it is deterministic.
    """
    if fs.value != demand:
        reached = fs.source_tree
        min_cut = tuple(
            a.index for a in fs.net.arcs if reached[a.tail] >= 0 and reached[a.head] < 0
        )
        return Verdict(is_dmc=False, flow_value=fs.value, failing_arc=None, min_cut=min_cut)
    failing = unsaturated_set(fs.net, _capacities(fs)) - lifting_arcs(fs)
    return Verdict(is_dmc=not failing, flow_value=fs.value, failing_arc=min(failing, default=None))


def verify(net: Network, state: StateVector, demand: int) -> Verdict:
    """Classify ``state`` as d-MC or not at level ``demand`` (sound test)."""
    return classify(max_flow(net, state), demand)


def verify_flawed(fs: FlowState) -> Verdict:
    """The unsound published test on the state of the maximum flow ``fs``, for diagnostics.

    Accepts whenever every unsaturated arc's bumped capacity graph has any
    source-sink path of positive capacities; never consults a demand, so
    candidates with W(state) below the demand can be (wrongly) accepted.
    One pass decides every bump: if the state itself has such a path, every
    bump keeps it; if not, W(state) = 0, and the test is :func:`classify`
    on ``fs`` at demand 0.  Any maximum flow gives that verdict, because
    all maximum flows leave the same nodes reachable from the source and
    the same nodes reaching the sink in the residual.
    """
    if residual_reachable(zero_flow(fs.net, _capacities(fs))):
        return Verdict(is_dmc=True, flow_value=fs.value, failing_arc=None)
    return classify(fs, 0)
