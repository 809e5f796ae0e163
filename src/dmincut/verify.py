"""Candidate verification.

A state vector X is a d-MC exactly when W(X) = d and raising any
unsaturated arc by one unit pushes the max flow above d.  ``classify``
implements the sound residual-path form of that test on a maximum flow
already in hand: with a max flow of value d in place, an extra unit on arc
(u, v) opens an augmenting path exactly when the source reaches u and v
reaches the sink in the residual graph, so the flow's source tree and sink
tree classify every unsaturated arc at once instead of a fresh max-flow
computation per arc.  It reads the capacity state off the flow, and it is
the only code that turns failing arcs into a :class:`Verdict`.
``verify`` is ``classify`` on ``max_flow(net, X)``, or on a maximum flow of
X that the caller already holds, which it checks before use.

Only the unsaturated arcs are asked about: one C-level pass over the state
finds them, and each costs two reads of the trees.  A flow from
:func:`~dmincut.maxflow.max_flow` brings its source tree, so a verdict at
the demand costs one backward search; a flow off the demand is rejected
with none.  At a leaf of the solver's search every arc off the cut is
full, so a leaf's unsaturated arcs are among its cut's, and the leaf's
flow brings both trees: classifying it runs no search and costs
Python-level work in O(k) for a cut of k arcs, not a scan of all m arcs.

``verify_flawed`` implements a historically published acceptance test that
drops the W(X) = d hypothesis and takes plain source-sink reachability in
the bumped capacity graph as its evidence.  It is kept as a diagnostic
because it accepts every state with W(X) > 0, whatever d is;
``dmincut check-flaw`` surfaces the disagreements.  It reads W(X) off the
maximum flow in hand, so one max flow of X feeds both tests, and
check-flaw takes its evidence from that same flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from operator import add

from .errors import ValidationError
from .maxflow import FlowState, lifts_by_one, max_flow, residual_reachable
from .network import Network, StateVector, unsaturated_set


@dataclass(frozen=True)
class Verdict:
    """Outcome of a candidate test.

    ``failing_arc`` is the lowest-indexed unsaturated arc whose unit bump
    failed the test, or None; a sound rejection with ``flow_value !=
    demand`` happened before any arc was examined.  Every rejection, by
    either test, comes from :func:`classify`; ``flow_value`` is W(X) for both.
    """

    is_dmc: bool
    flow_value: int
    failing_arc: int | None


def _capacities(fs: FlowState) -> StateVector:
    """The capacity state ``fs`` flows under: room plus flow on each arc."""
    return tuple(map(add, fs.residual[::2], fs.residual[1::2]))


def _verdict(fs: FlowState, state: StateVector, demand: int) -> Verdict:
    """:func:`classify` of the maximum flow ``fs``, whose capacity state is ``state``."""
    if fs.value != demand:
        return Verdict(is_dmc=False, flow_value=fs.value, failing_arc=None)
    # Both trees are read at the demand; the unsaturated arcs are scanned in ascending order, and the
    # first that does not lift is the witness.
    failing = next(filterfalse(lifts_by_one(fs), sorted(unsaturated_set(fs.net, state))), None)
    return Verdict(is_dmc=failing is None, flow_value=fs.value, failing_arc=failing)


def classify(fs: FlowState, demand: int) -> Verdict:
    """Classify the state of the maximum flow ``fs`` as d-MC or not at level ``demand``.

    Sound test.  The reported witness is the lowest-id unsaturated arc
    whose unit bump does not lift the flow, so it is deterministic.
    """
    return _verdict(fs, _capacities(fs), demand)


def verify(net: Network, state: StateVector, demand: int, flow: FlowState | None = None) -> Verdict:
    """Classify ``state`` as d-MC or not at level ``demand`` (sound test).

    Without ``flow`` the maximum flow of ``state`` is computed here.  A
    given ``flow`` is used instead, and refused unless it runs on ``net``
    (the same object), under exactly the capacities ``state``, and is
    maximal: its residual no longer reaches the sink.
    """
    if flow is None:
        return _verdict(max_flow(net, state), state, demand)
    net.validate_state(state)
    if flow.net is not net or _capacities(flow) != tuple(state):
        raise ValidationError("the flow given to verify does not run on this network under this state")
    if residual_reachable(flow):
        raise ValidationError("the flow given to verify is not maximal: its residual reaches the sink")
    return _verdict(flow, state, demand)


def verify_flawed(fs: FlowState) -> Verdict:
    """The unsound published test on the state of the maximum flow ``fs``, for diagnostics.

    Accepts whenever every unsaturated arc's bumped capacity graph has a
    source-sink path of positive capacities, and never consults a demand.
    A state has such a path iff its max flow is positive, and a bump keeps
    it, so the test accepts iff ``fs.value > 0`` and is otherwise
    :func:`classify` on ``fs`` at demand 0.
    """
    if fs.value > 0:
        return Verdict(is_dmc=True, flow_value=fs.value, failing_arc=None)
    return classify(fs, 0)
