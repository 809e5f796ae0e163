"""Candidate verification.

A state vector X is a d-MC exactly when W(X) = d and raising any
unsaturated arc by one unit pushes the max flow above d.  ``verify``
implements the sound residual-path form of that test: after a max flow of
value d is in place, an extra unit on arc (u, v) opens an augmenting path
exactly when the source reaches u and v reaches the sink in the residual
graph, so one forward and one backward search classify every unsaturated
arc at once instead of a fresh max-flow computation per arc.

``verify_flawed`` implements a historically published acceptance test that
drops the W(X) = d hypothesis and takes plain source-sink reachability in
the bumped capacity graph as its evidence.  It is kept as a diagnostic
because it wrongly accepts candidates whose max flow is below the demand;
``dmincut check-flaw`` surfaces the disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maxflow import lifting_arcs, max_flow, residual_reachable, zero_flow
from .network import Network, StateVector, unsaturated_set


@dataclass(frozen=True)
class Verdict:
    """Outcome of a candidate test.

    ``failing_arc`` is the lowest-indexed unsaturated arc whose unit bump
    failed the test, or None; for ``verify`` a rejection with
    ``flow_value != demand`` happened before any arc was examined.
    """

    is_dmc: bool
    flow_value: int
    failing_arc: int | None


def verify(net: Network, state: StateVector, demand: int) -> Verdict:
    """Classify ``state`` as d-MC or not at level ``demand`` (sound test).

    The reported witness is the lowest-id unsaturated arc whose unit bump
    does not lift the flow, so it is deterministic.
    """
    fs = max_flow(net, state)
    if fs.value != demand:
        return Verdict(is_dmc=False, flow_value=fs.value, failing_arc=None)
    failing = unsaturated_set(net, state) - lifting_arcs(fs)
    return Verdict(is_dmc=not failing, flow_value=fs.value, failing_arc=min(failing, default=None))


def verify_flawed(net: Network, state: StateVector, demand: int) -> Verdict:
    """The unsound published test, reproduced for diagnostics.

    Accepts whenever every unsaturated arc's bumped capacity graph has any
    source-sink path of positive capacities; never consults the demand, so
    candidates with W(state) != demand can be (wrongly) accepted.  One pass
    decides every bump: if ``state`` itself has such a path, every bump
    keeps it; if not, the zero flow is a maximum flow, so the bumps that
    open a path are exactly its :func:`lifting_arcs`.  The flow value is
    still computed for reporting.
    """
    fs = max_flow(net, state)
    plain = zero_flow(net, state)
    if residual_reachable(plain):
        return Verdict(is_dmc=True, flow_value=fs.value, failing_arc=None)
    failing = unsaturated_set(net, state) - lifting_arcs(plain)
    return Verdict(is_dmc=not failing, flow_value=fs.value, failing_arc=min(failing, default=None))
