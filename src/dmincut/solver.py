"""End-to-end d-MC enumeration with operation accounting.

Every listed cut must pass :func:`~dmincut.cuts.is_min_cut`, so a library
caller's non-minimal cut is refused, and no cut may list an arc twice.
Cuts that :func:`~dmincut.cuts.enumerate_min_cuts` or
:func:`~dmincut.cuts.parse_cuts` produced on the same network object are
already in its record of proven cuts, and that check then runs no search.

For each minimal cut the candidate stream is generated lazily; every
candidate gets at most one max-flow computation, from the zero flow,
and, when that flow meets the demand, one residual classification of its
arcs.  Reusing a flow between candidates while capacities only rise would
be sound, since the old flow stays feasible; it is not done here.

A max flow below the demand leaves a certificate for the rest of its
cut's stream: :attr:`~dmincut.verify.Verdict.min_cut`, a source-sink cut
of capacity W(K) under the candidate K.  Every candidate of a cut gives
the off-cut arcs their full capacity, so a later candidate Y that gives
that min cut a capacity below the demand has W(Y) < d; it is counted but
gets no max flow.

Accepted vectors are merged into a set because distinct cuts can emit the
same d-MC.  The infeasibility diagnostic costs one more max flow, of the
saturated state, and runs only when no d-MC was found: a d-MC X has
W(X) = d, and the saturated max flow is at least W(X), so any d-MC already
proves the demand feasible.

The counters exist so the candidate count can be audited: the candidates
streamed must equal the corrected Theorem 6 count summed over the cuts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .candidates import count_candidates, enumerate_candidates
from .cuts import MinCut, is_min_cut
from .errors import ValidationError
from .maxflow import max_flow
from .network import Network, StateVector
from .verify import verify


@dataclass
class OperationCounters:
    candidates_total: int = 0
    candidates_per_cut: list[int] = field(default_factory=list)
    residual_searches: int = 0
    duplicates_removed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveReport:
    """Deduplicated, lexicographically sorted d-MC list plus instrumentation."""

    demand: int
    cut_count: int
    arc_count: int
    max_candidates_per_cut: int
    total_candidate_bound: int
    dmcs: tuple[StateVector, ...]
    counters: OperationCounters
    infeasible_demand: bool
    diagnostic: str | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def infeasibility(net: Network, demand: int) -> str | None:
    """Why no d-MC exists at ``demand`` (above the saturated max flow), or None.

    This max-flow call is outside the per-candidate accounting.
    :func:`find_all_dmcs` makes it only when it found no d-MC.
    """
    top = max_flow(net, net.max_capacities).value
    if demand > top:
        return f"no {demand}-MC exists: demand {demand} exceeds the max flow {top} of the fully saturated network"
    return None


def find_all_dmcs(net: Network, demand: int, cuts: list[MinCut]) -> SolveReport:
    """Enumerate every d-MC of ``net`` at level ``demand`` from the given cut list.

    With the complete minimal-cut list the result is exactly the set of
    d-MCs; with a partial list it is the subset those cuts generate.  The
    run is sequential and fully deterministic, counters included.
    """
    if demand < 0:
        raise ValidationError(f"demand must be nonnegative, got {demand}")
    if not cuts:
        raise ValidationError("cut list is empty")
    for cut in cuts:
        if not is_min_cut(net, cut):
            raise ValidationError(f"{tuple(cut)} is not a minimal cut of this network")

    counters = OperationCounters()
    found: set[StateVector] = set()
    for cut in cuts:
        generated = 0
        # (offset, positions): a min cut whose capacity under a candidate of this
        # cut is offset + sum(vector[p] for p in positions).
        certificates: list[tuple[int, tuple[int, ...]]] = []
        for vector in enumerate_candidates(net, cut, demand):
            generated += 1
            if certificates and any(
                offset + sum(map(vector.__getitem__, positions)) < demand
                for offset, positions in certificates
            ):
                continue
            verdict = verify(net, vector, demand)
            if verdict.flow_value == demand:
                counters.residual_searches += 1
            if verdict.is_dmc:
                if vector in found:
                    counters.duplicates_removed += 1
                else:
                    found.add(vector)
            elif verdict.flow_value < demand:
                positions = tuple(a - 1 for a in set(cut).intersection(verdict.min_cut))
                offset = verdict.flow_value - sum(map(vector.__getitem__, positions))
                certificates.append((offset, positions))
        counters.candidates_total += generated
        counters.candidates_per_cut.append(generated)

    per_cut_bounds = [count_candidates(net, cut, demand) for cut in cuts]
    diagnostic = None if found else infeasibility(net, demand)
    return SolveReport(
        demand=demand,
        cut_count=len(cuts),
        arc_count=net.arc_count,
        max_candidates_per_cut=max(per_cut_bounds),
        total_candidate_bound=sum(per_cut_bounds),
        dmcs=tuple(sorted(found)),
        counters=counters,
        infeasible_demand=diagnostic is not None,
        diagnostic=diagnostic,
    )


def audit_complexity(report: SolveReport) -> bool:
    """True iff the candidates streamed equal the summed per-cut candidate counts.

    The bound is the corrected Theorem 6 count of each cut, so the identity
    says the solver examined exactly the candidates that count promises.
    """
    return report.counters.candidates_total == report.total_candidate_bound
