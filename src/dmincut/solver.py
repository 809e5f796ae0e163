"""End-to-end d-MC enumeration with operation accounting.

For each minimal cut the candidate stream is generated lazily; every
candidate gets exactly one max-flow computation, from the zero flow,
and, when that flow meets the demand, one residual classification of its
arcs.  Reusing a flow between candidates while capacities only rise would
be sound, since the old flow stays feasible; it is not done here.
Accepted vectors are merged into a set because distinct cuts can emit the
same d-MC.

The counters exist so the operation-count bounds can be audited: the
number of max-flow calls is bounded by the total closed-form candidate
count across cuts, and the number of residual classifications by the
number of candidates examined.
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import dataclass, field, fields

from .candidates import count_candidates, enumerate_candidates
from .cuts import MinCut, is_min_cut
from .errors import ValidationError
from .maxflow import max_flow
from .network import Network, StateVector, saturated_vector
from .verify import verify


@dataclass
class OperationCounters:
    maxflow_calls: int = 0
    candidates_total: int = 0
    candidates_per_cut: list[int] = field(default_factory=list)
    residual_searches: int = 0
    duplicates_removed: int = 0

    def to_dict(self) -> dict:
        return {f.name: copy(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "OperationCounters":
        return cls(**{f.name: copy(data[f.name]) for f in fields(cls)})


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

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["dmcs"] = [list(v) for v in self.dmcs]
        data["counters"] = self.counters.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        values = {f.name: data[f.name] for f in fields(cls)}
        values["dmcs"] = tuple(tuple(v) for v in values["dmcs"])
        values["counters"] = OperationCounters.from_dict(values["counters"])
        return cls(**values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        return cls.from_dict(json.loads(text))


def infeasibility(net: Network, demand: int) -> str | None:
    """Why no d-MC exists at ``demand`` (above the saturated max flow), or None.

    This max-flow call is outside the per-candidate accounting, so the audit bounds stay exact.
    """
    top = max_flow(net, saturated_vector(net)).value
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
        for vector in enumerate_candidates(net, cut, demand):
            generated += 1
            verdict = verify(net, vector, demand)
            counters.maxflow_calls += 1
            if verdict.flow_value == demand:
                counters.residual_searches += 1
            if verdict.is_dmc:
                if vector in found:
                    counters.duplicates_removed += 1
                else:
                    found.add(vector)
        counters.candidates_total += generated
        counters.candidates_per_cut.append(generated)

    per_cut_bounds = [count_candidates(net, cut, demand) for cut in cuts]
    diagnostic = infeasibility(net, demand)
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
    """Check the operation counts against their counted bounds.

    Max-flow usage must not exceed the summed per-cut candidate counts
    (which in turn cannot exceed cuts x max-per-cut), and residual
    classifications must not exceed one per examined candidate.
    """
    c = report.counters
    return (
        c.maxflow_calls <= report.total_candidate_bound
        and report.total_candidate_bound <= report.cut_count * report.max_candidates_per_cut
        and c.residual_searches <= c.candidates_total
    )
