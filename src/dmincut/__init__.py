"""d-MinCut enumeration and reliability evaluation for stochastic-flow networks.

A stochastic-flow network is a directed graph whose arc capacities are
random integers between 0 and a per-arc maximum.  For a demand level d, the
d-MCs (d-MinCuts) are the maximal capacity states whose max flow equals d;
they are the upper boundary points of {X : W(X) <= d} and support exact
reliability evaluation.  This package enumerates them from the network's
minimal cuts, verifies candidates with a sound residual-path test, keeps a
deliberately flawed historical test around as a diagnostic, and validates
everything against brute-force oracles.
"""

from .candidates import count_candidates, count_compositions, enumerate_candidates
from .cuts import MinCut, enumerate_min_cuts, format_cuts, is_min_cut, parse_cuts
from .errors import DmincutError, NetworkParseError, StateSpaceLimitError, ValidationError
from .maxflow import FlowState, lifting_arcs, max_flow, residual_reachable, residual_tree
from .network import (
    Arc,
    EdgeDistribution,
    Network,
    StateVector,
    format_vector,
    parse_edge_distribution,
    parse_network,
    unsaturated_set,
)
from .oracle import (
    brute_force_dmcs,
    dmc_levels,
    flow_table,
    max_flow_value,
    reliability_exhaustive,
    state_space_size,
)
from .reliability import reliability_from_dmcs
from .solver import OperationCounters, SolveReport, audit_complexity, find_all_dmcs
from .verify import Verdict, classify, verify, verify_flawed

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "DmincutError",
    "EdgeDistribution",
    "FlowState",
    "MinCut",
    "Network",
    "NetworkParseError",
    "OperationCounters",
    "SolveReport",
    "StateSpaceLimitError",
    "StateVector",
    "ValidationError",
    "Verdict",
    "audit_complexity",
    "brute_force_dmcs",
    "classify",
    "count_candidates",
    "count_compositions",
    "dmc_levels",
    "enumerate_candidates",
    "enumerate_min_cuts",
    "find_all_dmcs",
    "flow_table",
    "format_cuts",
    "format_vector",
    "is_min_cut",
    "lifting_arcs",
    "max_flow",
    "max_flow_value",
    "parse_cuts",
    "parse_edge_distribution",
    "parse_network",
    "reliability_exhaustive",
    "reliability_from_dmcs",
    "residual_reachable",
    "residual_tree",
    "state_space_size",
    "unsaturated_set",
    "verify",
    "verify_flawed",
]
