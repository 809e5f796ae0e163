"""Batch command-line interface.

Subcommands:

* ``solve``        enumerate d-MCs via the cut-based pipeline (text or JSON)
* ``check-flaw``   diff the sound verifier against the flawed published test
* ``oracle``       brute-force d-MC enumeration straight from the definition
* ``mincuts``      list the minimal source-sink cuts in cut-file format
* ``reliability``  Pr[max flow meets a demand], from d-MCs or exhaustively

Exit codes: 0 success (an empty result is not an error), 2 parse or
validation failure, 3 infeasible demand (above the saturated max flow),
4 state-space guard exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .candidates import enumerate_candidates
from .cuts import enumerate_min_cuts, format_cuts, parse_cuts
from .errors import DmincutError, StateSpaceLimitError
from .maxflow import lifting_arcs, max_flow
from .network import format_vector, parse_edge_distribution, parse_network, unsaturated_set
from .oracle import brute_force_dmcs, reliability_exhaustive, reliability_from_dmcs
from .solver import audit_complexity, find_all_dmcs, infeasibility
from .verify import classify, verify_flawed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmincut", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network(p: argparse.ArgumentParser) -> None:
        p.add_argument("network_pos", nargs="?", metavar="network", help="network file")
        p.add_argument("--network", dest="network_flag", metavar="FILE", help="network file")

    p_solve = sub.add_parser("solve", help="enumerate all d-MCs")
    add_network(p_solve)
    p_solve.add_argument("--demand", type=int, required=True)
    p_solve.add_argument("--cuts", metavar="FILE", help="minimal-cut file (default: enumerate)")
    p_solve.add_argument("--json", action="store_true", help="emit the full report as JSON")

    p_flaw = sub.add_parser("check-flaw", help="diff sound vs flawed verification")
    add_network(p_flaw)
    p_flaw.add_argument("--demand", type=int, required=True)
    p_flaw.add_argument("--cuts", metavar="FILE", help="minimal-cut file (default: enumerate)")

    p_oracle = sub.add_parser("oracle", help="brute-force d-MC enumeration")
    add_network(p_oracle)
    p_oracle.add_argument("--demand", type=int, required=True)

    p_cuts = sub.add_parser("mincuts", help="list minimal cuts")
    add_network(p_cuts)

    p_rel = sub.add_parser("reliability", help="probability the max flow meets the demand")
    add_network(p_rel)
    p_rel.add_argument("--demand", type=int, required=True)
    p_rel.add_argument("--method", choices=("dmcs", "exhaustive"), default="dmcs")
    p_rel.add_argument("--threshold", choices=("ge", "strict"), default="ge",
                       help="'ge' scores W >= demand (default), 'strict' scores W > demand")
    return parser


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DmincutError(f"{path}: not a UTF-8 text file (byte {exc.start})") from None


def _load_network(args):
    path = args.network_flag or args.network_pos
    if path is None:
        raise DmincutError("a network file is required (positional or --network)")
    text = _read_text(path)
    return text, parse_network(text)


def _load_cuts(args, net):
    """The cuts listed in ``--cuts FILE``, else every minimal cut by enumeration."""
    if args.cuts is not None:
        return parse_cuts(_read_text(args.cuts), net)
    return enumerate_min_cuts(net)


def cmd_solve(args) -> int:
    _, net = _load_network(args)
    cuts = _load_cuts(args, net)
    report = find_all_dmcs(net, args.demand, cuts)
    if args.json:
        print(report.to_json())
    else:
        for vector in report.dmcs:
            print(format_vector(vector))
        c = report.counters
        print(f"# demand={report.demand} cut_count={report.cut_count} arc_count={report.arc_count}")
        print(
            f"# max_candidates_per_cut={report.max_candidates_per_cut}"
            f" total_candidate_bound={report.total_candidate_bound}"
        )
        print(
            f"# candidates_total={c.candidates_total} maxflow_calls={c.maxflow_calls}"
            f" residual_searches={c.residual_searches} duplicates_removed={c.duplicates_removed}"
        )
        print(f"# audit_ok={audit_complexity(report)}")
        if report.diagnostic:
            print(f"# diagnostic: {report.diagnostic}")
    if report.infeasible_demand:
        print(f"error: {report.diagnostic}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_check_flaw(args) -> int:
    _, net = _load_network(args)
    # A partial cut list is sound here: each listed candidate gets both verdicts.
    cuts = _load_cuts(args, net)
    candidates = sorted(
        {v for cut in cuts for v in enumerate_candidates(net, cut, args.demand)}
    )
    disagreements = 0
    for vector in candidates:
        # One max flow per candidate feeds both verdicts and the evidence.
        fs = max_flow(net, vector)
        sound = classify(fs, args.demand)
        flawed = verify_flawed(fs)
        if sound.is_dmc == flawed.is_dmc:
            continue
        disagreements += 1
        # A unit raises a max flow by at most one, and exactly on the lifting arcs.
        lifted = lifting_arcs(fs)
        evidence = " ".join(
            f"e{arc_id}:W={sound.flow_value + (arc_id in lifted)}"
            for arc_id in sorted(unsaturated_set(net, vector))
        )
        verdicts = (
            f"corrected={'accept' if sound.is_dmc else 'reject'}"
            f" flawed={'accept' if flawed.is_dmc else 'reject'}"
        )
        line = f"X={format_vector(vector)} {verdicts} W(X)={sound.flow_value}"
        print(f"{line} {evidence}" if evidence else line)
    print(f"disagreements: {disagreements}")
    diagnostic = infeasibility(net, args.demand)
    if diagnostic:
        print(f"error: {diagnostic}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_oracle(args) -> int:
    _, net = _load_network(args)
    for vector in brute_force_dmcs(net, args.demand):
        print(format_vector(vector))
    return EXIT_OK


def cmd_mincuts(args) -> int:
    _, net = _load_network(args)
    sys.stdout.write(format_cuts(enumerate_min_cuts(net)))
    return EXIT_OK


def cmd_reliability(args) -> int:
    text, net = _load_network(args)
    dist = parse_edge_distribution(text, net)
    if dist is None:
        raise DmincutError("the network file carries no 'prob' lines; reliability needs a pmf per arc")
    demand = args.demand if args.threshold == "ge" else args.demand + 1
    # Target: Pr[W >= demand] after folding 'strict' into 'ge' at demand+1.
    if args.method == "exhaustive":
        probability = reliability_exhaustive(net, dist, demand)
    else:
        if demand <= 0:
            probability = 1.0
        else:
            cuts = enumerate_min_cuts(net)
            report = find_all_dmcs(net, demand - 1, cuts)
            if report.infeasible_demand:
                probability = 0.0
            else:
                probability = 1.0 - reliability_from_dmcs(net, report.dmcs, dist)
    print(f"{probability:.12f}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "check-flaw": cmd_check_flaw,
    "oracle": cmd_oracle,
    "mincuts": cmd_mincuts,
    "reliability": cmd_reliability,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except StateSpaceLimitError as exc:
        return _fail(str(exc), EXIT_GUARD)
    except DmincutError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
