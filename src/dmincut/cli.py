"""Batch command-line interface.

Subcommands:

* ``solve``        enumerate d-MCs via the cut-based pipeline (text or JSON)
* ``check-flaw``   diff the sound verifier against the flawed published test
* ``oracle``       brute-force d-MC enumeration straight from the definition
* ``mincuts``      list the minimal source-sink cuts in cut-file format
* ``reliability``  Pr[max flow meets a demand], from d-MCs or exhaustively

Every subcommand takes its network file positionally or via
``--network FILE``: one of the two, not both.  Network and cut files are
UTF-8, with or without a byte-order mark.

:func:`main` looks the first word up among the subcommand parsers and
parses the rest with that parser alone, which is what the top-level parser
would hand it.  Words that parser leaves over are refused with the
top-level usage, as ``parse_args`` refuses them.  Any other argv (empty,
``-h``, an unknown command) goes to the top-level parser.

Exit codes: 0 success (an empty result is not an error), 2 parse or
validation failure, 3 infeasible demand (above the saturated max flow),
4 state-space guard exceeded, 141 the reader closed standard output
early (128 + SIGPIPE, as a shell reports a tool killed by SIGPIPE; no
message is printed, since nothing was refused).
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from itertools import accumulate, groupby

from .candidates import count_candidates, enumerate_candidates
from .cuts import enumerate_min_cuts, format_cuts, parse_cuts
from .errors import DmincutError, StateSpaceLimitError
from .maxflow import lifting_arcs, max_flow
from .network import format_vector, parse_edge_distribution, parse_network, unsaturated_arcs
from .oracle import brute_force_dmcs, reliability_exhaustive
from .reliability import reliability_from_dmcs
from .solver import audit_complexity, find_all_dmcs, infeasibility, refuse_candidates_past_guard
from .verify import classify, verify_flawed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4
EXIT_BROKEN_PIPE = 141


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    """The file's text, past a byte-order mark if it starts with one.

    Line breaks stay as written: the parsers split lines with
    ``str.splitlines``, which reads ``\\r\\n`` and ``\\r`` as one break each.
    """
    with open(path, "rb") as file:
        data = file.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # utf-8-sig counts its offset past the mark; report it from the file's start.
        skipped = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        raise DmincutError(f"{path}: not a UTF-8 text file (byte {exc.start + skipped})") from None


def _load_network(args):
    text = _read_text(args.network_pos if args.network_flag is None else args.network_flag)
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
            f"# candidates_total={c.candidates_total} below_demand={c.below_demand}"
            f" not_maximal={c.not_maximal} accepted={c.accepted} duplicates_removed={c.duplicates_removed}"
        )
        print(f"# audit_ok={audit_complexity(report)}")
        if report.diagnostic:
            print(f"# diagnostic: {report.diagnostic}")
    if report.infeasible_demand:
        print(f"error: {report.diagnostic}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_check_flaw(args) -> int:
    # Imported here, so that no other command pays for it at start-up.
    from heapq import merge

    _, net = _load_network(args)
    # A partial cut list is sound here: each listed candidate gets both verdicts.
    cuts = _load_cuts(args, net)
    # The streams are merged, so every cut's candidates are charged before any is read.
    totals = accumulate(count_candidates(net, cut, args.demand) for cut in cuts)
    for index, total in enumerate(totals, start=1):
        refuse_candidates_past_guard(total, index, len(cuts), args.demand)
        # Each candidate then gets a max flow from scratch, which reads all m arcs.
        refuse_candidates_past_guard(total, index, len(cuts), args.demand, "CHECK_FLAW_WORK_GUARD", net.arc_count)
    # Each cut is an ascending tuple, and a stream over ascending arc ids ascends in full-vector
    # order, so merging the streams and dropping repeats lists each candidate once, in sorted order.
    streams = [enumerate_candidates(net, cut, args.demand) for cut in cuts]
    disagreements = 0
    for vector, _ in groupby(merge(*streams)):
        # One max flow per candidate feeds both verdicts and the evidence.
        fs = max_flow(net, vector)
        sound = classify(fs, args.demand)
        flawed = verify_flawed(fs)
        if sound.is_dmc == flawed.is_dmc:
            continue
        disagreements += 1
        # A unit raises a max flow by at most one, and exactly on the lifting arcs.
        unsaturated = list(unsaturated_arcs(net, vector))
        lifted = lifting_arcs(fs, unsaturated)
        evidence = " ".join(f"e{arc_id}:W={sound.flow_value + (arc_id in lifted)}" for arc_id in unsaturated)
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
                # A union that rounds above 1 would print -0.000000000000; a probability is never negative.
                probability = max(0.0, 1.0 - reliability_from_dmcs(net, report.dmcs, dist))
    print(f"{probability:.12f}")
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(prog="dmincut", description="Batch command-line interface.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        # argparse refuses both or neither with exit 2.
        network = p.add_mutually_exclusive_group(required=True)
        network.add_argument("network_pos", nargs="?", metavar="network", help="network file")
        network.add_argument("--network", dest="network_flag", metavar="FILE", help="network file")
        p.set_defaults(run=run)
        return p

    p_solve = add_command("solve", cmd_solve, "enumerate all d-MCs")
    p_solve.add_argument("--demand", type=int, required=True)
    p_solve.add_argument("--cuts", metavar="FILE", help="minimal-cut file (default: enumerate)")
    p_solve.add_argument("--json", action="store_true", help="emit the full report as JSON")

    p_flaw = add_command("check-flaw", cmd_check_flaw, "diff sound vs flawed verification")
    p_flaw.add_argument("--demand", type=int, required=True)
    p_flaw.add_argument("--cuts", metavar="FILE", help="minimal-cut file (default: enumerate)")

    p_oracle = add_command("oracle", cmd_oracle, "brute-force d-MC enumeration")
    p_oracle.add_argument("--demand", type=int, required=True)

    add_command("mincuts", cmd_mincuts, "list minimal cuts")

    p_rel = add_command("reliability", cmd_reliability, "probability the max flow meets the demand")
    p_rel.add_argument("--demand", type=int, required=True)
    p_rel.add_argument("--method", choices=("dmcs", "exhaustive"), default="dmcs")
    p_rel.add_argument("--threshold", choices=("ge", "strict"), default="ge",
                       help="'ge' scores W >= demand (default), 'strict' scores W > demand")
    return parser, sub.choices


# Built once: main only parses, and parsing leaves the parsers unchanged.
_PARSER, _COMMANDS = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        code = args.run(args)
        # Flush here so a pipe closed before exit is caught below too.
        sys.stdout.flush()
        return code
    except StateSpaceLimitError as exc:
        return _fail(str(exc), EXIT_GUARD)
    except DmincutError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except BrokenPipeError:
        # The reader stopped early.  Send what is still buffered to devnull
        # so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
