"""Output checks against the brute-force oracle, made outside the timed region.

* ``solve`` operations: exit code 0, ``# audit_ok=True``, and every listed
  vector is a d-MC by the oracle's own max-flow: W(X) = d and every unit
  bump on an unsaturated arc gives more than d.  Where the manifest holds
  a recorded digest (default seed), the listing must match it too, so a
  missing d-MC is caught.
* ``reliability`` operations: exit code 0, the printed probability within
  ``RELIABILITY_TOLERANCE`` of ``reliability_exhaustive``, and the d-MC
  listing at level ``demand - 1`` equal to the oracle's.

The networks are rebuilt from the input files here, not with the program's
parser.
"""

from __future__ import annotations

from pathlib import Path

from . import import_dmincut
from .workloads import listing_digest


def load_network(path: str):
    """(Network, EdgeDistribution or None) read straight from the file's lines."""
    dmincut = import_dmincut()
    header, arcs, pmfs = None, [], []
    for line in Path(path).read_text().splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "nodes":
            header = int(tokens[1]), int(tokens[3]), int(tokens[5])
        elif tokens[0] == "edge":
            index, tail, head, cap = map(int, tokens[1:])
            arcs.append(dmincut.Arc(index=index, tail=tail, head=head, max_capacity=cap))
        elif tokens[0] == "prob":
            pmfs.append(tuple(float(t) for t in tokens[2:]))
    n, source, sink = header
    net = dmincut.Network(node_count=n, arcs=tuple(arcs), source=source, sink=sink)
    return net, dmincut.EdgeDistribution(tuple(pmfs)) if pmfs else None


def listed_vectors(stdout: str) -> list[tuple[int, ...]]:
    return [
        tuple(int(x) for x in line.strip("()").split(","))
        for line in stdout.splitlines()
        if line.startswith("(")
    ]


def is_dmc(net, vector, level: int) -> bool:
    """Definitional d-MC test with the oracle's independent max-flow."""
    from dmincut.oracle import max_flow_value

    if len(vector) != net.arc_count or max_flow_value(net, vector) != level:
        return False
    for i, cap in enumerate(net.max_capacities):
        if vector[i] < cap:
            bumped = vector[:i] + (vector[i] + 1,) + vector[i + 1 :]
            if max_flow_value(net, bumped) <= level:
                return False
    return True


def check_solve(op: dict, outcome: dict) -> list[str]:
    """Problems with one ``solve`` operation's output; empty when it is correct."""
    if outcome["exit"] != 0:
        return [f"exit code {outcome['exit']}: {outcome['error'] or outcome['stderr']}"]
    lines = outcome["stdout"].splitlines()
    problems = []
    if "# audit_ok=True" not in lines:
        problems.append("no '# audit_ok=True' line")
    vectors = listed_vectors(outcome["stdout"])
    if vectors != sorted(set(vectors)):
        problems.append("listing is not sorted and duplicate-free")
    net, _ = load_network(op["net"])
    wrong = [v for v in vectors if not is_dmc(net, v, op["level"])]
    if wrong:
        problems.append(f"{len(wrong)} listed vectors are not {op['level']}-MCs, e.g. {wrong[0]}")
    if "expected_digest" in op and listing_digest(vectors) != op["expected_digest"]:
        problems.append("listing differs from the recorded default-seed listing")
    return problems


def check_reliability(op: dict, outcome: dict, listing: dict) -> list[str]:
    """Problems with one ``reliability`` operation; ``listing`` is its level's ``solve`` output."""
    dmincut = import_dmincut()
    from dmincut.oracle import RELIABILITY_TOLERANCE

    if outcome["exit"] != 0:
        return [f"exit code {outcome['exit']}: {outcome['error'] or outcome['stderr']}"]
    problems = []
    net, dist = load_network(op["net"])
    demand = op["level"] + 1
    try:
        printed = float(outcome["stdout"].strip())
    except ValueError:
        return [f"printed {outcome['stdout']!r}, not a probability"]
    expected = dmincut.reliability_exhaustive(net, dist, demand)
    if abs(printed - expected) > RELIABILITY_TOLERANCE:
        problems.append(f"probability {printed!r}, oracle {expected!r}")
    expected_dmcs = sorted(tuple(v) for v in op["expected_dmcs"])
    if listing["exit"] != 0 or listed_vectors(listing["stdout"]) != expected_dmcs:
        problems.append(f"the {op['level']}-MC listing differs from brute_force_dmcs")
    return problems


def check(op: dict, outcome: dict, listing: dict | None = None) -> list[str]:
    if "expected_dmcs" in op:
        return check_reliability(op, outcome, listing)
    return check_solve(op, outcome)
