import argparse
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from dmincut import (
    enumerate_candidates,
    enumerate_min_cuts,
    find_all_dmcs,
    oracle,
    parse_network,
    solver,
    unsaturated_set,
)
from dmincut.cli import main

from conftest import FIXTURES
from helpers import bump, grid_network, reachable_from_source, serialize_network

FIG1 = str(FIXTURES / "fig1.net")
FIG1_PROB = str(FIXTURES / "fig1_prob.net")
FIG1_CUTS = str(FIXTURES / "fig1.cuts")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def distinct_candidates(net, cuts, demand):
    return sorted({v for cut in cuts for v in enumerate_candidates(net, cut, demand)})


def path_network(tmp_path, nodes, capacity=1):
    net = tmp_path / "path.net"
    net.write_text(
        f"nodes {nodes} source 1 sink {nodes}\n"
        + "".join(f"edge {v} {v} {v + 1} {capacity}\n" for v in range(1, nodes))
    )
    return str(net)


def test_solve_demand7_listing(capsys):
    code, out, _ = run(capsys, "solve", "--network", FIG1, "--demand", "7")
    assert code == 0
    vectors = [line for line in out.splitlines() if line.startswith("(")]
    assert "(0,2,3,1,3,3)" not in vectors
    assert vectors == [
        "(2,2,3,1,3,3)",
        "(4,1,3,1,3,3)",
        "(4,2,2,1,3,3)",
        "(4,2,3,1,2,3)",
        "(4,2,3,1,3,1)",
    ]
    assert "# demand=7 cut_count=4 arc_count=6" in out
    assert "# audit_ok=True" in out


def test_solve_demand8_contains_saturated_vector(capsys):
    code, out, _ = run(capsys, "solve", FIG1, "--demand", "8")
    assert code == 0
    assert "(4,2,3,1,3,3)" in out


def test_solve_infeasible_demand_exits_3(capsys):
    code, out, err = run(capsys, "solve", FIG1, "--demand", "9")
    assert code == 3
    assert not [line for line in out.splitlines() if line.startswith("(")]
    assert "exceeds the max flow 8" in err
    assert "# diagnostic:" in out


def test_solve_json_round_trips(capsys, fig1):
    code, out, _ = run(capsys, "solve", FIG1, "--demand", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["demand"] == 7
    assert len(data["dmcs"]) == 5
    assert data == json.loads(find_all_dmcs(fig1, 7, enumerate_min_cuts(fig1)).to_json())


def test_solve_with_full_cut_file_matches_enumeration(capsys):
    code_a, out_a, _ = run(capsys, "solve", FIG1, "--demand", "7")
    code_b, out_b, _ = run(capsys, "solve", FIG1, "--demand", "7", "--cuts", FIG1_CUTS)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_solve_with_partial_cut_file_empty_is_not_an_error(capsys, tmp_path):
    cuts = tmp_path / "partial.cuts"
    cuts.write_text("cut 1 1 2 3\n")
    code, out, err = run(capsys, "solve", FIG1, "--demand", "8", "--cuts", str(cuts))
    assert code == 0
    assert not [line for line in out.splitlines() if line.startswith("(")]
    assert err == ""


def test_solve_long_path_with_cut_file(capsys, tmp_path):
    # 1,200 nodes in a row: augmenting paths longer than the interpreter's
    # recursion limit.
    nodes = 1200
    net = path_network(tmp_path, nodes, capacity=2)
    cuts = tmp_path / "path.cuts"
    cuts.write_text("cut 1 1\n")
    code, out, err = run(capsys, "solve", net, "--demand", "1", "--cuts", str(cuts))
    assert code == 0
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("(")] == [
        "(" + ",".join(["1"] + ["2"] * (nodes - 2)) + ")"
    ]


def test_solve_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--network", "no-such-file.net", "--demand", "3")
    assert code == 2
    assert "error:" in err


def test_solve_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("nodes 2 source 1 sink 2\nedge 1 1 2 pear\n")
    code, _, err = run(capsys, "solve", str(bad), "--demand", "1")
    assert code == 2
    assert "line 2" in err


def test_solve_without_network_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--demand", "1")
    assert code == 2


def test_network_given_twice_exits_2(capsys, tmp_path):
    other = path_network(tmp_path, 3)
    for argv in (
        ("solve", FIG1, "--network", other, "--demand", "1"),
        ("solve", "--network", other, FIG1, "--demand", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "not allowed with" in err


def test_main_builds_no_parser(capsys, monkeypatch):
    # The parser is built once at import; an argparse error leaves no state behind.
    constructed = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = run(capsys, "solve", FIG1, "--demand", "7")
    assert run(capsys, "mincuts", FIG1)[0] == 0
    assert run(capsys, "solve", "--demand", "1")[0] == 2
    again = run(capsys, "solve", FIG1, "--demand", "7")
    assert first == again
    assert first[0] == 0
    assert constructed == []


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: dmincut ")
    for command in ("solve", "check-flaw", "oracle", "mincuts", "reliability"):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: dmincut {command} ")


def test_check_flaw_reports_the_counterexample(capsys):
    code, out, _ = run(capsys, "check-flaw", FIG1, "--demand", "7")
    assert code == 0
    lines = out.splitlines()
    target = [line for line in lines if line.startswith("X=(0,2,3,1,3,3)")]
    assert len(target) == 1
    assert "corrected=reject" in target[0]
    assert "flawed=accept" in target[0]
    assert "W(X)=5" in target[0]
    assert "W=6" in target[0]
    assert lines[-1].startswith("disagreements: ")
    assert int(lines[-1].split()[-1]) >= 1


def test_check_flaw_bump_values_match_the_oracle(capsys, tmp_path):
    # The listed X are exactly the candidates on which the d-MC definition (by the
    # oracle's own max flow) and the published test read literally (a positive-capacity
    # source-sink path after each bump) disagree, and every printed W(X) and
    # W(X + one unit on a) is the oracle's max flow.
    rng = random.Random("grid-3x3")
    grid = tmp_path / "grid.net"
    grid.write_text(serialize_network(grid_network(3, 3, (rng.randint(1, 3) for _ in itertools.count()))))
    checked = {FIG1: 0, str(grid): 0}
    for path, demands in ((FIG1, range(9)), (str(grid), range(4))):
        net = parse_network(Path(path).read_text())
        cuts = enumerate_min_cuts(net)
        for demand in demands:
            code, out, _ = run(capsys, "check-flaw", path, "--demand", str(demand))
            assert code == 0
            disagreeing = []
            for vector in distinct_candidates(net, cuts, demand):
                bumped = [bump(net, vector, arc_id) for arc_id in unsaturated_set(net, vector)]
                is_dmc = oracle.max_flow_value(net, vector) == demand and all(
                    oracle.max_flow_value(net, state) > demand for state in bumped
                )
                flawed = all(
                    net.sink in reachable_from_source(net, positive_caps=state) for state in bumped
                )
                if is_dmc != flawed:
                    disagreeing.append(vector)
            listed = []
            for line in out.splitlines()[:-1]:
                x_field, _, _, w_field, *evidence = line.split()
                vector = tuple(int(x) for x in x_field[len("X=(") : -1].split(","))
                listed.append(vector)
                assert w_field == f"W(X)={oracle.max_flow_value(net, vector)}"
                arcs = [int(item[1 : item.index(":")]) for item in evidence]
                assert arcs == sorted(unsaturated_set(net, vector))
                for arc_id, item in zip(arcs, evidence):
                    bumped = oracle.max_flow_value(net, bump(net, vector, arc_id))
                    assert item == f"e{arc_id}:W={bumped}"
                checked[path] += len(arcs)
            assert listed == disagreeing
    assert checked[FIG1] >= 424
    assert checked[str(grid)] >= 10_000


def test_check_flaw_runs_one_max_flow_per_candidate(capsys, max_flow_calls):
    # Both verdicts and the evidence come from one max flow of each distinct candidate;
    # the one more is infeasibility's max flow of the saturated state.
    net = parse_network(Path(FIG1).read_text())
    cuts = enumerate_min_cuts(net)
    for demand in (2, 7):
        max_flow_calls.clear()
        code, _, _ = run(capsys, "check-flaw", FIG1, "--demand", str(demand))
        assert code == 0
        assert len(max_flow_calls) == len(distinct_candidates(net, cuts, demand)) + 1


def test_check_flaw_searches_backward_once_per_candidate_at_the_demand(capsys, residual_tree_calls):
    # classify searches the sink tree of each candidate with W(X) = d and keeps it on the flow,
    # where the evidence of a disagreement reads it again.  A candidate off the demand gets a
    # backward search only for the evidence of its disagreement line.
    net = parse_network(Path(FIG1).read_text())
    residual_tree_calls.clear()
    cuts = enumerate_min_cuts(net)
    enumeration = residual_tree_calls.count((net.sink, 1))
    backward, expected = [], []
    for demand in range(9):
        residual_tree_calls.clear()
        code, out, _ = run(capsys, "check-flaw", FIG1, "--demand", str(demand))
        assert code == 0
        backward.append(residual_tree_calls.count((net.sink, 1)) - enumeration)
        at_demand = [oracle.max_flow_value(net, v) == demand for v in distinct_candidates(net, cuts, demand)]
        off_demand = [line for line in out.splitlines() if line.startswith("X=") and f" W(X)={demand} " not in line]
        expected.append(sum(at_demand) + len(off_demand))
    assert backward == expected
    assert backward == [4, 13, 27, 44, 56, 59, 51, 37, 22]


def test_check_flaw_single_arc_has_no_disagreements(capsys, tmp_path):
    net = tmp_path / "single.net"
    net.write_text("nodes 2 source 1 sink 2\nedge 1 1 2 4\n")
    for demand in range(0, 5):
        code, out, _ = run(capsys, "check-flaw", str(net), "--demand", str(demand))
        assert code == 0
        assert out.strip().splitlines()[-1] == "disagreements: 0"


def test_check_flaw_reports_count_even_when_zero(capsys):
    code, out, _ = run(capsys, "check-flaw", FIG1, "--demand", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("disagreements: ")


def test_check_flaw_infeasible_demand_exits_3(capsys):
    code, out, err = run(capsys, "check-flaw", FIG1, "--demand", "9")
    assert code == 3
    assert "disagreements:" in out
    assert "exceeds the max flow 8" in err


def test_mincuts_listing(capsys):
    for argv in (["mincuts", FIG1], ["mincuts", "--network", FIG1]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "cut 1 1 2 3",
            "cut 2 2 3 5",
            "cut 3 3 5 6",
            "cut 4 1 3 4 6",
        ]


def test_mincuts_disconnected_prints_the_empty_cut(capsys, tmp_path):
    # The sink is unreachable: the one minimal cut is the empty set, as the oracle says.
    net = tmp_path / "disc.net"
    net.write_text("nodes 3 source 1 sink 3\nedge 1 1 2 1\nedge 2 3 2 1\n")
    assert run(capsys, "mincuts", str(net)) == (0, "cut 1\n", "")


def test_disconnected_network_agrees_with_the_oracle(capsys, tmp_path):
    net = tmp_path / "disc.net"
    net.write_text(
        "nodes 4 source 1 sink 4\nedge 1 1 2 2\nedge 2 2 3 1\nedge 3 4 3 1\n"
        "prob 1 0.2 0.3 0.5\nprob 2 0.4 0.6\nprob 3 0.1 0.9\n"
    )
    code, listing, _ = run(capsys, "mincuts", str(net))
    assert (code, listing) == (0, "cut 1\n")
    cuts = tmp_path / "disc.cuts"
    cuts.write_text(listing)
    for demand in ("0", "1", "2"):
        _, oracle_out, _ = run(capsys, "oracle", str(net), "--demand", demand)
        code, out, err = run(capsys, "solve", str(net), "--demand", demand)
        assert run(capsys, "solve", str(net), "--demand", demand, "--cuts", str(cuts)) == (code, out, err)
        assert [line for line in out.splitlines() if not line.startswith("#")] == oracle_out.splitlines()
        assert "# audit_ok=True" in out.splitlines()
        # Only demand 0 is feasible, with the saturated vector as its one d-MC.
        assert code == (0 if demand == "0" else 3)
        for threshold in ("ge", "strict"):
            by_dmcs = run(capsys, "reliability", str(net), "--demand", demand, "--threshold", threshold)
            exhaustive = run(capsys, "reliability", str(net), "--demand", demand, "--threshold", threshold,
                             "--method", "exhaustive")
            assert by_dmcs == exhaustive
            assert by_dmcs[0] == 0


def test_mincuts_lists_every_cut_of_a_30_node_path(capsys, tmp_path):
    # 2^28 node subsets, but only 29 cuts to find.
    code, out, err = run(capsys, "mincuts", path_network(tmp_path, 30))
    assert code == 0
    assert err == ""
    assert out.splitlines() == [f"cut {k} {k}" for k in range(1, 30)]


def test_mincuts_on_huge_network_with_one_arc(capsys, tmp_path):
    # 20,000 declared nodes, 19,998 of them isolated.
    net = tmp_path / "wide.net"
    net.write_text("nodes 20000 source 1 sink 2\nedge 1 1 2 1\n")
    code, out, err = run(capsys, "mincuts", str(net))
    assert code == 0
    assert err == ""
    assert out == "cut 1 1\n"


def test_mincuts_cut_search_guard_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("dmincut.cuts.CUT_SEARCH_GUARD", 20)
    code, out, err = run(capsys, "mincuts", FIG1)
    assert code == 4
    assert out == ""
    assert "CUT_SEARCH_GUARD" in err and "--cuts" in err


def test_mincuts_long_path_has_no_traceback(capsys, tmp_path):
    # 1,200 nodes in a row: a search deeper than the interpreter's recursion limit.
    code, out, err = run(capsys, "mincuts", path_network(tmp_path, 1200))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1199
    assert lines[0] == "cut 1 1" and lines[-1] == "cut 1199 1199"


def test_commands_without_cut_file_run_on_a_30_node_path(capsys, tmp_path):
    net = path_network(tmp_path, 30, capacity=2)
    code, out, err = run(capsys, "check-flaw", net, "--demand", "1")
    assert (code, out, err) == (0, "disagreements: 0\n", "")
    prob = tmp_path / "path_prob.net"
    prob.write_text(
        (tmp_path / "path.net").read_text() + "".join(f"prob {v} 0.25 0.25 0.5\n" for v in range(1, 30))
    )
    code, out, err = run(capsys, "reliability", str(prob), "--demand", "2", "--method", "dmcs")
    assert code == 0
    assert err == ""
    assert out == f"{0.5 ** 29:.12f}\n"


def parallel_network(tmp_path, arcs):
    net = tmp_path / "parallel.net"
    net.write_text("nodes 2 source 1 sink 2\n" + "".join(f"edge {a} 1 2 1\n" for a in range(1, arcs + 1)))
    return net


def test_commands_run_on_a_cut_of_1000_parallel_arcs(capsys, tmp_path):
    # One cut of 1,000 arcs: the candidate walk must not recurse once per arc.
    m = 1000
    net = parallel_network(tmp_path, m)
    code, out, err = run(capsys, "solve", str(net), "--demand", "1")
    assert (code, err) == (0, "")
    dmcs = [line for line in out.splitlines() if line.startswith("(")]
    assert dmcs == ["(" + ",".join("1" if a == i else "0" for a in range(m)) + ")" for i in reversed(range(m))]
    assert run(capsys, "check-flaw", str(net), "--demand", "1") == (0, "disagreements: 0\n", "")


def test_huge_candidate_streams_are_refused(capsys, tmp_path):
    # Two parallel arcs of 10^12 at demand 10^12: 10^12 + 1 candidates, whose
    # counting table alone would hold 10^12 + 1 entries.  Both commands refuse
    # before counting or streaming any of them.
    net = tmp_path / "huge.net"
    net.write_text(f"nodes 2 source 1 sink 2\nedge 1 1 2 {10**12}\nedge 2 1 2 {10**12}\n")
    for command in ("solve", "check-flaw"):
        started = time.perf_counter()
        code, out, err = run(capsys, command, str(net), "--demand", str(10**12))
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "COMPOSITION_WORK_GUARD" in err


def test_candidate_search_guard_exits_4(capsys, tmp_path):
    # 60 parallel unit arcs at demand 30 pass the counting guard with 1,800 cells, but all
    # C(60, 30) ~ 1.2*10^17 candidates are d-MCs.  solve refuses before it searches or prints any,
    # and check-flaw before it reads any candidate stream.
    net = tmp_path / "parallel60.net"
    net.write_text("nodes 2 source 1 sink 2\n" + "".join(f"edge {a} 1 2 1\n" for a in range(1, 61)))
    for argv in (("solve",), ("solve", "--json"), ("check-flaw",)):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv, str(net), "--demand", "30")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "CANDIDATE_SEARCH_GUARD" in err


def test_check_flaw_work_guard_exits_4(capsys, tmp_path):
    # 40 parallel unit arcs at demand 8: C(40, 8) = 76,904,685 candidates pass the candidate guard,
    # but each gets a max flow over 40 arcs, about 3.1*10^9 candidate-arcs.  check-flaw refuses
    # before it reads any candidate stream.
    net = tmp_path / "parallel40.net"
    net.write_text("nodes 2 source 1 sink 2\n" + "".join(f"edge {a} 1 2 1\n" for a in range(1, 41)))
    started = time.perf_counter()
    code, out, err = run(capsys, "check-flaw", str(net), "--demand", "8")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{math.comb(40, 8)} candidates" in err and f"({40 * math.comb(40, 8)})" in err
    assert "CHECK_FLAW_WORK_GUARD" in err


def test_check_flaw_work_guard_charges_m_arcs_per_candidate(capsys, monkeypatch):
    # fig1 at demand 7: its four cuts have 6 + 3 + 6 + 23 = 38 candidates, charged 6 arcs each.
    monkeypatch.setattr(solver, "CHECK_FLAW_WORK_GUARD", 6 * 38 - 1)
    code, out, err = run(capsys, "check-flaw", FIG1, "--demand", "7")
    assert (code, out) == (4, "")
    assert "cuts 1..4 of 4 have 38 candidates" in err and "CHECK_FLAW_WORK_GUARD=227" in err
    monkeypatch.setattr(solver, "CHECK_FLAW_WORK_GUARD", 6 * 38)
    code, out, _ = run(capsys, "check-flaw", FIG1, "--demand", "7")
    assert code == 0 and out.endswith("disagreements: 32\n")


def test_node_count_above_guard_exits_2(capsys, tmp_path):
    net = tmp_path / "huge.net"
    net.write_text("nodes 1000001 source 1 sink 2\nedge 1 1 2 1\n")
    cuts = tmp_path / "huge.cuts"
    cuts.write_text("cut 1 1\n")
    code, out, err = run(capsys, "solve", str(net), "--demand", "1", "--cuts", str(cuts))
    assert code == 2
    assert out == ""
    assert "MAX_NODE_COUNT" in err


def test_non_utf8_input_exits_2(capsys, tmp_path):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"nodes 2 source 1 sink 2\n\xff\xfe\x00")
    for argv in (
        ("solve", str(binary), "--demand", "1"),
        ("solve", FIG1, "--demand", "1", "--cuts", str(binary)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{binary}: not a UTF-8 text file" in err


def test_reliability_nan_pmf_exits_2(capsys, tmp_path):
    net = tmp_path / "nan.net"
    net.write_text("nodes 2 source 1 sink 2\nedge 1 1 2 1\nprob 1 0.5 nan\n")
    for method in ("dmcs", "exhaustive"):
        code, out, err = run(capsys, "reliability", str(net), "--demand", "1", "--method", method)
        assert code == 2
        assert out == ""
        assert "NaN" in err


def test_check_flaw_long_path_with_cut_file(capsys, tmp_path):
    # 30 nodes in a row, given a partial cut file.
    net = path_network(tmp_path, 30, capacity=2)
    cuts = tmp_path / "path.cuts"
    cuts.write_text("cut 1 1\n")
    code, out, err = run(capsys, "check-flaw", net, "--demand", "1", "--cuts", str(cuts))
    assert code == 0
    assert err == ""
    assert out == "disagreements: 0\n"


def test_oracle_and_solve_listings_are_byte_identical(capsys):
    for demand in range(0, 9):
        code_s, out_s, _ = run(capsys, "solve", FIG1, "--demand", str(demand))
        code_o, out_o, _ = run(capsys, "oracle", FIG1, "--demand", str(demand))
        assert code_s == code_o == 0
        solve_listing = "".join(
            line + "\n" for line in out_s.splitlines() if not line.startswith("#")
        )
        assert solve_listing == out_o


def test_oracle_guard_exits_4(capsys, tmp_path):
    net = tmp_path / "huge.net"
    net.write_text(
        "nodes 2 source 1 sink 2\n" + "".join(f"edge {i} 1 2 9\n" for i in range(1, 11))
    )
    code, _, err = run(capsys, "oracle", str(net), "--demand", "3")
    assert code == 4
    assert "guard" in err


def test_reliability_methods_agree(capsys):
    for demand in ["1", "2", "7", "8", "9"]:
        _, out_d, _ = run(capsys, "reliability", FIG1_PROB, "--demand", demand, "--method", "dmcs")
        _, out_e, _ = run(capsys, "reliability", FIG1_PROB, "--demand", demand, "--method", "exhaustive")
        assert abs(float(out_d) - float(out_e)) <= 1e-12
        assert len(out_d.strip().split(".")[1]) == 12  # twelve decimal places


def test_reliability_strict_threshold(capsys):
    _, strict, _ = run(capsys, "reliability", FIG1_PROB, "--demand", "7", "--threshold", "strict")
    _, ge_next, _ = run(capsys, "reliability", FIG1_PROB, "--demand", "8", "--threshold", "ge")
    assert strict == ge_next


def test_reliability_demand_zero_is_certain(capsys):
    code, out, _ = run(capsys, "reliability", FIG1_PROB, "--demand", "0")
    assert code == 0
    assert out.strip() == "1.000000000000"


def test_reliability_without_pmfs_exits_2(capsys):
    code, _, err = run(capsys, "reliability", FIG1, "--demand", "3")
    assert code == 2
    assert "prob" in err


def test_reliability_dmcs_route_past_twenty_dmcs(capsys):
    # Demand 4 needs the 3-MC set: 32 vectors, which the union handles exactly.
    code_d, out_d, _ = run(capsys, "reliability", FIG1_PROB, "--demand", "4", "--method", "dmcs")
    code_e, out_e, _ = run(capsys, "reliability", FIG1_PROB, "--demand", "4", "--method", "exhaustive")
    assert code_d == code_e == 0
    assert out_d == out_e == "0.428125000000\n"


def test_reliability_dmcs_route_guard_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "UNION_WORK_GUARD", 1000)
    code, out, err = run(capsys, "reliability", FIG1_PROB, "--demand", "4", "--method", "dmcs")
    assert code == 4
    assert out == ""
    assert "guard" in err


def test_reliability_guard_exits_4(capsys, tmp_path):
    net = tmp_path / "huge.net"
    lines = ["nodes 2 source 1 sink 2\n"]
    lines += [f"edge {i} 1 2 9\n" for i in range(1, 11)]
    lines += [f"prob {i} " + " ".join(["0.1"] * 10) + "\n" for i in range(1, 11)]
    net.write_text("".join(lines))
    code, _, err = run(capsys, "reliability", str(net), "--demand", "3", "--method", "exhaustive")
    assert code == 4


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_negative_demand_exits_2(capsys):
    for command in ("solve", "check-flaw", "oracle"):
        code, _, err = run(capsys, command, FIG1, "--demand", "-1")
        assert code == 2
        assert "nonnegative" in err


def test_solve_json_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "dmincut.cli", "solve", FIG1, "--demand", "7", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty


def test_closed_output_pipe_exits_141_without_a_message(tmp_path):
    # 1,200 d-MCs of 1,200 entries each, about 2.4 MB: far more than a pipe buffer.
    net = parallel_network(tmp_path, 1200)
    cmd = [sys.executable, "-m", "dmincut.cli", "solve", str(net), "--demand", "1"]
    stderr = tmp_path / "stderr"
    with stderr.open("wb") as err_file:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_file)
        assert proc.stdout.readline().startswith(b"(")
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert (code, stderr.read_bytes()) == (141, b"")


def test_solve_runs_with_docstrings_stripped():
    cmd = [sys.executable, "-m", "dmincut.cli", "solve", FIG1, "--demand", "7"]
    plain = subprocess.run(cmd, capture_output=True)
    stripped = subprocess.run(cmd, capture_output=True, env={**os.environ, "PYTHONOPTIMIZE": "2"})
    assert plain.returncode == stripped.returncode == 0
    assert stripped.stdout == plain.stdout
    assert stripped.stderr == b""


def test_solve_text_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "dmincut.cli", "solve", FIG1, "--demand", "3"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
