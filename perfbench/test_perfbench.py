"""Self-tests of the benchmark: generators, checker, tracer.

Run from the checkout root::

    python3 -m pytest perfbench -q
    PERFBENCH_SLOW=1 python3 -m pytest perfbench -q   # adds the ~50 s cut-file check
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import ROOT, WORK, import_dmincut, instances, workloads
from perfbench.check import check_reliability, check_solve
from perfbench.tracing import TARGETS, Tracer
from perfbench.worker import run_op

dmincut = import_dmincut()
import dmincut.cli as cli  # noqa: E402


@pytest.fixture
def workdir(request):
    path = WORK / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def sweep_manifest():
    path = WORK / "selftest" / "sweep"
    shutil.rmtree(path, ignore_errors=True)
    yield workloads.build("reliability-sweep", 7, path)
    shutil.rmtree(path, ignore_errors=True)


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("rows, cols, nodes, arcs", [(2, 6, 14, 20), (3, 5, 17, 28), (4, 4, 18, 32)])
def test_grid_shapes(rows, cols, nodes, arcs):
    net = dmincut.parse_network(instances.grid_network(rows, cols, 1).text())
    assert (net.node_count, net.arc_count) == (nodes, arcs)
    assert all(1 <= w <= 3 for w in net.max_capacities)


def test_generators_are_deterministic_per_seed():
    assert instances.grid_network(4, 4, 5).text() == instances.grid_network(4, 4, 5).text()
    assert instances.grid_network(4, 4, 5).text() != instances.grid_network(4, 4, 6).text()

    def draws(seed):
        rng = random.Random(seed)
        return [instances.random_network(rng).text() for _ in range(20)]

    assert draws(3) == draws(3)
    assert draws(3) != draws(4)


def test_random_networks_have_the_acceptance_sweep_shape():
    rng = random.Random(11)
    for _ in range(200):
        text = instances.random_network(rng).text()
        net = dmincut.parse_network(text)
        dist = dmincut.parse_edge_distribution(text, net)
        assert 2 <= net.node_count <= 6 and 1 <= net.arc_count <= 8
        assert max(net.max_capacities) <= 3
        assert dist is not None
        assert dmincut.enumerate_min_cuts(net)  # the sink is reachable


@pytest.mark.parametrize("name", ["grid-enum", "grid-cutfile"])
def test_workload_inputs_are_deterministic_per_seed(name, workdir):
    first = workloads.build(name, 3, workdir / "a")
    second = workloads.build(name, 3, workdir / "b")
    assert len(first["ops"]) == len(second["ops"])
    for a, b in zip(first["networks"] + [c for c, _ in first["cut_files"]],
                    second["networks"] + [c for c, _ in second["cut_files"]]):
        assert (ROOT / a).read_text() == (ROOT / b).read_text()


def test_grid_cutfile_takes_a_share_of_each_cut_size(workdir):
    manifest = workloads.build("grid-cutfile", 4, workdir)
    stored = [line.split()[2:] for line in workloads.CUTS_4X4.read_text().splitlines()]
    used = [
        line.split()[2:]
        for cuts, _ in manifest["cut_files"]
        for line in (ROOT / cuts).read_text().splitlines()
    ]
    assert len(used) == len(set(map(tuple, used)))
    for size in {len(c) for c in stored}:
        expected = sum(len(c) == size for c in stored) // workloads.GRID_CUTFILE_SHARE
        assert sum(len(c) == size for c in used) == expected


def test_sweep_fills_every_k_bucket(sweep_manifest):
    ks = [op["k"] for op in sweep_manifest["ops"]]
    assert sorted(set(ks)) == list(range(1, workloads.MAX_K + 1))
    assert all(ks.count(k) == workloads.PER_K for k in set(ks))


@pytest.mark.skipif(not os.environ.get("PERFBENCH_SLOW"), reason="set PERFBENCH_SLOW=1 (~50 s)")
def test_stored_cut_file_equals_enumeration():
    net = dmincut.parse_network(instances.grid_network(4, 4, 1).text())
    stored = dmincut.parse_cuts(workloads.CUTS_4X4.read_text(), net)
    assert stored == dmincut.enumerate_min_cuts(net)


# -- checker ------------------------------------------------------------------


def test_checker_flags_wrong_and_missing_dmcs(workdir):
    manifest = workloads.build("grid-cutfile", 1, workdir)
    op = manifest["ops"][0]
    outcome, _ = run_op(cli, op["argv"])
    assert check_solve(op, outcome) == []

    lines = outcome["stdout"].splitlines()
    vector_at = next(i for i, line in enumerate(lines) if line.startswith("("))
    values = lines[vector_at].strip("()").split(",")
    values[0] = str(int(values[0]) - 1) if int(values[0]) > 0 else "1"
    wrong = lines[:vector_at] + ["(" + ",".join(values) + ")"] + lines[vector_at + 1:]
    problems = check_solve(op, dict(outcome, stdout="\n".join(wrong) + "\n"))
    assert any("not 2-MCs" in p for p in problems)

    missing = lines[:vector_at] + lines[vector_at + 1:]
    problems = check_solve(op, dict(outcome, stdout="\n".join(missing) + "\n"))
    assert any("default-seed listing" in p for p in problems)

    assert check_solve(op, dict(outcome, exit=3))


def test_checker_flags_perturbed_probability_and_listing(sweep_manifest):
    op = next(o for o in sweep_manifest["ops"] if o["k"] == 3)
    outcome, _ = run_op(cli, op["argv"])
    level = op["level"]
    listing, _ = run_op(cli, ["solve", op["net"], "--demand", str(level)])
    assert check_reliability(op, outcome, listing) == []

    perturbed = f"{float(outcome['stdout']) + 1e-9:.12f}\n"
    assert check_reliability(op, dict(outcome, stdout=perturbed), listing)

    lines = listing["stdout"].splitlines()
    short = [line for line in lines if line != lines[0]]
    assert check_reliability(op, outcome, dict(listing, stdout="\n".join(short) + "\n"))


# -- tracer -------------------------------------------------------------------


def test_traced_run_reproduces_outputs_and_counters(workdir, sweep_manifest):
    grid = workloads.build("grid-cutfile", 2, workdir)
    ops = grid["ops"][:2] + sweep_manifest["ops"][:20]
    plain = [run_op(cli, op["argv"])[0] for op in ops]
    with Tracer() as tracer:
        traced = [run_op(cli, op["argv"])[0] for op in ops]
    assert traced == plain
    assert tracer.layer_metrics()["verify.calls"] > 0

    op = grid["ops"][1]
    net = dmincut.parse_network((ROOT / op["net"]).read_text())
    cuts = dmincut.parse_cuts((ROOT / op["argv"][-1]).read_text(), net)
    expected = dmincut.find_all_dmcs(net, op["level"], cuts)
    with Tracer():
        again = dmincut.solver.find_all_dmcs(net, op["level"], cuts)
    assert again == expected
    assert again.counters.to_dict() == expected.counters.to_dict()


def test_every_wrapped_function_is_restored():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(
                getattr(importlib.import_module(m), a) is not fn for (m, a), fn in before.items()
            )
            1 / 0
    assert {k: getattr(importlib.import_module(k[0]), k[1]) for k in before} == before


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap_call("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap_call("outer", body)()
    totals = tracer.totals()
    outer_inclusive, outer_self, _ = totals["outer"]
    inner_inclusive, inner_self, inner_calls = totals["inner"]
    assert inner_calls == 2 and inner_self == inner_inclusive
    assert outer_self == pytest.approx(outer_inclusive - inner_inclusive, abs=1e-9)
    assert 0.009 <= outer_self < inner_inclusive



def test_times_are_reported_at_the_reference_pace():
    from perfbench.run import REFERENCE_PACE_S, typical

    # The same operations at the reference pace, then twice as slow, then the
    # first at the reference pace and the second at half of it.
    ref = REFERENCE_PACE_S
    passes = [
        {"latencies": [0.010, 0.030], "paces": [ref, ref]},
        {"latencies": [0.020, 0.060], "paces": [2 * ref, 2 * ref]},
        {"latencies": [0.011, 0.015], "paces": [ref, ref / 2]},
    ]
    assert typical(passes) == pytest.approx([0.010, 0.030])


def test_the_worker_paces_every_pass(workdir):
    from perfbench.worker import run

    manifest = workloads.build("grid-enum", 1, workdir)
    result = run(manifest, 0.0, True, workdir / "spans.tsv")
    assert [p["traced"] for p in result["passes"]] == [False, True]
    assert all(p["pace"] > 0 and len(p["paces"]) == len(manifest["ops"]) for p in result["passes"])


# -- the command ----------------------------------------------------------------


def test_run_refuses_a_directory_without_sources(workdir):
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
    assert all(not line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_lists_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    from perfbench.run import END_TO_END_UNITS

    assert end_to_end == set(END_TO_END_UNITS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    layers = set(Tracer().layer_metrics()) | {"tracing.overhead_s"}
    assert per_layer == layers
