"""Run one dmincut benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload grid-enum --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The run writes the workload's inputs from the seed under
``.perfbench_work/``, measures ``setup_s`` in fresh processes, runs the
operations in a fresh worker process for ``--seconds``, checks every output
against the brute-force oracle and prints one line per metric, then one
JSON object as the last line.  With ``--trace 0`` that object holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The full record, with the program's git SHA, source digest, Python
version and CPU count, goes to ``.perfbench_work/results/``.

The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import DEFAULT_SEED, ROOT, SRC, WORK, import_dmincut  # noqa: E402

SETUP_REPEATS = 15
WORKER_TIMEOUT_S = 100

# Seconds of one yardstick slice at the reference pace (see perfbench/worker.py),
# about what it takes on a 2-vCPU cloud VM at its usual speed.
# Every time metric is reported at this pace: a measured time t, taken
# while the slice took p seconds, is reported as t * REFERENCE_PACE_S / p.
REFERENCE_PACE_S = 430e-6

# The layer times each workload is meant to stress; a traced run prints
# their share of the traced pass time.
STRESSED_LAYERS = {
    "cuts.enumerate_s": ("cuts.enumerate_s",),
    "search_self_s": (
        "candidates.stream_s",
        "verify.self_s",
        "maxflow.max_flow_s",
        "maxflow.residual_s",
        "solver.self_s",
    ),
    "oracle.union_s": ("oracle.union_s",),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def provenance() -> dict:
    """Identity of the program measured and of the machine it ran on."""
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _python(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True,
    )


def measure_setup(manifest_path: Path) -> float:
    """Median over fresh processes of importing dmincut and parsing the inputs, at the reference pace."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, pace = map(float, _python("setup", str(manifest_path), timeout=60).stdout.split())
        times.append(at_reference_pace(elapsed, pace))
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference_pace(seconds: float, pace: float) -> float:
    return seconds * REFERENCE_PACE_S / pace


def typical(passes: list[dict]) -> list[float]:
    """Each operation's median latency over the given passes, at the reference pace.

    Each latency is scaled by the pace measured right after it.  Whether an
    operation's fastest repetition catches one of the machine's short fast
    stretches is luck, so its median is the steadier estimate.
    """
    return [
        statistics.median(lat)
        for lat in zip(*(map(at_reference_pace, p["latencies"], p["paces"]) for p in passes))
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import check, workloads

    directory = WORK / f"{name}-s{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    manifest = workloads.build(name, seed, directory)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))

    setup_s = None if trace else measure_setup(manifest_path)
    out = directory / "worker.json"
    _python("run", str(manifest_path), repr(seconds), "1" if trace else "0", str(out),
            timeout=WORKER_TIMEOUT_S + seconds)
    result = json.loads(out.read_text())

    ops, passes = manifest["ops"], result["passes"]
    problems = {}
    for op, outcome in zip(ops, result["first"]):
        found = check.check(op, outcome, result["listings"].get(op["id"]))
        if found:
            problems[op["id"]] = found
    # A wrong output fails every execution of its operation; a correct one
    # fails only the executions whose output differed from it.
    failed = sum(
        len(passes) if op["id"] in problems else changed
        for op, changed in zip(ops, result["mismatches"])
    )
    attempted = len(ops) * len(passes)

    untraced = [p for p in passes if not p["traced"]]
    per_op = typical(untraced)
    wall_s = sum(per_op)
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {
            key: statistics.median(
                at_reference_pace(p["layers"][key], p["pace"]) if key.endswith("_s") else p["layers"][key]
                for p in traced
            )
            for key in traced[0]["layers"]
        }
        metrics["tracing.overhead_s"] = sum(typical(traced)) - wall_s

        def share(p, keys):
            return sum(p["layers"][k] for k in keys) / sum(p["latencies"])

        shares = {
            name: statistics.median(share(p, keys) for p in traced)
            for name, keys in STRESSED_LAYERS.items()
        }
    else:
        shares = {}
        latencies_ms = [x * 1e3 for x in per_op]
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "op_p50_ms": percentile(latencies_ms, 50),
            "op_p95_ms": percentile(latencies_ms, 95),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "ops_total": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "untraced_wall_s": wall_s,
        "median_pass_s": statistics.median(sum(p["latencies"]) for p in untraced),
        "median_pace_s": statistics.median(p["pace"] for p in untraced),
        "shares_of_traced_wall": shares,
        "problems": problems,
        "metrics": metrics,
        **provenance(),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.split(".")[1].endswith("ratio"):
        return "ratio"
    return "count"


def report(record: dict) -> dict:
    """Print the record's metrics by name and unit; return the result object."""
    print(
        f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}"
        f" passes={record['passes']} ops_total={record['ops_total']}"
        f" failed={record['failed']} fail_ratio={record['fail_ratio']:.6f}"
        f" git_sha={record['git_sha']} src_sha256={record['src_sha256'][:16]}"
        f" python={record['python']} nproc={record['nproc']}"
    )
    if record["shares_of_traced_wall"]:
        shares = " ".join(f"{k}={v:.3f}" for k, v in record["shares_of_traced_wall"].items())
        print(f"# share of the traced wall_s: {shares}")
    for op_id, problems in sorted(record["problems"].items()):
        print(f"# FAIL {op_id}: {'; '.join(problems)}")
    metrics = {}
    for key, value in record["metrics"].items():
        unit = END_TO_END_UNITS.get(key) or layer_unit(key)
        metrics[key] = {"value": value, "unit": unit}
        print(f"{key} {value!r} {unit}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["ops_total"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_dmincut()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{name}-s{args.seed}-t{args.trace}"
        (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2))
        results[name] = report(record)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
