"""One workload run in a fresh process, so its set-up time and memory are its own.

``python3 -m perfbench.worker run MANIFEST SECONDS TRACE OUT`` runs the
manifest's operations in passes through ``dmincut.cli.main`` in-process,
with stdout and stderr captured, until SECONDS have passed (at least one
pass; with TRACE=1 untraced and traced passes alternate, at least one of
each).  It writes each operation's output from the first pass, every
latency with its pace, each pass's pace, the per-layer metrics of each
traced pass and ``ru_maxrss`` to OUT as JSON, and the spans of the last
traced pass next to it.

``python3 -m perfbench.worker setup MANIFEST`` imports ``dmincut``, parses
the manifest's input files and prints the seconds that took and the pace
measured right after.

The pace is the median time of a yardstick: a fixed slice of pure-Python
work that belongs to the benchmark, not to the program.  On a shared
machine the speed of the same code moves by a third and more from one
minute to the next, as neighbours come and go; the program's times and
the yardstick's largely move together, so ``run.py`` reports times at a
fixed reference pace.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


# Yardstick time spent per second of operation time within a pass.
PACE_SHARE = 0.1
SETUP_SLICES = 41

_GRAPH = tuple(tuple((7 * u + 13 * j) % 61 for j in range(5)) for u in range(61))


def yardstick() -> float:
    """Seconds one fixed slice of work takes now: breadth-first searches and float sums."""
    start = perf_counter()
    total = 0.0
    for source in range(12):
        seen = {source}
        queue = [source]
        k = 0
        while k < len(queue):
            u = queue[k]
            k += 1
            for v in _GRAPH[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        weights = tuple(0.5 + v / 122 for v in queue)
        total += max(weights) * sum(w * w for w in weights)
    return perf_counter() - start


def setup(manifest: dict) -> float:
    """Seconds to import dmincut and parse the manifest's input files."""
    start = perf_counter()
    from perfbench import import_dmincut

    dmincut = import_dmincut()
    nets = {}
    for path in manifest["networks"]:
        text = Path(path).read_text()
        nets[path] = dmincut.parse_network(text)
        dmincut.parse_edge_distribution(text, nets[path])
    for cuts, net in manifest["cut_files"]:
        dmincut.parse_cuts(Path(cuts).read_text(), nets[net])
    return perf_counter() - start


def run_op(cli, argv: list[str]) -> tuple[dict, float]:
    """Run one command; return its outcome and latency in seconds."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an operation that raises counts as failed, the run goes on
            code = None
            error = traceback.format_exc()
        elapsed = perf_counter() - start
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}, elapsed


def run(manifest: dict, seconds: float, trace: bool, spans_path: Path) -> dict:
    from perfbench import import_dmincut
    from perfbench.tracing import Tracer

    import_dmincut()
    import dmincut.cli as cli

    ops = manifest["ops"]
    first: list[dict] = []
    passes: list[dict] = []
    mismatches = [0] * len(ops)
    last_tracer = None
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            last_tracer = tracer
            tracer.install()
        latencies, paces, slices = [], [], []
        owed = 0.0
        try:
            for i, op in enumerate(ops):
                outcome, elapsed = run_op(cli, op["argv"])
                latencies.append(elapsed)
                # Pace each operation with the yardstick slices run right after it,
                # worth PACE_SHARE of the pass's operation time and at least one.
                owed += PACE_SHARE * elapsed
                after = []
                while owed > 0 or not after:
                    after.append(yardstick())
                    owed -= after[-1]
                paces.append(statistics.median(after))
                slices += after
                if not passes:
                    first.append(outcome)
                elif outcome != first[i]:
                    mismatches[i] += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        record = {
            "traced": traced,
            "latencies": latencies,
            "paces": paces,
            "pace": statistics.median(slices),
        }
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
        passes.append(record)
        done = perf_counter() - start >= seconds
        if done and (not trace or len(passes) >= 2):
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if last_tracer is not None:
        last_tracer.write_spans(spans_path)

    # Untimed: the d-MC listing each reliability operation unioned, for the checker.
    listings = {}
    for op in ops:
        if "expected_dmcs" in op:
            outcome, _ = run_op(cli, ["solve", op["net"], "--demand", str(op["level"])])
            listings[op["id"]] = outcome
    return {
        "first": first,
        "mismatches": mismatches,
        "passes": passes,
        "maxrss_kb": maxrss_kb,
        "listings": listings,
    }


def main(argv: list[str]) -> int:
    mode, manifest_path, *rest = argv
    manifest = json.loads(Path(manifest_path).read_text())
    if mode == "setup":
        elapsed = setup(manifest)
        pace = statistics.median(yardstick() for _ in range(SETUP_SLICES))
        print(repr(elapsed), repr(pace))
        return 0
    seconds, trace, out = float(rest[0]), rest[1] == "1", Path(rest[2])
    result = run(manifest, seconds, trace, out.with_suffix(".spans.tsv"))
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
