"""The three workloads: input files written from a seed, operations, references.

``build(name, seed, directory)`` writes the workload's input files and
returns its manifest: the ``dmincut`` argument lists of its operations and
what each one's output is checked against.  Reference data comes from the
brute-force oracle and is computed here, outside any timed region.

* ``grid-enum``: ``solve --demand 1`` on the seeded 2x6 grid with no cut
  file, so minimal-cut enumeration (4,096 node subsets) dominates.
* ``grid-cutfile``: ``solve --cuts`` at demand 2 (accept-heavy) and 3
  (reject-heavy) on 47 seeded 4x4 grids.  The 4x4 grid's 1,160 minimal
  cuts are stored once, since cuts do not depend on capacities.  A run
  takes a seeded eighth of the cuts of each size (candidate counts grow
  with cut size, so this fixes the amount of search) and deals them,
  smallest first, over the grids' cut files in snake order, three cuts
  to each, so that every grid gets a similar mix of sizes.  Spreading
  the search over 47 capacity draws keeps a run's work close to the same
  from seed to seed, and 94 operations of three cuts each keep the latency
  percentiles from hanging on one or two operations.
* ``reliability-sweep``: ``reliability --method dmcs`` on small random
  networks with random pmfs.  A (network, demand) pair whose level
  ``demand - 1`` has k d-MCs is an operation; a run takes the first
  ``PER_K`` such pairs for each k in ``1..MAX_K``, so every run unions the
  same number of inclusion-exclusion terms.  Only networks with
  ``MAX_ARCS`` arcs are kept: a term costs one product per arc, so a
  fixed arc count makes an operation's cost depend on k far more than on
  the seed, and keeps the latency percentiles from moving with it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from . import DATA, DEFAULT_SEED, ROOT, import_dmincut, instances

WORKLOADS = ("grid-enum", "grid-cutfile", "reliability-sweep")

GRID_ENUM_SHAPE = (2, 6)
GRID_CUTFILE_GRIDS = 47
# A run uses one in this many of the stored cuts of each size.
GRID_CUTFILE_SHARE = 8
GRID_CUTFILE_LEVELS = (2, 3)
CUTS_4X4 = DATA / "grid-4x4.cuts"
DIGESTS = DATA / "digests.json"

MAX_K = 15
PER_K = 32
MAX_NETWORK_DRAWS = 50_000


def listing_digest(vectors) -> str:
    """SHA-256 of a d-MC listing, one ``(x1,...,xm)`` line per vector in the given order."""
    text = "".join("(" + ",".join(map(str, v)) + ")\n" for v in vectors)
    return hashlib.sha256(text.encode()).hexdigest()


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text)
    return str(path.relative_to(ROOT))


def _grid_enum(seed: int, directory: Path) -> dict:
    grid = instances.grid_network(*GRID_ENUM_SHAPE, seed)
    net = _write(directory, "grid-2x6.net", grid.text())
    op = {"id": "grid-2x6.d1", "argv": ["solve", net, "--demand", "1"], "net": net, "level": 1}
    return {"networks": [net], "cut_files": [], "ops": [op]}


def snake_deal(items: list, hands: int) -> list[list]:
    """Deal items to hands in rounds, every other round in reverse order.

    Dealt from a list sorted by size, this gives the hand that gets the
    smallest item of one round the largest of the next, so the hands'
    totals stay close.
    """
    dealt: list[list] = [[] for _ in range(hands)]
    for j, item in enumerate(items):
        turn, seat = divmod(j, hands)
        dealt[seat if turn % 2 == 0 else hands - 1 - seat].append(item)
    return dealt


def _grid_cutfile(seed: int, directory: Path) -> dict:
    cut_lines = [line for line in CUTS_4X4.read_text().splitlines() if line.strip()]
    rng = random.Random(f"grid-cutfile:{seed}")
    by_size: dict[int, list[int]] = {}
    for i, line in enumerate(cut_lines):
        by_size.setdefault(len(line.split()) - 2, []).append(i)
    chosen = []
    for size in sorted(by_size):
        members = by_size[size]
        rng.shuffle(members)
        chosen += members[: len(members) // GRID_CUTFILE_SHARE]
    hands = snake_deal(chosen, GRID_CUTFILE_GRIDS)
    networks, cut_files, ops = [], [], []
    for g in range(GRID_CUTFILE_GRIDS):
        grid = instances.grid_network(4, 4, seed * GRID_CUTFILE_GRIDS + g)
        net = _write(directory, f"grid-4x4-{g:02d}.net", grid.text())
        dealt = sorted(hands[g])
        cuts = _write(directory, f"grid-4x4-{g:02d}.cuts", "\n".join(cut_lines[i] for i in dealt) + "\n")
        networks.append(net)
        cut_files.append((cuts, net))
        for level in GRID_CUTFILE_LEVELS:
            ops.append({
                "id": f"grid-4x4-{g:02d}.d{level}",
                "argv": ["solve", net, "--demand", str(level), "--cuts", cuts],
                "net": net,
                "level": level,
            })
    return {"networks": networks, "cut_files": cut_files, "ops": ops}


def _reliability_sweep(seed: int, directory: Path) -> dict:
    dmincut = import_dmincut()
    rng = random.Random(f"reliability-sweep:{seed}")
    wanted = {k: PER_K for k in range(1, MAX_K + 1)}
    networks, ops = [], []
    for _ in range(MAX_NETWORK_DRAWS):
        if not any(wanted.values()):
            break
        inst = instances.random_network(rng)
        if len(inst.arcs) != instances.MAX_ARCS:
            continue
        parsed = dmincut.parse_network(inst.text())
        levels = dmincut.dmc_levels(parsed)
        picked = []
        for demand in range(1, max(levels) + 1):
            expected = levels.get(demand - 1, ())
            if wanted.get(len(expected)):
                wanted[len(expected)] -= 1
                picked.append((demand, expected))
        if not picked:
            continue
        net = _write(directory, f"net-{len(networks):04d}.net", inst.text())
        networks.append(net)
        for demand, expected in picked:
            ops.append({
                "id": f"{Path(net).stem}.d{demand}",
                "argv": ["reliability", net, "--demand", str(demand), "--method", "dmcs"],
                "net": net,
                "level": demand - 1,
                "k": len(expected),
                "expected_dmcs": [list(v) for v in expected],
            })
    else:
        raise RuntimeError(f"seed {seed}: {MAX_NETWORK_DRAWS} networks did not fill every k bucket")
    # Run order is a seeded shuffle, so operations of one size are not back to back.
    rng.shuffle(ops)
    return {"networks": networks, "cut_files": [], "ops": ops}


INPUT_WRITERS = {
    "grid-enum": _grid_enum,
    "grid-cutfile": _grid_cutfile,
    "reliability-sweep": _reliability_sweep,
}


def build(name: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs under ``directory`` and return its manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = INPUT_WRITERS[name](seed, directory)
    manifest.update(workload=name, seed=seed)
    if seed == DEFAULT_SEED and name in ("grid-enum", "grid-cutfile"):
        digests = json.loads(DIGESTS.read_text())[name]
        for op in manifest["ops"]:
            op["expected_digest"] = digests[op["id"]]
    return manifest


def record_digests() -> None:
    """Rewrite ``data/digests.json`` from the default-seed grid listings.

    Every listed vector must first pass the oracle check.  Run as
    ``python3 -m perfbench.workloads`` from the checkout root; do so only
    when the instances change, never to make a failing run pass.
    """
    import tempfile

    from .check import check_solve, listed_vectors
    from .worker import run_op

    import_dmincut()
    import dmincut.cli as cli

    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in ("grid-enum", "grid-cutfile"):
            manifest = INPUT_WRITERS[name](DEFAULT_SEED, Path(tmp))
            digests[name] = {}
            for op in manifest["ops"]:
                outcome, _ = run_op(cli, op["argv"])
                problems = check_solve(op, outcome)
                if problems:
                    raise RuntimeError(f"{op['id']}: {problems}")
                digests[name][op["id"]] = listing_digest(listed_vectors(outcome["stdout"]))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_digests()
