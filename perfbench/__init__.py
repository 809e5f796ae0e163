"""Benchmark for the dmincut command: workloads, tracing and output checks.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a source checkout; ``README.md`` in this
directory describes the workloads and metrics.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1


def import_dmincut():
    """Import ``dmincut`` from this checkout's ``src`` and nowhere else.

    Raises ``ImportError`` when the checkout carries no sources, so the
    benchmark cannot silently measure some other installed copy.
    """
    import sys

    init = SRC / "dmincut" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no dmincut sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dmincut

    if Path(dmincut.__file__).resolve() != init.resolve():
        raise ImportError(f"dmincut was imported from {dmincut.__file__}, not {init}")
    return dmincut
