"""Entry point of the evolalg benchmark.

    python3 perfbench/run.py --workload random-suite --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark analyses the checkout's own
``src/evolalg``; without it the run stops with exit code 2 and prints no
result.  ``--workload all`` runs every workload, each in its own process.
See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    # The per-support thread pool only slows single-algebra runs under the
    # GIL; every run measures the single-threaded engines.
    os.environ.pop("EVOLALG_THREADS", None)
    if not (SRC / "evolalg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no evolalg sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
