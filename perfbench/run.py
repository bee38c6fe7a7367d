"""Benchmark of linnetcox's simulate -> fit -> envelope pipeline.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--workload all`` runs the two workloads in turn. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

# One process at a time carries the load; keep its BLAS to one thread so
# that runs on a shared machine stay comparable. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["readme", "scale", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so the running
    # program process is stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "linnetcox" / "__init__.py").is_file():
        print(f"error: no linnetcox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workloads.oracle.self_check()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            run = workloads.Run(name, args.seed, args.seconds, bool(args.trace), work)
            print(f"{name}:")
            result = workloads.WORKLOADS[name](run)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):     # another run still uses it
                work.parent.rmdir()
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
