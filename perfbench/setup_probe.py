"""Time one fresh-process set-up: import lmlangevin, build every generated input, schedule and oracle.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
Prints one JSON line {"setup_s": seconds}.  run.py starts several of these and
reports their median as ``setup_s``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import lmlangevin  # noqa: F401

    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    for index in range(w.inputs):
        w.build(seed, index, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
