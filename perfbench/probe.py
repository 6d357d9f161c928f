"""Set-up probe: in a fresh interpreter, time ``import qhydro.cli`` plus
building one workload's inputs, and print the seconds on stdout.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR SRC
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[4])

import qhydro.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]),
                Path(sys.argv[4]))
print(repr(time.perf_counter() - _START))
