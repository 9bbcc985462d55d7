"""One set-up sample in a fresh interpreter: prints seconds on stdout.

Usage: python3 perfbench/probe.py <workload> <seed>

The sample is the time of ``import restcipher`` plus the workload's
``setup`` (tables derived, servers listening, keys exchanged), rescaled to
reference speed like every op time (see ``speed.py``).  Making the inputs
in between is the benchmark's own work and is not timed.  Servers are
left to die with the process: closing one waits out its 0.5 s poll, which
is teardown, not set-up.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

start, cpu = time.perf_counter(), time.process_time()
import restcipher  # noqa: E402,F401
wall, cpu = time.perf_counter() - start, time.process_time() - cpu

from perfbench import gen, speed, workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](gen.inputs(sys.argv[1], int(sys.argv[2])))
start, busy = time.perf_counter(), time.process_time()
workload.setup()
wall += time.perf_counter() - start
cpu += time.process_time() - busy
print(speed.rescale(wall, cpu, speed.factor()))
