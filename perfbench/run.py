"""Benchmark runner for restcipher.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Before any timing the paper vectors must re-encrypt byte for byte.  One
client thread drives a closed loop: each op starts when the previous one has
returned.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half traced and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import speed  # noqa: E402  (standard library only)

#: ops run before timing starts, so lazy set-up and first-message work are done
WARMUP = {"catalog-steady": 5, "vocab-churn": 20, "rest-loopback": 80, "three-party": 1}
#: ops per window: one conversation (vocab-churn), one GET/POST cycle of all
#: peers (rest-loopback), about 0.3-0.5 s elsewhere
WINDOW = {"catalog-steady": 12, "vocab-churn": 20, "rest-loopback": 80, "three-party": 1}
SETUP_SAMPLES = 5          # probes before and again after the timed ops
TAIL_SAMPLES = 10           # a percentile is reported only with this many beyond it


def percentile(samples, q: float):
    """Nearest-rank q-quantile, or None unless TAIL_SAMPLES lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


class Phase:
    """Op times at reference speed, bytes and failures of one phase."""

    def __init__(self):
        self.latencies = []
        self.factor = 1.0           # speed.factor() of the current window
        self.wire = self.plain = 0
        self.failures = {}

    def windows(self, size: int) -> tuple:
        """(median op time, ops per second of op time) per full window."""
        chunks = (self.latencies[lo:lo + size]
                  for lo in range(0, len(self.latencies) - size + 1, size))
        return tuple((statistics.median(c), size / sum(c)) for c in chunks)

    def quiet(self, size: int) -> tuple:
        """(latency, rate) of the run's quieter windows: the lower quartile
        of window median op times and the upper quartile of window rates.

        Rescaling (see ``speed``) removes most but not all of the host's
        speed changes.  The quartiles stay in the common, faster state as
        long as it holds for a quarter of the windows or more.
        """
        windows = self.windows(size)
        if len(windows) < 2:
            raise RuntimeError(f"{len(self.latencies)} ops make fewer than two windows")
        latency = statistics.quantiles([w[0] for w in windows], n=4, method="inclusive")[0]
        rate = statistics.quantiles([w[1] for w in windows], n=4, method="inclusive")[2]
        return latency, rate


def run_op(workload, phase, tracer=None):
    """Run, time and check one op; any exception is a failed op, never retried."""
    if tracer is not None:
        tracer.op = len(phase.latencies)
    start, cpu = time.perf_counter(), time.process_time()
    try:
        record = workload.op()
    except Exception as exc:  # every failure is counted, whatever its type
        record = None
        name = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if tracer is not None:
        tracer.op = None
    if record is None:
        phase.failures[name] = phase.failures.get(name, 0) + 1
        phase.latencies.append(math.inf)
    else:
        phase.latencies.append(speed.rescale(wall, cpu, phase.factor))
        if not isinstance(record.wire, int):
            record.wire = len(record.wire.serialize())
        phase.wire += record.wire
        phase.plain += record.plain
    return record


def measure(workload, seconds: float, window: int, tracer=None, on_record=None) -> Phase:
    """Closed loop for ``seconds``; the reference loop runs before each window."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(phase.latencies) % window == 0:
            phase.factor = speed.factor()
        record = run_op(workload, phase, tracer)
        if on_record is not None and record is not None:
            on_record(record)
    return phase


def setup_samples(workload: str, seed: int) -> list:
    """Set-up times of SETUP_SAMPLES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(phase: Phase, window: int, setups: list) -> dict:
    """The user-visible metrics.  Set-up is the lower quartile of the probes
    taken before and after the timed ops, for the reason given in
    ``Phase.quiet``; the two groups are the run's length apart."""
    latency, rate = phase.quiet(window)
    setup_s = statistics.quantiles(setups, n=4, method="inclusive")[0]
    return {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (latency * 1e3, "ms"),
        "wire_ratio": (phase.wire / phase.plain, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WARMUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import restcipher
    except ImportError as exc:
        print(f"error: restcipher is not importable from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(restcipher.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: restcipher imported from {restcipher.__file__}, not src/",
              file=sys.stderr)
        return 2
    from perfbench import gen, trace, vectors, workloads

    bad = vectors.mismatches()
    if bad:
        print(f"error: paper vectors changed: {', '.join(bad)}", file=sys.stderr)
        return 1

    inputs = gen.inputs(args.workload, args.seed)
    setups = setup_samples(args.workload, args.seed) if not args.trace else None
    workload = workloads.WORKLOADS[args.workload](inputs)
    workload.setup()
    try:
        warm = Phase()
        for _ in range(WARMUP[args.workload]):
            run_op(workload, warm)
        if args.trace:
            window = WINDOW[args.workload]
            plain = measure(workload, args.seconds / 2, window)
            tracer = trace.Tracer()
            counts = workloads.Counts(workload)
            with trace.patched(tracer):
                traced = measure(workload, args.seconds / 2, window, tracer, counts)
            phases = [warm, plain, traced]
        else:
            timed = measure(workload, args.seconds, WINDOW[args.workload])
            phases = [warm, timed]
    finally:
        workload.close()

    attempted = sum(len(p.latencies) for p in phases)
    failures = {}
    for p in phases:
        for name, n in p.failures.items():
            failures[name] = failures.get(name, 0) + n
    failed = sum(failures.values())
    if args.trace:
        metrics = {name: (value, "ms" if name.endswith(".ms") else "count")
                   for name, value in trace.layer_metrics(tracer.spans,
                                                          len(traced.latencies)).items()}
        metrics.update(counts.metrics())
        overhead = traced.quiet(window)[0] / plain.quiet(window)[0]
        metrics["trace.overhead_pct"] = ((overhead - 1) * 100, "%")
        samples = traced.latencies
    else:
        setups += setup_samples(args.workload, args.seed)
        metrics = end_to_end(timed, WINDOW[args.workload], setups)
        samples = timed.latencies

    p90 = percentile(samples, 0.9)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(samples)} timed ops, "
          f"Python {platform.python_version()}, nproc {os.cpu_count()}, loopback only")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    print("# latency_p90_ms " + (f"{p90 * 1e3:.6g} ms" if p90 is not None else
                                 f"absent: {len(samples)} ops, fewer than "
                                 f"{TAIL_SAMPLES} beyond the 90th percentile"))
    for name, n in failures.items():
        print(f"# failed x{n}: {name}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
