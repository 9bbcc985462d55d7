"""Check a ``perfbench/run.py`` run whose output is piped in: exit 1 unless
its last line, the JSON summary, says every op succeeded (``"correct":
true``) and each traced counter named as an argument reads above 0 per op.
The run's output is passed through to standard output.

    python perfbench/run.py --workload three-party --seconds 2 --trace 1 \\
        | python .github/check_run.py composition.verify_digests.calls
"""

import json
import sys


def main(counters) -> int:
    text = sys.stdin.read()
    sys.stdout.write(text)
    try:
        summary = json.loads(text.splitlines()[-1])
    except (IndexError, ValueError):
        print("check_run: the run printed no JSON summary last", file=sys.stderr)
        return 1
    if summary.get("correct") is not True:
        print(f"check_run: {summary.get('failed')} of {summary.get('attempted')} ops failed",
              file=sys.stderr)
        return 1
    metrics = summary.get("metrics", {})
    idle = [name for name in counters if metrics.get(name, {}).get("value", 0) <= 0]
    if idle:
        print(f"check_run: no calls per op: {idle}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
