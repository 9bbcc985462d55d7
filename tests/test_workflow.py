"""The CI workflow file: no mapping holds a key twice, each step does one
thing, the benchmark's own tests still run, tier-1 also runs with unclosed
resources as errors, and every benchmark run fails its step when an op
fails."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

GITHUB = Path(__file__).resolve().parent.parent / ".github"
WORKFLOW = GITHUB / "workflows" / "tests.yml"
CHECKER = "python .github/check_run.py"


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a mapping holding one key twice, where the
    stock loader keeps the last value and drops the rest unseen."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def _steps() -> list:
    workflow = yaml.load(WORKFLOW.read_text(encoding="utf-8"), Loader=_UniqueKeyLoader)
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def test_the_loader_refuses_a_duplicate_key():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'run'"):
        yaml.load("steps:\n  - run: a\n    run: b\n", Loader=_UniqueKeyLoader)


def test_every_step_has_exactly_one_of_run_or_uses():
    steps = _steps()
    assert steps
    for step in steps:
        assert ("run" in step) != ("uses" in step), step


def test_the_benchmark_tests_step_runs_the_benchmark_tests():
    step, = (s for s in _steps() if s.get("name") == "Benchmark tests")
    assert step["run"].strip() == "python -m pytest -q perfbench/tests"


def test_tier_one_also_runs_with_unclosed_resources_as_errors():
    # a kept-alive socket that a client or a service leaks shows only here;
    # pytest reports a ResourceWarning raised in __del__, or an exception
    # raised in a thread, as a warning of its own, so those are errors too
    runs = [s["run"].strip() for s in _steps() if "run" in s]
    assert ("PYTHONPATH=src python -X dev -W error::ResourceWarning -m pytest -q"
            " -W error::pytest.PytestUnraisableExceptionWarning"
            " -W error::pytest.PytestUnhandledThreadExceptionWarning") in runs


def test_every_benchmark_run_goes_through_the_checker():
    steps = [s for s in _steps() if "perfbench/run.py" in s.get("run", "")]
    assert len(steps) == 7
    for step in steps:
        # GitHub runs a bash step with -eo pipefail, so a failed run.py fails it
        assert step.get("shell") == "bash", step["name"]
        run, check = (" ".join(part.split()) for part in step["run"].split("|"))
        assert run.startswith("python perfbench/run.py "), step["name"]
        assert check == CHECKER or check.startswith(CHECKER + " "), step["name"]


def _check(summary: dict, *counters) -> int:
    output = "# a comment line\n" + json.dumps(summary) + "\n"
    return subprocess.run([sys.executable, str(GITHUB / "check_run.py"), *counters],
                          input=output, capture_output=True, text=True, timeout=60).returncode


@pytest.mark.parametrize("summary,counters,code", [
    ({"correct": True, "metrics": {"a.calls": {"value": 2.0}}}, ["a.calls"], 0),
    ({"correct": False, "attempted": 3, "failed": 1, "metrics": {}}, [], 1),
    ({"correct": True, "metrics": {"a.calls": {"value": 0.0}}}, ["a.calls"], 1),
    ({"correct": True, "metrics": {}}, ["a.calls"], 1),     # a counter the run lacks
])
def test_the_checker_fails_a_run_with_a_failed_op_or_an_idle_counter(summary, counters, code):
    assert _check(summary, *counters) == code
