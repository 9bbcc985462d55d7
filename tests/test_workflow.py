"""The CI workflow file: no mapping holds a key twice, each step does one
thing, the benchmark's own tests still run, and tier-1 also runs with
unclosed resources as errors."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


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
