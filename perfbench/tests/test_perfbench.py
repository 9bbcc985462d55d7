"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import restcipher  # noqa: E402
from perfbench import gen, run, trace, vectors, workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def test_paper_vectors_reproduce():
    assert vectors.mismatches() == []


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic_per_seed(name):
    assert gen.inputs(name, 7) == gen.inputs(name, 7)
    assert gen.inputs(name, 7) != gen.inputs(name, 8)


def test_steady_vocabulary_is_64_words():
    words = set()
    for text in gen.steady_messages(gen.rng_for("t", 1), 2):
        for token in restcipher.parse_xml(text):
            if not isinstance(token, (restcipher.Variable, restcipher.Close)):
                words.add(getattr(token, "name", None) or token.text)
    assert len(words) == 64


@pytest.mark.parametrize("n", [0, 1, 50, 99, 100, 101, 109, 110, 1000])
def test_percentile_needs_ten_samples_beyond_it(n):
    samples = list(range(n))
    p90 = run.percentile(samples, 0.9)
    if n < 100:
        assert p90 is None
    else:
        assert sum(s > p90 for s in samples) >= run.TAIL_SAMPLES


def _bindings():
    """Every name bound in a restcipher namespace or a traced class."""
    out = {}
    for module in trace._namespaces():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    for owner, attr in trace.FUNCTIONS.values():
        if isinstance(owner, type):
            out[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return out


def test_patcher_wraps_every_namespace_and_restores_it():
    before = _bindings()
    with pytest.raises(KeyError):
        with trace.patched(trace.Tracer()):
            from restcipher import codec, composition, restkit
            assert codec.tat_upsert is not before[("restcipher.tables", "tat_upsert")]
            assert composition.tat_upsert is not before[("restcipher.tables", "tat_upsert")]
            assert restkit.http_post is not before[("restcipher.keyxchg", "http_post")]
            assert restkit.compose_encrypt is not before[
                ("restcipher.composition", "compose_encrypt")]
            raise KeyError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_and_transport():
    # a client wait of 10 ms holding a 4 ms server span with a 1 ms child
    spans = [
        ["keyxchg.http_post", 0.000, 0.010, None, 0, True, False],
        ["restkit.server.decrypt", 0.002, 0.006, None, 0, False, False],
        ["tables.tat_upsert", 0.003, 0.004, 1, 0, False, True],
        ["tables.tat_upsert", 0.020, 0.030, None, None, True, False],  # outside any op
    ]
    m = trace.layer_metrics(spans, ops=1)
    assert m["keyxchg.http_post.ms"] == pytest.approx(10)
    assert m["restkit.server.decrypt.ms"] == pytest.approx(3)
    assert m["tables.tat_upsert.ms"] == pytest.approx(1)
    assert m["tables.tat_upsert.calls"] == 1
    assert m["tables.tat_upsert.errors"] == 1
    assert m["restkit.transport.ms"] == pytest.approx(6)


TINY = {
    "catalog-steady": ({"messages": gen.steady_messages(gen.rng_for("t", 1), 3, items=20)}, 4),
    "vocab-churn": ({"messages": gen.churn_conversations(gen.rng_for("t", 1), 1, items=5)}, 22),
    "rest-loopback": (None, 2 * workloads.REST_PEERS * len(workloads.REST_PATTERN)),
    # the workload's own 100 items: see the xfail test below for smaller ones
    "three-party": ({"cases": gen.scenario_cases(gen.rng_for("t", 1), 1)}, 1),
}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_smoke_run_has_no_failures(name):
    inputs, ops = TINY[name]
    if inputs is None:
        served, posts = gen.rest_documents(gen.rng_for("t", 1), 2, items=3)
        inputs = {"served": served, "posts": posts, "key_seed": 1}
    workload = workloads.WORKLOADS[name](inputs)
    workload.setup()
    tracer = trace.Tracer()
    counts = workloads.Counts(workload)
    try:
        with trace.patched(tracer):
            phase = run.Phase()
            for _ in range(ops):
                counts(run.run_op(workload, phase, tracer))
    finally:
        workload.close()
    assert phase.failures == {}
    assert len(phase.latencies) == ops
    assert phase.wire > 0 and phase.plain > 0
    layers = trace.layer_metrics(tracer.spans, ops)
    composed = sum(v for k, v in layers.items() if k.startswith("composition."))
    assert (composed > 0) == (name == "three-party")
    if name == "rest-loopback":
        assert layers["restkit.server.encrypt.calls"] == 1
    assert counts.metrics()["codec.words"][0] > 0


@pytest.mark.xfail(strict=True, raises=restcipher.errors.UnknownTatCode, reason=(
    "providers hold only the root under the group key, so their group tag table "
    "differs from S's; S cannot read a provider's TAT code for the root. At 100 "
    "items S's table happens to hold that code for another word, so S misreads "
    "the root and the assembly discards it."))
def test_three_party_on_a_small_catalog():
    workload = workloads.ThreeParty({"cases": gen.scenario_cases(gen.rng_for("t", 1), 1, items=9)})
    workload.setup()
    workload.op()


def _last_json(*args):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_output_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    common = ["--workload", "catalog-steady", "--seed", "1", "--seconds", "3"]
    for flag, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = _last_json(*common, "--trace", flag)
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
