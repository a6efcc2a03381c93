"""The benchmark's own tests: `python3 -m pytest bench/tests`.

Each test runs a workload on a few of its documents, so a run takes
seconds instead of a full pass.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus", "wide", "oracle")
SEED = 3


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def few_docs(workload, count=4):
    """The `count` smallest documents of the workload, in their order."""
    docs = workloads.INPUTS[workload](SEED)
    keep = sorted(range(len(docs)), key=lambda i: len(docs[i]["graph"]["arcs"]))[:count]
    return [docs[i] for i in sorted(keep)]


def plain_digest(workload, docs):
    """The digest of one pass with no tracer ever installed."""
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(ops.dump(ops.run(workload, ops.parse(workload, doc)).doc))
    return digest.hexdigest()


def _digest(lines):
    return next(line for line in lines if line.startswith("certificate digest:"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    lines, result = run.bench(workload, SEED, 0.2, 0, docs=few_docs(workload))
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["metrics"]["verified_share"]["value"] == 1.0
    assert any(line.startswith("op_tail_ms is p") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_keeps_the_digest(workload):
    docs = few_docs(workload)
    lines, result = run.bench(workload, SEED, 0.2, 1, docs=docs)
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"]
    # one digest over the untraced and traced passes, equal to a pass run
    # without any wrapper installed
    assert _digest(lines) == f"certificate digest: sha256:{plain_digest(workload, docs)}"


@pytest.mark.parametrize("workload", ("corpus", "wide"))
def test_span_self_times_sum_to_each_operation(workload):
    """Recomputed from the written spans, the self times of an operation's
    spans add up to its duration within 1 us + 0.1% (times are stored in
    whole nanoseconds), and the layers cover at least 95% of it."""
    run.bench(workload, SEED, 0.2, 1, docs=few_docs(workload))
    path = os.path.join(run.OUT, f"spans-{workload}-seed{SEED}.json")
    with open(path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    by_op = tracer.self_times_by_op(dumped["spans"])
    assert len(by_op) == 5  # four operations and the set-up
    for op, (self_total, root) in by_op.items():
        assert abs(self_total - root) <= 1000 + root / 1000, op
    op_root = dumped["totals"]["bench.op"]
    assert 1 - op_root["self_s"] / op_root["incl_s"] >= 0.95


def test_wrappers_rebind_every_copy_and_uninstall_restores_them():
    from epkit import labeling, solver, treedec

    original = labeling.is_clean
    t = tracer.Tracer().install()
    try:
        # the module attribute and the `from .labeling import is_clean`
        # copies in the solver and the decomposition layer
        assert labeling.is_clean is not original
        assert solver.is_clean is labeling.is_clean
        assert treedec.is_clean is labeling.is_clean
    finally:
        t.uninstall()
    assert labeling.is_clean is original
    assert solver.is_clean is original and treedec.is_clean is original


def test_same_seed_same_documents_other_seed_other_documents():
    for workload in WORKLOADS:
        first = json.dumps(workloads.INPUTS[workload](SEED))
        assert first == json.dumps(workloads.INPUTS[workload](SEED))
        assert first != json.dumps(workloads.INPUTS[workload](SEED + 1))


def test_tail_percentile_keeps_ten_samples_above_it():
    assert run.tail(list(range(1012))) == (99.0, 1001, 11)
    assert run.tail(list(range(300)))[0] == 95.0
    assert run.tail(list(range(40)))[0] == 75.0


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
