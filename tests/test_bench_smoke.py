"""The benchmark still runs against the library.

`bench/` reaches into epkit by module and function name: `ops` calls the
layers, and the tracer wraps every public function of each layer, counts
the helpers named in `COUNT_ONLY` with a fixed arity, and wraps the
`LabeledGraph` methods named in `GRAPH_METHODS`. A change to `src/` that
deletes or reshapes one of those names breaks the benchmark, not the
library, so this module runs the smallest document of each workload once
untraced and once traced. It loads the three benchmark files by path and
writes nothing under `bench/`.
"""

import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
WORKLOADS = ("corpus", "wide", "oracle")


def _files():
    return {
        os.path.join(root, name) for root, _, names in os.walk(BENCH) for name in names
    }


@pytest.fixture(scope="module")
def bench():
    """The modules `ops`, `workloads` and `tracer`, loaded from their files
    without writing bytecode next to them."""
    before = _files()
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        for name in ("ops", "workloads", "tracer"):
            spec = importlib.util.spec_from_file_location(
                f"_bench_{name}", os.path.join(BENCH, f"{name}.py")
            )
            module = importlib.util.module_from_spec(spec)
            # a dataclass looks its module up by name while it is built
            mp.setitem(sys.modules, spec.name, module)
            spec.loader.exec_module(module)
            modules[name] = module
    assert _files() == before
    return modules


def smallest_doc(workloads, workload):
    docs = workloads.INPUTS[workload](7)
    return min(docs, key=lambda doc: len(doc["graph"]["arcs"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_document_runs_untraced_and_traced(bench, workload):
    ops, tracer = bench["ops"], bench["tracer"]
    doc = smallest_doc(bench["workloads"], workload)
    plain = ops.run(workload, ops.parse(workload, doc))
    assert plain.ok, plain.why
    t = tracer.Tracer().install()
    try:
        traced = ops.run(workload, ops.parse(workload, doc))
    finally:
        t.uninstall()
    assert traced.ok, traced.why
    assert ops.dump(traced.doc) == ops.dump(plain.doc)
    assert t.totals()
    # every counted helper still exists under its name
    assert {f"{name}.calls" for name in tracer.COUNT_ONLY} <= set(t.all_counters())
