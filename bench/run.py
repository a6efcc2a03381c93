"""The epkit benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
the seed, handed to a fresh worker process as JSON documents, and the
worker runs them in a closed loop for `--seconds` seconds, checking every
result. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1`
they are its per-layer metrics, and the spans are written to
`.bench_out/`. See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 5
# A run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )


def _until_ready(proc, payload):
    """Feed the documents and wait for the worker to finish parsing."""
    proc.stdin.write(payload)
    proc.stdin.close()
    proc.stdin = None
    if proc.stdout.readline() != b"ready\n":
        raise RuntimeError(f"worker did not become ready (exit {proc.wait()})")


def _finish(proc, timeout):
    """The worker's remaining output once it has exited with 0."""
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def _reap(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure_setup(workload, payload):
    """Fresh interpreter + `import epkit` + parsing every document, timed
    from process start to `ready`; the median of several."""
    samples = []
    for n in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = _spawn(["setup", workload])
        try:
            _until_ready(proc, payload)
            t1 = time.perf_counter()
            _finish(proc, 30.0)
        finally:
            _reap(proc)
        if n:  # the first start also writes the bytecode caches
            samples.append(t1 - t0)
    return statistics.median(samples)


def run_worker(workload, payload, seconds, trace, spans_path, budget):
    args = ["run", workload, str(seconds), "1" if trace else "0"]
    if spans_path:
        args.append(spans_path)
    proc = _spawn(args)
    try:
        _until_ready(proc, payload)
        return json.loads(_finish(proc, budget))
    finally:
        _reap(proc)


# Metrics ----------------------------------------------------------------------

def tail(samples):
    """(percentile, value, samples above it) for the highest percentile of
    TAIL_LADDER with at least 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = int(n * pct / 100.0)
        if n - rank >= 10:
            break
    return pct, ordered[min(rank, n - 1)], n - rank


def per_op_medians(records, key):
    by_op = {}
    for r in records:
        if r[key] is not None:
            by_op.setdefault(r["i"], []).append(r[key])
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(result, setup_s):
    records = result["records"]
    rates = []
    for p, info in enumerate(result["passes"]):
        verified = sum(1 for r in records if r["pass"] == p and r["ok"])
        rates.append(verified / info["wall_s"])
    latencies = per_op_medians(records, "s")
    pct, tail_s, above = tail(latencies)
    covers = [r["cover"] for r in records if r["pass"] == 0 and r["cover"] is not None]
    failed = sum(1 for r in records if not r["ok"])
    values = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "verify_p50_ms": 1e3 * statistics.median(per_op_medians(records, "verify_s")),
        "verified_share": 1.0 - failed / len(records),
        "cover_size_mean": statistics.fmean(covers) if covers else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = [
        f"op_tail_ms is p{pct:g} of {len(latencies)} per-operation median latencies"
        f" ({above} above it)",
        f"ops_per_s is the median of {len(rates)} full-pass rates",
        f"cover_size_mean over {len(covers)} covers of the first pass",
    ]
    return values, notes


def per_layer(result):
    """Flat {metric: value} for one traced pass (setup counted once)."""
    trace = result["trace"]
    passes = result["passes"]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    n = len(traced)
    values = {}
    setup = trace["setup"]
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "raised": 0}
    for name, t in trace["totals"].items():
        s = setup["totals"].get(name, zero)
        for field in zero:
            values[f"{name}.{field}"] = s[field] + (t[field] - s[field]) / n
    for key, value in trace["counters"].items():
        if key.endswith("_max"):
            values[key] = value
        else:
            s = setup["counters"].get(key, 0)
            values[key] = s + (value - s) / n
    layers = {}
    for name, t in trace["totals"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + values[f"{name}.self_s"]
    for layer, self_s in layers.items():
        values[f"{layer}.self_s"] = self_s
    calls = values.get("packing.find_clique_expansion.calls", 0)
    found = values.get("packing.find_clique_expansion.found", 0)
    values["packing.find_clique_expansion.found_ratio"] = found / calls if calls else 0.0
    op = trace["totals"]["bench.op"]
    values["trace.attributed_share"] = 1.0 - op["self_s"] / op["incl_s"]
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    values["trace.ops_per_s_traced"] = result["ops"] / statistics.median(traced)
    values["trace.ops_per_s_untraced"] = result["ops"] / statistics.median(untraced)
    values["trace.spans_per_pass"] = trace["spans"] / n
    values["trace.raised"] = sum(v for k, v in values.items() if k.endswith(".raised"))
    return values


def bench(workload, seed, seconds, trace, docs=None):
    """Run one workload. Returns (report lines, result object); `docs`
    replaces the generated documents (the benchmark's tests pass a few)."""
    started = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    import workloads
    from epkit import oracle, treedec

    if docs is None:
        docs = workloads.INPUTS[workload](seed)
    payload = json.dumps(docs).encode()
    spans_path = None
    if trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    else:
        setup_s = measure_setup(workload, payload)
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    result = run_worker(workload, payload, seconds, trace, spans_path, budget)

    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    digests = {p["digest"] for p in result["passes"]}
    lines = [
        f"workload {workload}, seed {seed}: {len(result['passes'])} full passes"
        f" of {result['ops']} operations, {len(records)} attempted, {len(failed)} failed",
        *(f"  failed: {docs[r['i']]['label']}: {r['why']}" for r in failed[:5]),
        "certificate digest: " + (" != ".join(sorted(digests)) if len(digests) > 1
                                  else f"sha256:{next(iter(digests))}"),
    ]
    if trace:
        values = per_layer(result)
        wanted = spec["per_layer"]
        guards = oracle.DEFAULT_GUARDS
        lines += [
            f"tracing overhead: {100 * values['trace.overhead_share']:.1f}% of pass time;"
            f" {100 * values['trace.attributed_share']:.2f}% of operation time in layer spans",
            "guards: strip n_max {:g} of {}, exact treewidth n_max {:g} of {},"
            " cycles_max {:g} of {}; the 200,000-state expansion budget is not"
            " visible from outside".format(
                values.get("solver.strip_null_arcs.n_max", 0), guards.max_vertices,
                values.get("treedec.tree_decomposition.exact_n_max", 0),
                treedec.EXACT_VERTEX_CAP,
                values.get("oracle.enumerate_cycles.cycles_max", 0), guards.max_cycles),
            f"spans written to {os.path.relpath(spans_path, ROOT)}",
        ]
    else:
        values, notes = end_to_end(result, setup_s)
        wanted = spec["end_to_end"]
        lines += notes
    unseen = [m["name"] for m in wanted if m["name"] not in values]
    if unseen:
        lines.append("not observed (reported as 0): " + ", ".join(unseen))
    return lines, {
        "correct": not failed and len(digests) == 1,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "wide", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "epkit", "__init__.py")):
        print(f"error: no epkit sources under {SRC}", file=sys.stderr)
        return 2
    lines, result = bench(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
