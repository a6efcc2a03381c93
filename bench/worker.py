"""The measured process: reads the workload's documents on stdin, parses
them, runs the operations in a closed loop, and writes one JSON result
on stdout.

    python3 bench/worker.py setup  <workload>                  < docs.json
    python3 bench/worker.py run    <workload> <seconds> <trace> [spans]

`setup` parses and prints `ready`; the parent times it from process start
(`setup_s`). `run` prints `ready` after parsing too, then runs one client
in a closed loop: each operation starts when the previous one has ended.
It makes full passes over the documents until `seconds` have passed
(always at least one full pass; the last pass may be cut short).

With trace = 1 the passes alternate untraced and traced, so the tracing
overhead is measured on the same operations, and the spans of the traced
passes are written to `spans` when that path is given.
"""

import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import ops  # noqa: E402  (imports epkit from the checkout's src/)
from tracer import ROOT_OP, ROOT_SETUP, Tracer  # noqa: E402


def _parse_all(workload, docs):
    return [ops.parse(workload, doc) for doc in docs]


def _one_pass(workload, parsed, pass_no, records, deadline, tracer=None):
    """Run the operations in order; stop early only past `deadline`.
    Returns (pass wall time, certificate digest) for a full pass, or None
    for a cut one."""
    digest = hashlib.sha256()
    start = time.perf_counter()
    for i, args in enumerate(parsed):
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = ops.run(workload, args)
            else:
                tracer.op = i
                out = tracer.span(ROOT_OP, ops.run, workload, args)
            t1 = time.perf_counter()
            ok, why = out.ok, out.why
            digest.update(ops.dump(out.doc))
        except Exception as exc:  # an escaping error is a failed operation
            t1 = time.perf_counter()
            out = None
            ok, why = False, f"{type(exc).__name__}: {exc}"
            digest.update(b"error\n")
        records.append({
            "pass": pass_no,
            "i": i,
            "s": t1 - t0,
            "verify_s": out.verify_s if out else None,
            "ok": ok,
            "why": why,
            "cover": out.cover_size if out else None,
        })
    return time.perf_counter() - start, digest.hexdigest()


def run(workload, docs, seconds, trace, spans_path):
    tracer = Tracer().install() if trace else None
    if tracer is not None:
        parsed = tracer.span(ROOT_SETUP, _parse_all, workload, docs)
        setup_totals = {"totals": tracer.totals(), "counters": tracer.all_counters()}
    else:
        parsed = _parse_all(workload, docs)
    _ready()
    deadline = time.perf_counter() + seconds
    result = {"workload": workload, "ops": len(parsed), "passes": []}
    records = []
    passes = result["passes"]
    while True:
        traced = trace and len(passes) % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        # The first pass always completes. A traced run never cuts a pass
        # and ends only after a traced one, so its totals cover whole passes.
        cut = deadline if passes and not trace else None
        done = _one_pass(workload, parsed, len(passes), records, cut,
                         tracer if traced else None)
        if done is None:
            break
        wall, digest = done
        passes.append({"wall_s": wall, "digest": digest, "traced": traced})
        if time.perf_counter() >= deadline and not (trace and not traced):
            break
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            "setup": setup_totals,
            "totals": tracer.totals(),
            "counters": tracer.all_counters(),
            "spans": len(tracer.span_name),
        }
        if spans_path:
            tracer.dump(spans_path, {"workload": workload})
    result["records"] = records
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _ready():
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def main(argv):
    mode, workload = argv[0], argv[1]
    docs = json.loads(sys.stdin.buffer.read())
    if mode == "setup":
        _parse_all(workload, docs)
        _ready()
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"
    spans_path = argv[4] if len(argv) > 4 else None
    result = run(workload, docs, seconds, trace, spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
