"""One operation per workload, and the independent check of its result.

`parse(workload, doc)` turns an operation document into the arguments of
the operation (this is the parsing that `setup_s` times). `run(workload,
args)` performs the operation and returns an `Outcome`. The check is part
of the operation; its own time is reported separately as `verify_s`.

Every name from epkit is looked up through its module at call time, so
the tracer's rebinding of module attributes reaches these calls too.
"""

import json
import time
from dataclasses import dataclass
from typing import Optional

from epkit import certificates, graph, labeling, oracle, packing, solver, treedec, verify


@dataclass
class Outcome:
    ok: bool
    why: str
    doc: dict
    cover_size: Optional[int]
    verify_s: float


def parse(workload, doc):
    g = graph.graph_from_json_dict(doc["graph"])
    if workload == "corpus":
        cfg = solver.DriverConfig(
            tw_threshold=doc.get("tw_threshold", 4), oracle_fallback=True
        )
        eta = doc.get("expansion")
        if eta is not None:
            eta = packing.expansion_from_json_dict(eta)
        return (g, doc["k"], cfg, eta)
    if workload == "wide":
        return (g, doc["k"], doc.get("expect_packing"))
    return (g,)


def dump(doc):
    """The bytes `epkit` writes for a document (`graph.dump_json`), computed
    here so that the digest is no part of an operation or its spans."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _solve_op(g, k, cfg, eta):
    cert = solver.solve(g, k, cfg, expansion=eta)
    doc = certificates.certificate_to_json_dict(cert)
    t = time.perf_counter()
    ok, why = verify.verify_certificate(g, cert)
    verify_s = time.perf_counter() - t
    if ok and cert.k != k:
        ok, why = False, f"certificate for k={cert.k}, asked {k}"
    return Outcome(ok, why, doc, _cover_size(cert), verify_s)


def _cover_size(cert):
    if isinstance(cert.outcome, labeling.GfvsCertificate):
        return len(cert.outcome.vertices)
    return None


def _wide_op(g, k, expect_packing):
    td = treedec.tree_decomposition(g, "heuristic")
    outcome = treedec.packing_or_cover_bounded_tw(g, k, td)
    cert = certificates.Certificate(k=k, outcome=outcome, trail=())
    doc = certificates.certificate_to_json_dict(cert)
    t = time.perf_counter()
    ok, why = verify.verify_certificate(g, cert)
    verify_s = time.perf_counter() - t
    got_packing = isinstance(outcome, treedec.PackingCertificate)
    if ok and expect_packing is not None and got_packing != expect_packing:
        ok, why = False, f"expected packing={expect_packing}, got {cert.kind}"
    return Outcome(ok, why, doc, _cover_size(cert), verify_s)


def _oracle_op(g):
    cycles = oracle.enumerate_non_null_cycles(g)
    cover = oracle.min_gfvs(g)
    integral = oracle.max_packing(g, 1)
    half = oracle.max_packing(g, 2)
    report = {
        "non_null_cycles": len(cycles),
        "min_gfvs": cover,
        "packing_integral": len(integral),
        "packing_half_integral": len(half),
    }
    t = time.perf_counter()
    checks = (
        ("cover", labeling.verify_gfvs(g, cover).verified),
        ("integral packing", treedec.verify_packing(
            g, treedec.PackingCertificate(tuple(integral), "integral"))),
        ("half-integral packing", treedec.verify_packing(
            g, treedec.PackingCertificate(tuple(half), "half-integral"))),
        ("integral <= half-integral", len(integral) <= len(half)),
        ("integral <= min_gfvs", len(integral) <= len(cover)),
    )
    verify_s = time.perf_counter() - t
    failed = [name for name, good in checks if not good]
    why = "failed: " + ", ".join(failed) if failed else ""
    return Outcome(not failed, why, report, len(cover), verify_s)


RUN = {"corpus": _solve_op, "wide": _wide_op, "oracle": _oracle_op}


def run(workload, args):
    return RUN[workload](*args)
