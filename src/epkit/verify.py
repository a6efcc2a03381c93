"""Re-verification of solver certificates against the input graph."""

from .certificates import Certificate
from .errors import InputError
from .labeling import verify_gfvs
from .treedec import PackingCertificate, verify_packing


def verify_certificate(g, cert: Certificate) -> tuple[bool, str]:
    """Check the certificate's outcome from first principles.

    Packing: exactly k distinct non-null cycles of g within the claimed
    multiplicity. Cover: deleting the vertices leaves no non-null cycle.
    The trail is audited for shape only; the outcome check does not trust
    it.
    """
    for i, entry in enumerate(cert.trail):
        if not isinstance(entry, dict) or not isinstance(entry.get("step"), str):
            return False, f"trail entry {i} does not name a step"
        if entry["step"] == "bounded-treewidth" and entry.get("result") == "cover":
            size, bound = entry.get("cover_size"), entry.get("bound")
            if type(size) is not int or type(bound) is not int:
                return False, f"trail entry {i} needs integer cover_size and bound"
            if size > bound:
                return False, f"trail entry {i} reports a cover above its own bound"
    # a certificate naming arcs or vertices the graph lacks is merely
    # invalid for this graph, not a malformed request
    try:
        if isinstance(cert.outcome, PackingCertificate):
            if cert.outcome.k != cert.k:
                return (
                    False,
                    f"packing has {cert.outcome.k} cycles, certificate claims {cert.k}",
                )
            if not verify_packing(g, cert.outcome):
                return False, "packing fails verification against the graph"
            return True, ""
        report = verify_gfvs(g, cert.outcome.vertices)
    except InputError as exc:
        return False, f"certificate does not fit the graph: {exc}"
    if not report.verified:
        return False, "cover leaves a non-null cycle"
    return True, ""
