"""Solver certificates: the outcome plus the trail of steps that produced it.

The outcome is one of the two theorem sides. The trail is a list of JSON
objects recording which branch fired at each level, so a verifier can
re-check the outcome against the input graph and audit how it was reached.
"""

from dataclasses import dataclass
from typing import Union

from .errors import InputError
from .graph import Walk
from .labeling import GfvsCertificate
from .treedec import PackingCertificate

Outcome = Union[PackingCertificate, GfvsCertificate]


@dataclass(frozen=True)
class Certificate:
    k: int
    outcome: Outcome
    trail: tuple[dict, ...]

    def __post_init__(self):
        if self.k < 1:
            raise InputError("certificate k must be positive")
        if not isinstance(self.outcome, (PackingCertificate, GfvsCertificate)):
            raise InputError("outcome must be a packing or a gfvs certificate")

    @property
    def kind(self) -> str:
        if isinstance(self.outcome, PackingCertificate):
            return "packing"
        return "gfvs"


def walk_to_json_dict(walk: Walk) -> dict:
    return {"steps": [[arc_id, direction] for arc_id, direction in walk.steps]}


def walk_from_json_dict(doc: object) -> Walk:
    if not isinstance(doc, dict) or "steps" not in doc:
        raise InputError("walk JSON must be an object with a steps list")
    raw = doc["steps"]
    if not isinstance(raw, list):
        raise InputError("walk steps must be a list")
    steps = []
    for i, entry in enumerate(raw):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError(f"walk step {i} must be [arc_id, direction]")
        arc_id, direction = entry
        # a bool or a float compares equal to 1 but is no JSON integer
        if type(arc_id) is not int or type(direction) is not int or (
            direction not in (1, -1)
        ):
            raise InputError(f"walk step {i} must be [arc_id, 1 or -1]")
        steps.append((arc_id, direction))
    return Walk(tuple(steps))


def outcome_to_json_dict(outcome: Outcome) -> dict:
    if isinstance(outcome, PackingCertificate):
        return {
            "kind": "packing",
            "integrality": outcome.integrality,
            "cycles": [walk_to_json_dict(c) for c in outcome.cycles],
        }
    return {"kind": "gfvs", "vertices": list(outcome.vertices)}


def outcome_from_json_dict(doc: object) -> Outcome:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("outcome JSON must be an object with a kind")
    kind = doc["kind"]
    if kind == "packing":
        if "integrality" not in doc or "cycles" not in doc:
            raise InputError("packing outcome needs integrality and cycles")
        cycles = doc["cycles"]
        if not isinstance(cycles, list):
            raise InputError("packing cycles must be a list")
        return PackingCertificate(
            tuple(walk_from_json_dict(c) for c in cycles), doc["integrality"]
        )
    if kind == "gfvs":
        raw = doc.get("vertices")
        if not isinstance(raw, list) or not all(type(v) is int for v in raw):
            raise InputError("gfvs outcome needs an integer vertex list")
        return GfvsCertificate(tuple(raw), False)
    raise InputError(f"unknown outcome kind {kind!r}")


def certificate_to_json_dict(cert: Certificate) -> dict:
    return {
        "k": cert.k,
        "outcome": outcome_to_json_dict(cert.outcome),
        "trail": list(cert.trail),
    }


def certificate_from_json_dict(doc: object) -> Certificate:
    if not isinstance(doc, dict):
        raise InputError("certificate JSON must be an object")
    for key in ("k", "outcome", "trail"):
        if key not in doc:
            raise InputError(f"certificate JSON missing {key!r}")
    if type(doc["k"]) is not int:
        raise InputError("certificate k must be an integer")
    trail = doc["trail"]
    if not isinstance(trail, list) or not all(isinstance(e, dict) for e in trail):
        raise InputError("certificate trail must be a list of objects")
    for i, entry in enumerate(trail):
        if "step" not in entry or not isinstance(entry["step"], str):
            raise InputError(f"trail entry {i} must name its step")
    return Certificate(
        k=doc["k"],
        outcome=outcome_from_json_dict(doc["outcome"]),
        trail=tuple(trail),
    )
