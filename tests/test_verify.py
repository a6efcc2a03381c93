"""Certificate re-verification rejects every tampered outcome."""

import pytest

from epkit.certificates import (
    Certificate,
    certificate_from_json_dict,
    certificate_to_json_dict,
)
from epkit.generators import odd_cycles
from epkit.graph import Walk
from epkit.labeling import GfvsCertificate
from epkit.solver import solve
from epkit.treedec import PackingCertificate
from epkit.verify import verify_certificate


def solved(k=2):
    g = odd_cycles(2)
    return g, solve(g, k)


class TestAccept:
    def test_packing(self):
        g, cert = solved(2)
        assert verify_certificate(g, cert) == (True, "")

    def test_cover(self):
        g, cert = solved(3)
        assert verify_certificate(g, cert) == (True, "")


    def test_older_trail_with_skipped_width(self):
        # older versions skipped the width above 20 vertices and logged it
        g = odd_cycles(7)
        doc = certificate_to_json_dict(solve(g, 1))
        doc["trail"][1:2] = [
            {"step": "treewidth-skipped", "vertices": 21},
            {"step": "treewidth", "width": None, "threshold": 4},
        ]
        assert verify_certificate(g, certificate_from_json_dict(doc)) == (True, "")

    @pytest.mark.parametrize("source", ["search", "absent", "skipped"])
    def test_older_trail_with_expansion_search(self, source):
        # older versions searched for an expansion above the threshold, or
        # logged why they did not, before the branch that answered
        g = odd_cycles(7)
        doc = certificate_to_json_dict(solve(g, 1))
        doc["trail"][2:2] = [{"step": "expansion", "source": source, "order": 2}]
        assert verify_certificate(g, certificate_from_json_dict(doc)) == (True, "")

    def test_older_trail_from_paper_mode(self):
        # what `solve --thresholds paper` wrote for this graph before the
        # mode was removed: the width threshold by bit length, and a cover
        # checked against the recursion budget
        doc = {
            "k": 3,
            "outcome": {"kind": "gfvs", "vertices": [0, 1, 2, 3, 4, 5]},
            "trail": [
                {"step": "strip", "removed": []},
                {"step": "treewidth", "width": 2, "threshold": {"bits": 164127}},
                {"step": "bounded-treewidth", "result": "cover", "width": 2,
                 "cover_size": 6, "bound": 6},
                {"step": "cover-budget", "cover_size": 6, "budget": {"bits": 164128}},
            ],
        }
        g = odd_cycles(2)
        assert verify_certificate(g, certificate_from_json_dict(doc)) == (True, "")


class TestReject:
    def test_wrong_cycle_count(self):
        g, cert = solved(2)
        tampered = Certificate(
            2, PackingCertificate(cert.outcome.cycles[:1], "integral"), cert.trail
        )
        ok, reason = verify_certificate(g, tampered)
        assert not ok
        assert "1 cycles" in reason

    def test_null_cycle_rejected(self):
        g, cert = solved(2)
        # a back-and-forth walk over one arc is not a cycle of the graph
        fake = Walk(((0, 1), (0, -1)))
        tampered = Certificate(
            2,
            PackingCertificate((cert.outcome.cycles[0], fake), "integral"),
            cert.trail,
        )
        ok, reason = verify_certificate(g, tampered)
        assert not ok

    def test_insufficient_cover(self):
        g, _ = solved(2)
        bad = Certificate(3, GfvsCertificate((0,), False), ())
        ok, reason = verify_certificate(g, bad)
        assert not ok
        assert "cover" in reason

    def test_cover_for_wrong_graph(self):
        g, cert = solved(3)
        other = odd_cycles(3)
        ok, _ = verify_certificate(other, cert)
        assert not ok

    def test_trail_entry_must_name_step(self):
        g, cert = solved(2)
        tampered = Certificate(2, cert.outcome, cert.trail + ({"note": "x"},))
        ok, reason = verify_certificate(g, tampered)
        assert not ok
        assert "trail" in reason

    def test_trail_cover_bound_audited(self):
        g, cert = solved(3)
        lying = cert.trail + (
            {
                "step": "bounded-treewidth",
                "result": "cover",
                "cover_size": 9,
                "bound": 2,
            },
        )
        ok, reason = verify_certificate(g, Certificate(3, cert.outcome, lying))
        assert not ok
        assert "bound" in reason

    @pytest.mark.parametrize(
        "entry",
        [
            {"cover_size": "a", "bound": 2},
            {"cover_size": 1},
            {"bound": 2},
            {"cover_size": True, "bound": 2},
            {"cover_size": 1, "bound": [2]},
        ],
        ids=["size-string", "no-bound", "no-size", "size-bool", "bound-list"],
    )
    def test_malformed_cover_entry_is_invalid(self, entry):
        g, cert = solved(3)
        bad = {"step": "bounded-treewidth", "result": "cover", **entry}
        ok, reason = verify_certificate(g, Certificate(3, cert.outcome, cert.trail + (bad,)))
        assert not ok
        assert "integer cover_size and bound" in reason
