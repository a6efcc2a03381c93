"""Certificate JSON round trips and input validation."""

import pytest

from epkit.certificates import (
    Certificate,
    certificate_from_json_dict,
    certificate_to_json_dict,
    outcome_from_json_dict,
    outcome_to_json_dict,
    walk_from_json_dict,
    walk_to_json_dict,
)
from epkit.errors import InputError
from epkit.graph import Walk
from epkit.labeling import GfvsCertificate
from epkit.treedec import PackingCertificate


def sample_walk():
    return Walk(((0, 1), (1, 1), (2, -1)))


def sample_packing():
    return PackingCertificate((sample_walk(), Walk(((3, 1), (4, -1)))), "integral")


class TestWalkJson:
    def test_roundtrip(self):
        w = sample_walk()
        assert walk_from_json_dict(walk_to_json_dict(w)) == w

    def test_shape(self):
        assert walk_to_json_dict(sample_walk()) == {
            "steps": [[0, 1], [1, 1], [2, -1]]
        }

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"steps": 3},
            {"steps": [[0]]},
            {"steps": [[0, 2]]},
            {"steps": [["a", 1]]},
            {"steps": [[True, 1]]},
            {"steps": [[0, True]]},
            {"steps": [[0, 1.0]]},
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(InputError):
            walk_from_json_dict(doc)


class TestOutcomeJson:
    def test_packing_roundtrip(self):
        out = sample_packing()
        back = outcome_from_json_dict(outcome_to_json_dict(out))
        assert isinstance(back, PackingCertificate)
        assert back.cycles == out.cycles
        assert back.integrality == "integral"

    def test_gfvs_roundtrip(self):
        out = GfvsCertificate((2, 5), True)
        back = outcome_from_json_dict(outcome_to_json_dict(out))
        assert isinstance(back, GfvsCertificate)
        assert back.vertices == (2, 5)
        # deserialized covers are unverified until checked against a graph
        assert back.verified is False

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"kind": "mystery"},
            {"kind": "packing", "cycles": []},
            {"kind": "packing", "integrality": "integral", "cycles": 7},
            {"kind": "gfvs"},
            {"kind": "gfvs", "vertices": ["x"]},
            {"kind": "gfvs", "vertices": [True]},
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(InputError):
            outcome_from_json_dict(doc)


class TestCertificate:
    def test_kind(self):
        cert = Certificate(2, sample_packing(), ())
        assert cert.kind == "packing"
        cover = Certificate(1, GfvsCertificate((0,), True), ())
        assert cover.kind == "gfvs"

    def test_k_positive(self):
        with pytest.raises(InputError):
            Certificate(0, sample_packing(), ())

    def test_outcome_type_checked(self):
        with pytest.raises(InputError):
            Certificate(1, "not an outcome", ())

    def test_roundtrip(self):
        cert = Certificate(
            2,
            sample_packing(),
            ({"step": "strip", "removed": []}, {"step": "clean", "cover": []}),
        )
        back = certificate_from_json_dict(certificate_to_json_dict(cert))
        assert back.k == 2
        assert back.kind == "packing"
        assert back.outcome.cycles == cert.outcome.cycles
        assert back.trail == cert.trail

    def test_gfvs_roundtrip(self):
        cert = Certificate(3, GfvsCertificate((1, 4, 6), True), ({"step": "s"},))
        back = certificate_from_json_dict(certificate_to_json_dict(cert))
        assert back.outcome.vertices == (1, 4, 6)

    @pytest.mark.parametrize(
        "doc",
        [
            17,
            {"k": 1, "outcome": {"kind": "gfvs", "vertices": []}},
            {"k": "1", "outcome": {"kind": "gfvs", "vertices": []}, "trail": []},
            {"k": 1, "outcome": {"kind": "gfvs", "vertices": []}, "trail": [3]},
            {
                "k": 1,
                "outcome": {"kind": "gfvs", "vertices": []},
                "trail": [{"no_step": True}],
            },
            {"k": True, "outcome": {"kind": "gfvs", "vertices": []}, "trail": []},
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(InputError):
            certificate_from_json_dict(doc)
