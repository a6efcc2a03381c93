"""Group arithmetic checked against independent definitions.

Permutation composition is re-derived here from function application so the
payload formula in the package is tested against the definition rather than
against itself.
"""

import itertools

import pytest

from epkit.errors import InputError
from epkit.groups import (
    Cyclic,
    Product,
    Symmetric,
    elements,
    format_element,
    identity,
    inverse,
    is_identity,
    make_element,
    multiply,
    parse_element,
    spec_from_json,
    spec_to_json,
    validate_spec,
)


def apply_perm(payload, point):
    """Independent definition: a permutation maps point i to payload[i-1]."""
    return payload[point - 1]


class TestCyclic:
    def test_canonicalizes_mod_n(self):
        z5 = Cyclic(5)
        assert make_element(z5, 7).payload == 2
        assert make_element(z5, -1).payload == 4

    def test_multiply_adds(self):
        z5 = Cyclic(5)
        a = make_element(z5, 3)
        b = make_element(z5, 4)
        assert multiply(a, b).payload == 2

    def test_inverse_negates(self):
        z5 = Cyclic(5)
        assert inverse(make_element(z5, 2)).payload == 3
        assert is_identity(multiply(make_element(z5, 2), inverse(make_element(z5, 2))))

    def test_trivial_group(self):
        z1 = Cyclic(1)
        assert len(list(elements(z1))) == 1
        assert is_identity(make_element(z1, 12345))


class TestSymmetric:
    def test_composition_matches_function_application(self):
        s4 = Symmetric(4)
        for pa, pb in itertools.product(itertools.permutations(range(1, 5)), repeat=2):
            a, b = make_element(s4, pa), make_element(s4, pb)
            prod = multiply(a, b)
            for point in range(1, 5):
                assert apply_perm(prod.payload, point) == apply_perm(
                    pa, apply_perm(pb, point)
                )

    def test_inverse_by_search(self):
        s3 = Symmetric(3)
        for x in elements(s3):
            inverses = [
                y for y in elements(s3) if is_identity(multiply(x, y))
            ]
            assert inverses == [inverse(x)]
            assert is_identity(multiply(inverse(x), x))

    def test_associative_exhaustive_s3(self):
        s3 = Symmetric(3)
        els = list(elements(s3))
        for a, b, c in itertools.product(els, repeat=3):
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_not_commutative(self):
        s3 = Symmetric(3)
        a = make_element(s3, (2, 3, 1))
        b = make_element(s3, (2, 1, 3))
        assert multiply(a, b) != multiply(b, a)

    def test_rejects_non_permutation(self):
        s3 = Symmetric(3)
        with pytest.raises(InputError):
            make_element(s3, (1, 1, 2))
        with pytest.raises(InputError):
            make_element(s3, (1, 2))
        with pytest.raises(InputError):
            make_element(s3, (0, 1, 2))


class TestProduct:
    def test_componentwise(self):
        spec = Product((Cyclic(4), Symmetric(3)))
        a = make_element(spec, (1, (2, 3, 1)))
        b = make_element(spec, (3, (2, 1, 3)))
        prod = multiply(a, b)
        assert prod.payload[0] == 0
        assert prod.payload[1] == multiply(
            make_element(Symmetric(3), (2, 3, 1)), make_element(Symmetric(3), (2, 1, 3))
        ).payload
        assert is_identity(multiply(a, inverse(a)))

    def test_nested(self):
        spec = Product((Cyclic(2), Product((Cyclic(3), Cyclic(5)))))
        a = make_element(spec, (1, (2, 4)))
        assert multiply(a, a).payload == (0, (1, 3))


class TestSpecValidation:
    def test_rejects_bad_specs(self):
        with pytest.raises(InputError):
            validate_spec(Cyclic(0))
        with pytest.raises(InputError):
            validate_spec(Symmetric(0))
        with pytest.raises(InputError):
            validate_spec(Symmetric(9))
        with pytest.raises(InputError):
            validate_spec(Product(()))

    def test_order(self):
        # n for Z_n, n! for S_n, the product of the parts' counts
        assert len(list(elements(Cyclic(6)))) == 6
        assert len(list(elements(Symmetric(4)))) == 4 * 3 * 2
        assert len(list(elements(Product((Cyclic(2), Symmetric(3)))))) == 2 * 3 * 2


class TestElements:
    def test_counts_and_determinism(self):
        for spec, count in [
            (Cyclic(7), 7),
            (Symmetric(3), 3 * 2),
            (Product((Cyclic(2), Cyclic(3))), 2 * 3),
        ]:
            first = list(elements(spec))
            second = list(elements(spec))
            assert first == second
            assert len(first) == count
            assert len(set(first)) == count
            assert sum(1 for x in first if is_identity(x)) == 1


class TestTextFormat:
    def test_roundtrip_all_elements(self):
        specs = [Cyclic(5), Symmetric(3), Product((Cyclic(2), Symmetric(3)))]
        for spec in specs:
            for x in elements(spec):
                assert parse_element(spec, format_element(x)) == x

    def test_examples(self):
        assert parse_element(Cyclic(5), "7").payload == 2
        assert parse_element(Symmetric(3), "2,3,1").payload == (2, 3, 1)
        spec = Product((Cyclic(4), Symmetric(3)))
        x = parse_element(spec, "[3; 2,1,3]")
        assert x.payload == (3, (2, 1, 3))
        assert format_element(x) == "[3; 2,1,3]"

    def test_nested_product_text(self):
        spec = Product((Cyclic(2), Product((Cyclic(3), Cyclic(5)))))
        x = make_element(spec, (1, (2, 4)))
        assert parse_element(spec, format_element(x)) == x

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_element(Cyclic(5), "abc")
        with pytest.raises(InputError):
            parse_element(Symmetric(3), "1,2")
        with pytest.raises(InputError):
            parse_element(Product((Cyclic(2), Cyclic(2))), "[1]")
        with pytest.raises(InputError):
            parse_element(Product((Cyclic(2), Cyclic(2))), "1; 1")


class TestSpecJson:
    def test_roundtrip(self):
        specs = [
            Cyclic(3),
            Symmetric(4),
            Product((Cyclic(2), Symmetric(3))),
            Product((Cyclic(2), Product((Cyclic(3), Cyclic(5))))),
        ]
        for spec in specs:
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_bad_json(self):
        with pytest.raises(InputError):
            spec_from_json({"cyclic": "x"})
        with pytest.raises(InputError):
            spec_from_json({"unknown": 3})
        with pytest.raises(InputError):
            spec_from_json([1, 2])


def written_out_product(spec, a, b):
    """The payload of a * b by each kind's definition: addition mod n,
    function application point by point, or part by part."""
    if isinstance(spec, Cyclic):
        return (a + b) % spec.n
    if isinstance(spec, Symmetric):
        return tuple(apply_perm(a, apply_perm(b, point)) for point in range(1, spec.n + 1))
    return tuple(written_out_product(p, x, y) for p, x, y in zip(spec.parts, a, b))


def written_out_inverse(spec, a):
    """The payload of the inverse of a: the negation mod n, the permutation
    mapping each image back to its point, or part by part."""
    if isinstance(spec, Cyclic):
        return (spec.n - a) % spec.n
    if isinstance(spec, Symmetric):
        back = {apply_perm(a, point): point for point in range(1, spec.n + 1)}
        return tuple(back[point] for point in range(1, spec.n + 1))
    return tuple(written_out_inverse(p, x) for p, x in zip(spec.parts, a))


class TestPayloadArithmetic:
    # the element helpers wrap the payload arithmetic; every pair of
    # elements checks both against the definitions above
    SPECS = (Cyclic(6), Symmetric(3), Symmetric(4), Product((Cyclic(2), Symmetric(3))))

    def test_every_pair_matches_the_definition(self):
        for spec in self.SPECS:
            els = list(elements(spec))
            e = identity(spec)
            for a in els:
                inv = inverse(a)
                assert inv.spec == spec
                assert inv.payload == written_out_inverse(spec, a.payload)
                assert multiply(a, inv) == multiply(inv, a) == e
                assert multiply(a, e) == multiply(e, a) == a
                for b in els:
                    prod = multiply(a, b)
                    assert prod.spec == spec
                    assert prod.payload == written_out_product(spec, a.payload, b.payload)
                    assert is_identity(prod) == (b == inv)

    def test_associative_on_every_triple(self):
        for spec in self.SPECS:
            els = list(elements(spec))
            table = {(a, b): multiply(a, b) for a in els for b in els}
            for a, b, c in itertools.product(els, repeat=3):
                assert table[table[a, b], c] == table[a, table[b, c]]

    def test_identity_of_an_invalid_spec_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(InputError):
                identity(Cyclic(0))
        with pytest.raises(InputError):
            identity(Product([Cyclic(2)]))  # parts must be a tuple
        assert identity(Cyclic(3)).payload == 0
        assert identity(Symmetric(3)).payload == (1, 2, 3)

    def test_identity_of_equal_specs_is_equal(self):
        spec = Product((Cyclic(2), Symmetric(3)))
        again = Product((Cyclic(2), Symmetric(3)))
        assert identity(spec) == identity(again) == make_element(spec, (0, (1, 2, 3)))

    def test_spec_mismatch_raises(self):
        with pytest.raises(InputError):
            multiply(make_element(Cyclic(2), 1), make_element(Cyclic(3), 1))
        with pytest.raises(InputError):
            multiply(make_element(Cyclic(6), 1), make_element(Symmetric(3), (2, 1, 3)))
        # equal specs held in distinct objects still multiply
        assert multiply(make_element(Cyclic(3), 1), make_element(Cyclic(3), 1)).payload == 2
