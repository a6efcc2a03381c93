"""Finite groups used as arc-label alphabets.

Three spec kinds are supported: cyclic groups Z_n, symmetric groups Sym_n for
n <= 8, and finite direct products of those. Elements are immutable values
carrying their spec, with a canonical payload per kind:

- Cyclic(n): an int in [0, n), composition is addition mod n.
- Symmetric(n): a tuple giving the one-line image of 1..n (1-based), so
  (2, 3, 1) maps 1 to 2, 2 to 3, 3 to 1. Composition is function composition,
  (a * b)(i) = a(b(i)).
- Product(parts): a tuple of component payloads, componentwise composition.

The arithmetic itself works on raw payloads (`_mul`, `_inv`), so a search
that multiplies many labels builds no element per step. `multiply`,
`inverse`, `identity` and `is_identity` wrap it for elements; the identity
of each valid spec is built once and kept.

Text encodings (used in graph files): cyclic "3", symmetric "2,3,1", product
"[a; b; ...]" with semicolons so symmetric commas nest without ambiguity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True, slots=True)
class Cyclic:
    n: int


@dataclass(frozen=True, slots=True)
class Symmetric:
    n: int


@dataclass(frozen=True, slots=True)
class Product:
    parts: tuple["GroupSpec", ...]


GroupSpec = Cyclic | Symmetric | Product

SYMMETRIC_DEGREE_CAP = 8


def validate_spec(spec: GroupSpec) -> None:
    if isinstance(spec, Cyclic):
        if spec.n < 1:
            raise InputError(f"cyclic group needs n >= 1, got {spec.n}")
    elif isinstance(spec, Symmetric):
        if not (1 <= spec.n <= SYMMETRIC_DEGREE_CAP):
            raise InputError(
                f"symmetric group degree must be in [1, {SYMMETRIC_DEGREE_CAP}], got {spec.n}"
            )
    elif isinstance(spec, Product):
        if not isinstance(spec.parts, tuple) or not spec.parts:
            raise InputError("product group needs a non-empty tuple of parts")
        for part in spec.parts:
            validate_spec(part)
    else:
        raise InputError(f"unknown group spec: {spec!r}")


@dataclass(frozen=True, slots=True)
class GroupElement:
    spec: GroupSpec
    payload: object

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)


def _canonical_payload(spec: GroupSpec, raw: object) -> object:
    if isinstance(spec, Cyclic):
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise InputError(f"cyclic payload must be an int, got {raw!r}")
        return raw % spec.n
    if isinstance(spec, Symmetric):
        try:
            images = tuple(int(x) for x in raw)  # type: ignore[arg-type]
        except TypeError:
            raise InputError(f"symmetric payload must be a sequence, got {raw!r}") from None
        if sorted(images) != list(range(1, spec.n + 1)):
            raise InputError(f"not a permutation of 1..{spec.n}: {raw!r}")
        return images
    assert isinstance(spec, Product)
    try:
        items = tuple(raw)  # type: ignore[arg-type]
    except TypeError:
        raise InputError(f"product payload must be a sequence, got {raw!r}") from None
    if len(items) != len(spec.parts):
        raise InputError(
            f"product payload has {len(items)} components, spec has {len(spec.parts)}"
        )
    return tuple(_canonical_payload(p, x) for p, x in zip(spec.parts, items))


def make_element(spec: GroupSpec, raw: object) -> GroupElement:
    """Build an element, canonicalizing the payload (idempotent)."""
    validate_spec(spec)
    return GroupElement(spec, _canonical_payload(spec, raw))


def _identity_payload(spec: GroupSpec) -> object:
    if isinstance(spec, Cyclic):
        return 0
    if isinstance(spec, Symmetric):
        return tuple(range(1, spec.n + 1))
    return tuple(_identity_payload(p) for p in spec.parts)


# spec -> its identity element, filled only for specs that validate
_IDENTITIES: dict[GroupSpec, GroupElement] = {}


def identity(spec: GroupSpec) -> GroupElement:
    try:
        return _IDENTITIES[spec]
    except (KeyError, TypeError):  # TypeError: an unhashable, invalid spec
        validate_spec(spec)
    _IDENTITIES[spec] = GroupElement(spec, _identity_payload(spec))
    return _IDENTITIES[spec]


def _mul(spec: GroupSpec, a, b):
    """The payload of a * b, for payloads a and b of `spec`."""
    if isinstance(spec, Cyclic):
        return (a + b) % spec.n
    if isinstance(spec, Symmetric):
        return tuple([a[i - 1] for i in b])
    return tuple([_mul(p, x, y) for p, x, y in zip(spec.parts, a, b)])


def _inv(spec: GroupSpec, a):
    """The payload of the inverse of a, for a payload a of `spec`."""
    if isinstance(spec, Cyclic):
        return -a % spec.n
    if isinstance(spec, Symmetric):
        inv = [0] * spec.n
        for i, image in enumerate(a, 1):
            inv[image - 1] = i
        return tuple(inv)
    return tuple([_inv(p, x) for p, x in zip(spec.parts, a)])


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    spec = a.spec
    if spec is not b.spec and spec != b.spec:
        raise InputError(f"group mismatch: {spec!r} vs {b.spec!r}")
    return GroupElement(spec, _mul(spec, a.payload, b.payload))


def inverse(a: GroupElement) -> GroupElement:
    return GroupElement(a.spec, _inv(a.spec, a.payload))


def is_identity(a: GroupElement) -> bool:
    return a.payload == identity(a.spec).payload


def elements(spec: GroupSpec):
    """Iterate every element, deterministically ordered."""
    validate_spec(spec)
    if isinstance(spec, Cyclic):
        for x in range(spec.n):
            yield GroupElement(spec, x)
    elif isinstance(spec, Symmetric):
        for images in itertools.permutations(range(1, spec.n + 1)):
            yield GroupElement(spec, images)
    else:
        pools = [[e.payload for e in elements(p)] for p in spec.parts]
        for combo in itertools.product(*pools):
            yield GroupElement(spec, tuple(combo))


# Text encoding -------------------------------------------------------------

def format_element(a: GroupElement) -> str:
    spec = a.spec
    if isinstance(spec, Cyclic):
        return str(a.payload)
    if isinstance(spec, Symmetric):
        return ",".join(str(i) for i in a.payload)
    assert isinstance(spec, Product)
    inner = "; ".join(
        format_element(GroupElement(p, x)) for p, x in zip(spec.parts, a.payload)  # type: ignore[arg-type]
    )
    return f"[{inner}]"


def _split_product_items(body: str) -> list[str]:
    items: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in body:
        if ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced brackets in product element: {body!r}")
            current.append(ch)
        elif ch == ";" and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced brackets in product element: {body!r}")
    items.append("".join(current))
    return items


def parse_element(spec: GroupSpec, text: str) -> GroupElement:
    validate_spec(spec)
    text = text.strip()
    if isinstance(spec, Cyclic):
        try:
            value = int(text)
        except ValueError:
            raise InputError(f"bad cyclic element text: {text!r}") from None
        return make_element(spec, value)
    if isinstance(spec, Symmetric):
        try:
            images = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise InputError(f"bad symmetric element text: {text!r}") from None
        return make_element(spec, images)
    assert isinstance(spec, Product)
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError(f"product element text must be bracketed: {text!r}")
    items = _split_product_items(text[1:-1])
    if len(items) != len(spec.parts):
        raise InputError(
            f"product element has {len(items)} components, spec has {len(spec.parts)}"
        )
    payload = tuple(parse_element(p, item).payload for p, item in zip(spec.parts, items))
    return GroupElement(spec, payload)


# JSON spec encoding --------------------------------------------------------

def spec_to_json(spec: GroupSpec) -> dict:
    if isinstance(spec, Cyclic):
        return {"cyclic": spec.n}
    if isinstance(spec, Symmetric):
        return {"symmetric": spec.n}
    assert isinstance(spec, Product)
    return {"product": [spec_to_json(p) for p in spec.parts]}


def spec_from_json(data: object) -> GroupSpec:
    if not isinstance(data, dict) or len(data) != 1:
        raise InputError(f"bad group spec JSON: {data!r}")
    (kind, value), = data.items()
    if kind in ("cyclic", "symmetric") and type(value) is not int:
        raise InputError(f"group spec size must be an integer: {data!r}")
    if kind == "cyclic":
        spec: GroupSpec = Cyclic(value)
    elif kind == "symmetric":
        spec = Symmetric(value)
    elif kind == "product":
        if not isinstance(value, list):
            raise InputError(f"product spec must list its parts: {data!r}")
        spec = Product(tuple(spec_from_json(p) for p in value))
    else:
        raise InputError(f"unknown group spec kind: {kind!r}")
    validate_spec(spec)
    return spec
