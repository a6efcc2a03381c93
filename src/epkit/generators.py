"""Deterministic instance families for tests, experiments, and the CLI.

Every family is reproducible from its parameters (plus a seed where
randomness is involved). The wall family documents its exact adjacency in
docs/generators.md; tests rely on its measured packing/cover behavior, not
on the layout.
"""

import itertools
import random

from .errors import InputError
from .graph import LabeledGraph, build_graph
from .groups import Cyclic, GroupSpec, elements, validate_spec
from .packing import CliqueExpansion

Z2 = Cyclic(2)


def odd_cycles(count: int, length: int = 3) -> LabeledGraph:
    """Disjoint cycles over Z_2, each made non-null by one odd arc."""
    if count < 1:
        raise InputError("count must be positive")
    if length < 2:
        raise InputError("cycle length must be at least 2")
    arcs = []
    for c in range(count):
        base = c * length
        for i in range(length - 1):
            arcs.append((base + i, base + i + 1, 0))
        arcs.append((base + length - 1, base, 1))
    return build_graph(Z2, count * length, arcs)


def escher_wall(height: int) -> LabeledGraph:
    """A height x (2*height+1) grid with one row of crossing odd arcs.

    Grid arcs carry the identity; the top-row vertex in column j is joined
    to the bottom-row vertex in the mirrored column by an odd arc. Every
    non-null cycle threads the middle column, yet no single vertex meets
    them all, which is what produces the packing/cover gap measured in the
    tests.
    """
    if height < 2:
        raise InputError("wall height must be at least 2")
    cols = 2 * height + 1

    def vid(i: int, j: int) -> int:
        return i * cols + j

    arcs = []
    for i in range(height):
        for j in range(cols - 1):
            arcs.append((vid(i, j), vid(i, j + 1), 0))
    for i in range(height - 1):
        for j in range(cols):
            arcs.append((vid(i, j), vid(i + 1, j), 0))
    for j in range(cols):
        arcs.append((vid(0, j), vid(height - 1, cols - 1 - j), 1))
    return build_graph(Z2, height * cols, arcs)


def zm_grid(m: int, rows: int, cols: int) -> LabeledGraph:
    """A rows x cols grid over Z_m whose top-row horizontals carry the
    generator; a cycle is non-null iff its top-row displacement is not a
    multiple of m."""
    if m < 1:
        raise InputError("modulus must be positive")
    if rows < 1 or cols < 1:
        raise InputError("grid needs positive dimensions")
    group = Cyclic(m)

    def vid(i: int, j: int) -> int:
        return i * cols + j

    arcs = []
    for i in range(rows):
        for j in range(cols - 1):
            arcs.append((vid(i, j), vid(i, j + 1), 1 % m if i == 0 else 0))
    for i in range(rows - 1):
        for j in range(cols):
            arcs.append((vid(i, j), vid(i + 1, j), 0))
    return build_graph(group, rows * cols, arcs)


def random_instance(n: int, arc_count: int, group: GroupSpec, seed: int) -> LabeledGraph:
    """arc_count arcs with loop-free endpoints and uniform labels."""
    if n < 2:
        raise InputError("need at least two vertices")
    if arc_count < 0:
        raise InputError("arc count must be non-negative")
    validate_spec(group)
    pool = list(elements(group))
    rng = random.Random(seed)
    arcs = []
    for _ in range(arc_count):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        arcs.append((u, v, rng.choice(pool)))
    return build_graph(group, n, arcs)


def subdivided_clique(
    ell: int, gadget: str = "odd"
) -> tuple[LabeledGraph, CliqueExpansion]:
    """K_ell with every edge subdivided once, plus its expansion witness.

    The subdivision vertex of edge (i, j) joins the tree of the lower
    branch vertex; the arc from it to the higher branch vertex realizes the
    model edge. gadget="odd" doubles the first model edge with an odd arc,
    which threads non-null cycles through the whole clique so arc stripping
    keeps the witness intact (for ell >= 3); gadget="none" leaves the graph
    clean.
    """
    if ell < 2:
        raise InputError("expansion order must be at least 2")
    if gadget not in ("odd", "none"):
        raise InputError(f"unknown gadget {gadget!r}")
    arcs: list[tuple[int, int, int]] = []
    next_vertex = ell
    tree_arcs: dict[int, list[int]] = {i: [] for i in range(ell)}
    edge_map: dict[tuple[int, int], int] = {}
    for i, j in itertools.combinations(range(ell), 2):
        mid = next_vertex
        next_vertex += 1
        tree_arcs[i].append(len(arcs))
        arcs.append((i, mid, 0))
        edge_map[(i, j)] = len(arcs)
        arcs.append((mid, j, 0))
    supernodes = {
        i: frozenset({i} | {arcs[a][1] for a in tree_arcs[i]}) for i in range(ell)
    }
    if gadget == "odd":
        arcs.append((ell, 1, 1))
    g = build_graph(Z2, next_vertex, arcs)
    eta = CliqueExpansion(
        supernodes=supernodes,
        tree_edges={i: tuple(tree_arcs[i]) for i in range(ell)},
        edge_map=edge_map,
        centers={i: i for i in range(ell)},
    )
    return g, eta


def generate(
    family: str, seed: int = 0, **params
) -> tuple[LabeledGraph, dict]:
    """Dispatch a family by name; extras carry any emitted witnesses."""
    if family == "odd_cycles":
        return odd_cycles(**params), {}
    if family == "escher_wall":
        return escher_wall(**params), {}
    if family == "zm_grid":
        return zm_grid(**params), {}
    if family == "random":
        return random_instance(seed=seed, **params), {}
    if family == "subdivided_clique":
        g, eta = subdivided_clique(**params)
        return g, {"expansion": eta}
    raise InputError(f"unknown family {family!r}")
