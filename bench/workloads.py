"""Seeded inputs for the three workloads.

Each function in INPUTS returns a list of operation documents: plain JSON values
holding a graph document (as `graph_to_json_dict` writes it) plus the
operation's parameters. The worker process receives only these
documents; it never sees the generators.

The graphs themselves come from fixed pools (for `corpus`, the acceptance
corpus's own seeds). The seed decides how they are presented: the order
of the operations and, for `wide` and `oracle`, the orientation of every
arc (a reversed arc carries the inverse label, so the gain graph is the
same). The same seed always yields the same documents, and different
seeds yield different documents for the same work.

The seed does not redraw, renumber or reorient the corpus graphs: the
strip search on the solver path is exponential and costs what numbering
and orientation make it cost. When the seed renumbered the corpus, its p99
latency ranged from 73 to 147 ms over ten seeds; with reoriented arcs
alone, from 65 to 101 ms. The other two workloads run polynomial or
exhaustive searches, whose cost orientation does not change.
"""

import random

from epkit.generators import odd_cycles, random_instance, subdivided_clique, zm_grid
from epkit.generators import escher_wall
from epkit.graph import build_graph, graph_to_json_dict
from epkit.groups import Cyclic, Symmetric, inverse
from epkit.packing import CliqueExpansion, expansion_to_json_dict

Z2, Z3, Z6, S3 = Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3)
GROUPS = (Z2, Z3, Z6, S3)


def _op(label, g, k=None, tw_threshold=4, expansion=None, expect_packing=None):
    doc = {"label": label, "graph": graph_to_json_dict(g)}
    if k is not None:
        doc["k"] = k
    if tw_threshold != 4:
        doc["tw_threshold"] = tw_threshold
    if expansion is not None:
        doc["expansion"] = expansion_to_json_dict(expansion)
    if expect_packing is not None:
        doc["expect_packing"] = expect_packing
    return doc


def reorient(g, rng):
    """g with each arc reversed, and its label inverted, on a coin flip."""
    arcs = []
    for a in g.arcs:
        if rng.random() < 0.5:
            arcs.append((a.head, a.tail, inverse(a.label)))
        else:
            arcs.append((a.tail, a.head, a.label))
    return build_graph(g.group, g.n, arcs)


def _gated_core():
    """Identity K8 core reachable only through two gate vertices joined by
    an odd path, plus a confined odd parallel pair: the corpus instance
    that walks the solver through its irrelevant-vertex branch."""
    arcs = [(u, v, 0) for u in range(2, 10) for v in range(u + 1, 10)]
    arcs += [(2, 0, 0), (3, 1, 0), (0, 10, 0), (10, 1, 1), (1, 11, 0), (1, 11, 1)]
    g = build_graph(Z2, 12, arcs)
    core = list(range(2, 10))
    pair_arc = {}
    for a in g.arcs:
        if 2 <= a.tail < 10 and 2 <= a.head < 10:
            pair_arc[(core.index(a.tail), core.index(a.head))] = a.id
    eta = CliqueExpansion(
        supernodes={i: frozenset({v}) for i, v in enumerate(core)},
        tree_edges={i: frozenset() for i in range(8)},
        edge_map=pair_arc,
        centers={i: v for i, v in enumerate(core)},
    )
    return g, eta


def corpus(seed):
    """The acceptance corpus (tests/test_acceptance.fuzz_corpus): 1012
    solve operations, oracle fallback on throughout, n <= 12, in an order
    drawn from `seed`."""
    rng = random.Random(f"corpus:{seed}")
    ops = []
    for i in range(520):
        n = 4 + i % 9
        g = random_instance(n, n + i % 5, GROUPS[i % 4], seed=10_000 + i)
        ops.append(_op(f"sparse-{i}", g, 1 + i % 3))
    for i in range(260):
        n = 6 + i % 5
        g = random_instance(n, 2 * n + i % 6, GROUPS[i % 4], seed=20_000 + i)
        ops.append(_op(f"dense-{i}", g, 2 + i % 2))
    # k = 1 tolerates more density: the packing search stops at one cycle
    for i in range(160):
        n = 8 + i % 5
        g = random_instance(n, 2 * n + i % 8, GROUPS[i % 4], seed=30_000 + i)
        ops.append(_op(f"unit-{i}", g, 1))
    for count in (1, 2, 3):
        for length in (3, 4, 5):
            if count * length > 12:
                continue
            g = odd_cycles(count, length=length)
            for k in (1, 2, 3):
                ops.append(_op(f"odd-{count}-{length}-k{k}", g, k))
    for modulus in (2, 3, 4, 6):
        for rows, cols in ((2, 2), (2, 3), (3, 3), (2, 5), (3, 4)):
            g = zm_grid(modulus, rows, cols)
            for k in (1, 2):
                ops.append(_op(f"grid-{modulus}-{rows}x{cols}-k{k}", g, k))
    wall = escher_wall(2)
    for k in (1, 2, 3):
        ops.append(_op(f"wall-k{k}", wall, k))
    # supplied-witness workflow: a low threshold forces the expansion branch
    for ell in (2, 3, 4):
        g, eta = subdivided_clique(ell)
        ops.append(_op(f"clique-{ell}", g, 1, tw_threshold=2, expansion=eta))
    g, eta = _gated_core()
    for k in (1, 2):
        ops.append(_op(f"gated-k{k}", g, k, tw_threshold=2, expansion=eta))
    rng.shuffle(ops)
    return ops


def wide(seed):
    """Large graphs of low width for the decomposition pipeline: 40
    operations, n from 150 to about 1000. Each size slot gets one k on the
    packing side and one on the cover side."""
    rng = random.Random(f"wide:{seed}")
    ops = []
    # disjoint odd triangles: a packing exactly when k <= count
    for c in (55, 65, 75, 90, 105):
        g = reorient(odd_cycles(c, 3), rng)
        ops.append(_op(f"triangles-{c}-pack", g, c // 3, expect_packing=True))
        ops.append(_op(f"triangles-{c}-cover", g, c + 1, expect_packing=False))
    # one long odd cycle: k = 1 packs it, k = 2 needs a one-vertex cover
    for length in (175, 275, 375, 475, 625):
        g = reorient(odd_cycles(1, length), rng)
        ops.append(_op(f"cycle-{length}-pack", g, 1, expect_packing=True))
        ops.append(_op(f"cycle-{length}-cover", g, 2, expect_packing=False))
    # Z_m grids with 3-4 rows: non-null cycles run along the top row
    for m, rows, cols in ((2, 3, 55), (3, 4, 55), (4, 3, 85), (5, 4, 85), (6, 3, 125)):
        g = reorient(zm_grid(m, rows, cols), rng)
        ops.append(_op(f"grid-{m}-{rows}x{cols}-pack", g, 2))
        ops.append(_op(f"grid-{m}-{rows}x{cols}-cover", g, rows * cols // 2))
    # sparse random graphs over S3 and Z6, about 1.1 arcs per vertex
    for j, n in enumerate((150, 250, 400, 600, 1000)):
        for side in ("pack", "cover"):
            group = (S3, Z6)[j % 2]
            g = random_instance(n, round(1.1 * n), group, seed=50_000 + 2 * j + (side == "cover"))
            k = 2 if side == "pack" else n // 3
            ops.append(_op(f"random-{n}-{side}", reorient(g, rng), k))
    rng.shuffle(ops)
    return ops


def oracle(seed):
    """300 small random graphs (n 7-10, 1.3-1.7 arcs per vertex) for the
    `epkit oracle` report, reoriented by `seed`. n stays at 10 or below: at
    n = 12 and 2n arcs a single capacity-2 packing search can take minutes."""
    rng = random.Random(f"oracle:{seed}")
    ops = []
    for i in range(300):
        n = 7 + i % 4
        arcs = round(n * (1.3 + 0.1 * (i // 4 % 5)))
        g = random_instance(n, arcs, GROUPS[i // 20 % 4], seed=40_000 + i)
        ops.append(_op(f"oracle-{i}", reorient(g, rng)))
    rng.shuffle(ops)
    return ops


INPUTS = {"corpus": corpus, "wide": wide, "oracle": oracle}
