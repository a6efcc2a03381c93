"""Acceptance gate: one test per end-to-end promise.

Every check here runs against an independent brute-force oracle or an
exhaustive enumeration re-implemented from first principles in this file;
agreement with the library is the point, so nothing below imports a
library function to verify that same function.

The corpora are deterministic (fixed seeds), so each run sees identical
instances. Densities stay inside the measured envelope of the exact
oracle: beyond roughly 3n arcs on 12 vertices the cycle count passes the
fallback oracle's guard.
"""

import itertools
import random
import time

import networkx as nx
import pytest

from epkit.cuts import (
    enumerate_important_separators,
    find_irrelevant_vertex,
    tw_reduction_set,
)
from epkit.errors import InputError
from epkit.generators import (
    escher_wall,
    odd_cycles,
    random_instance,
    subdivided_clique,
    zm_grid,
)
from epkit.graph import Separation, build_graph, walk_vertices
from epkit.groups import (
    Cyclic,
    Product,
    Symmetric,
    elements,
    identity,
    inverse,
    is_identity,
    multiply,
)
from epkit.labeling import is_clean, untangle
from epkit.oracle import (
    enumerate_non_null_cycles,
    max_packing,
    min_gfvs,
)
from epkit.packing import CliqueExpansion, non_null_s_paths_or_hitting_set
from epkit.solver import DriverConfig, solve
from epkit.verify import verify_certificate

Z2, Z3, Z6, S3 = Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3)
GROUPS = (Z2, Z3, Z6, S3)


# Shared graph helpers ------------------------------------------------------

def plain(n, edges):
    return build_graph(Z2, n, [(u, v, 0) for u, v in edges])


def random_plain(seed, n, p_edge):
    rng = random.Random(seed)
    return plain(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge],
    )


def adjacency(g):
    adj = {v: set() for v in g.vertices}
    for a in g.arcs:
        if a.tail != a.head:
            adj[a.tail].add(a.head)
            adj[a.head].add(a.tail)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def bfs_reach(adj, starts, removed):
    seen = {s for s in starts if s not in removed}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


# The fuzz corpus -----------------------------------------------------------

def gated_core():
    """Identity K8 core reachable only through two gate vertices joined by
    an odd path, plus a confined odd parallel pair; the one instance here
    that walks the driver through its irrelevant-vertex branch."""
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


def fuzz_corpus():
    """Deterministic mix of random and structured instances, |V| <= 12,
    groups Z2/Z3/Z6/Sym3, k <= 3. Returns (label, graph, k, cfg, witness)."""
    items = []
    fallback = DriverConfig(oracle_fallback=True)
    for seed in range(520):
        n = 4 + seed % 9
        m = n + seed % 5
        g = random_instance(n, m, GROUPS[seed % 4], seed=10_000 + seed)
        items.append((f"sparse-{seed}", g, 1 + seed % 3, fallback, None))
    for seed in range(260):
        n = 6 + seed % 5
        m = 2 * n + seed % 6
        g = random_instance(n, m, GROUPS[seed % 4], seed=20_000 + seed)
        items.append((f"dense-{seed}", g, 2 + seed % 2, fallback, None))
    # k = 1 tolerates more density: the packing search stops at one cycle
    for seed in range(160):
        n = 8 + seed % 5
        m = 2 * n + seed % 8
        g = random_instance(n, m, GROUPS[seed % 4], seed=30_000 + seed)
        items.append((f"unit-{seed}", g, 1, fallback, None))
    for count in (1, 2, 3):
        for length in (3, 4, 5):
            if count * length > 12:
                continue
            g = odd_cycles(count, length=length)
            for k in (1, 2, 3):
                items.append((f"odd-{count}-{length}-k{k}", g, k, fallback, None))
    for modulus in (2, 3, 4, 6):
        for rows, cols in ((2, 2), (2, 3), (3, 3), (2, 5), (3, 4)):
            g = zm_grid(modulus, rows, cols)
            for k in (1, 2):
                items.append((f"grid-{modulus}-{rows}x{cols}-k{k}", g, k, fallback, None))
    wall = escher_wall(2)
    for k in (1, 2, 3):
        items.append((f"wall-k{k}", wall, k, fallback, None))
    # supplied-witness workflow: a low threshold forces the expansion branch
    tight = DriverConfig(tw_threshold=2, oracle_fallback=True)
    for ell in (2, 3, 4):
        g, eta = subdivided_clique(ell)
        items.append((f"clique-{ell}", g, 1, tight, eta))
    g, eta = gated_core()
    items.append(("gated-k1", g, 1, tight, eta))
    items.append(("gated-k2", g, 2, tight, eta))
    return items


@pytest.fixture(scope="module")
def solved_corpus():
    """Solve and verify the whole corpus once; later tests reuse the runs."""
    records = []
    failures = []
    start = time.monotonic()
    for label, g, k, cfg, eta in fuzz_corpus():
        try:
            cert = solve(g, k, cfg, expansion=eta)
        except Exception as exc:  # any escape is a criterion failure
            failures.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        ok, why = verify_certificate(g, cert)
        if not ok:
            failures.append((label, f"rejected: {why}"))
        records.append((label, g, k, cert))
    elapsed = time.monotonic() - start
    return records, failures, elapsed


def test_criterion_1_fuzzed_solve_always_verifies(solved_corpus):
    """>= 1000 fuzzed instances, every certificate accepted, within budget."""
    records, failures, elapsed = solved_corpus
    assert len(records) + len(failures) >= 1000
    assert not failures, failures[:10]
    assert elapsed <= 600.0, f"corpus took {elapsed:.1f}s"


def test_criterion_2_cover_branch_respects_width_bound(solved_corpus):
    """Wherever the decomposition branch emits a cover at width w under
    budget k, its size is at most (k-1)(w+1); recursion levels carry their
    own k."""
    records, _, _ = solved_corpus

    hits = []

    def visit(trail, k):
        for entry in trail:
            if entry.get("step") == "bounded-treewidth" and entry.get("result") == "cover":
                hits.append((k, entry))
            if entry.get("step") == "separation-recurse" and "trail" in entry:
                visit(entry["trail"], entry["k"])

    for _, _, _, cert in records:
        visit(cert.trail, cert.k)

    violations = [
        (k, entry)
        for k, entry in hits
        if not (entry["cover_size"] <= entry["bound"] == (k - 1) * (entry["width"] + 1))
    ]
    assert not violations, violations[:5]
    assert len(hits) >= 100  # the corpus is built to fire this branch often


def oracle_important(g, x, y, k):
    """Important separators by raw subset enumeration: keep the separators
    of size <= k that are inclusion-minimal and whose X-reach no other
    separator of equal-or-smaller size strictly exceeds."""
    adj = adjacency(g)
    others = sorted(set(g.vertices) - x - y)
    seps = [
        frozenset(comb)
        for size in range(k + 1)
        for comb in itertools.combinations(others, size)
        if not (bfs_reach(adj, x, frozenset(comb)) & y)
    ]
    out = set()
    for s in seps:
        subs = (
            frozenset(c)
            for r in range(len(s))
            for c in itertools.combinations(sorted(s), r)
        )
        if any(not (bfs_reach(adj, x, sub) & y) for sub in subs):
            continue
        r_s = bfs_reach(adj, x, s)
        if any(
            len(s2) <= len(s) and bfs_reach(adj, x, s2) > r_s
            for s2 in seps
            if s2 != s
        ):
            continue
        out.add(s)
    return out


def test_criterion_3_important_separators_match_oracle():
    """Set-for-set agreement with the subset oracle on 216 samples, and
    never more than 4^k of them."""
    for seed in range(216):
        rng = random.Random(60_000 + seed)
        n = 4 + seed % 6
        g = random_plain(61_000 + seed, n, 0.25 + (seed % 7) * 0.08)
        x_size = 1 + seed % 2
        y_size = 1 + (seed // 2) % 2
        chosen = rng.sample(sorted(g.vertices), x_size + y_size)
        x, y = frozenset(chosen[:x_size]), frozenset(chosen[x_size:])
        k = 1 + seed % 3
        ours = {imp.separator for imp in enumerate_important_separators(g, x, y, k)}
        assert ours == oracle_important(g, x, y, k), seed
        assert len(ours) <= 4 ** k, seed


def all_partitions(items):
    """Every partition into >= 2 parts: the first item anchors a block and
    each later item joins an existing block or opens a new one."""
    items = list(items)
    if not items:
        return
    first, rest = items[0], items[1:]

    def grow(remaining, blocks):
        if not remaining:
            if len(blocks) >= 2:
                yield tuple(frozenset(b) for b in blocks)
            return
        head, tail = remaining[0], remaining[1:]
        for i in range(len(blocks)):
            yield from grow(tail, blocks[:i] + [blocks[i] + [head]] + blocks[i + 1:])
        yield from grow(tail, blocks + [[head]])

    yield from grow(rest, [[first]])


def oracle_is_cut(adj, partition, s):
    part_of = {t: i for i, part in enumerate(partition) for t in part}
    for t1, i1 in part_of.items():
        reach = bfs_reach(adj, {t1}, s)
        if any(part_of[t2] != i1 for t2 in reach & part_of.keys()):
            return False
    return True


def oracle_is_minimal_cut(adj, partition, s):
    if not oracle_is_cut(adj, partition, s):
        return False
    return all(
        not oracle_is_cut(adj, partition, frozenset(sub))
        for r in range(len(s))
        for sub in itertools.combinations(sorted(s), r)
    )


def test_criterion_4_marking_clears_minimal_multiway_cuts():
    """On 100 dense well-linked instances (t in {2,3}), no unmarked vertex
    of Z lies in any minimal terminal multiway cut of size <= t. The
    per-partition cap on the marking is hard-asserted inside the
    construction itself, so these completions exercise it too; the coarser
    aggregate cap is re-checked here."""
    built = 0
    by_t = {2: 0, 3: 0}
    seed = 0
    while built < 100 and seed < 400:
        t = 2 + seed % 2
        rng = random.Random(70_000 + seed)
        instance = None
        for attempt in range(200):
            n = rng.randint(8, 12)
            cand = random_plain(71_000 + seed * 211 + attempt, n, rng.uniform(0.5, 0.85))
            verts = sorted(cand.vertices)
            t_verts = frozenset(rng.sample(verts, rng.randint(2, t)))
            pool = [v for v in verts if v not in t_verts]
            if len(pool) < 2 * t + 1:
                continue
            z = frozenset(rng.sample(pool, 2 * t + 1))
            try:
                marked = tw_reduction_set(cand, t, t_verts, z)
            except InputError:
                continue  # the draw missed the linkage precondition
            instance = (cand, t_verts, z, marked)
            break
        seed += 1
        if instance is None:
            continue
        built += 1
        by_t[t] += 1
        g, t_verts, z, marked = instance
        adj = adjacency(g)
        unmarked = z - marked
        others = sorted(set(g.vertices) - t_verts)
        n_parts = 0
        for partition in all_partitions(sorted(t_verts)):
            n_parts += 1
            for size in range(1, t + 1):
                for comb in itertools.combinations(others, size):
                    s = frozenset(comb)
                    if s & unmarked:
                        assert not oracle_is_minimal_cut(adj, partition, s), (
                            seed - 1,
                            sorted(map(sorted, partition)),
                            sorted(s),
                        )
        assert len(marked) <= n_parts * (16 ** t) * 2 * t
    assert built >= 100
    assert min(by_t.values()) >= 30  # both t values well represented


def irrelevant_fixtures():
    """Separations with a clean clique side holding a well-linked Z and a
    non-null far side, across groups and boundary orders."""

    def clique(lo, hi, label=0):
        return [(u, v, label) for u in range(lo, hi) for v in range(u + 1, hi)]

    base7 = clique(0, 7)
    sep7 = Separation(frozenset(range(7)), frozenset({0, 1, 7}))
    z7 = frozenset(range(2, 7))
    e3 = (1, 2, 3)
    out = [
        ("k7-z2-loop",
         build_graph(Z2, 8, base7 + [(0, 7, 0), (1, 7, 0), (7, 7, 1)]),
         sep7, z7, 2),
        ("k7-z2-pair",
         build_graph(Z2, 9, base7 + [(0, 7, 0), (1, 8, 0), (7, 8, 0), (7, 8, 1)]),
         Separation(frozenset(range(7)), frozenset({0, 1, 7, 8})), z7, 2),
        ("k7-z3-loop",
         build_graph(Z3, 8, base7 + [(0, 7, 0), (1, 7, 0), (7, 7, 1)]),
         sep7, z7, 2),
        ("k7-s3-loop",
         build_graph(S3, 8, clique(0, 7, e3) + [(0, 7, e3), (1, 7, e3), (7, 7, (2, 1, 3))]),
         sep7, z7, 2),
        ("k8-z2-loop",
         build_graph(Z2, 9, clique(0, 8) + [(0, 8, 0), (1, 8, 0), (8, 8, 1)]),
         Separation(frozenset(range(8)), frozenset({0, 1, 8})), frozenset(range(2, 8)), 2),
        # a clean appendix inside A but outside Z
        ("k7-appendix",
         build_graph(Z2, 9, base7 + [(2, 7, 0), (3, 7, 0), (0, 8, 0), (1, 8, 0), (8, 8, 1)]),
         Separation(frozenset(range(8)), frozenset({0, 1, 8})), z7, 2),
    ]
    # boundary of order three in front of a K7-shaped Z
    attach = [(0, 3, 0), (0, 4, 0), (1, 5, 0), (1, 6, 0), (2, 7, 0), (2, 8, 0)]
    sep3 = Separation(frozenset(range(10)), frozenset({0, 1, 2, 10}))
    z3_set = frozenset(range(3, 10))
    out.append((
        "x3-z2",
        build_graph(Z2, 11, clique(3, 10) + attach
                    + [(0, 10, 0), (1, 10, 0), (2, 10, 0), (10, 10, 1)]),
        sep3, z3_set, 3))
    out.append((
        "x3-z3",
        build_graph(Z3, 11, clique(3, 10) + attach
                    + [(0, 10, 0), (1, 10, 0), (2, 10, 0), (10, 10, 2)]),
        sep3, z3_set, 3))
    return out


def test_criterion_5_irrelevant_vertex_preserves_predicate():
    """Deleting a reported vertex never makes the packing-or-cover
    predicate true where it was false: checked for every budget p up to
    |V| at k in {1, 2}, via the exact oracle on both graphs.

    The predicate is `ep_predicate`'s definition: a half-integral packing
    of k non-null cycles, or a cover of at most p vertices. Neither part
    depends on p, so each is computed once per graph and k, and the
    implication is checked for every budget."""
    for name, g, sep, z, p in irrelevant_fixtures():
        cover = len(min_gfvs(g))
        for k in (1, 2):
            v = find_irrelevant_vertex(g, sep, z, p, k)
            assert v in z, name
            g_minus = g.delete_vertices({v})
            packs = len(max_packing(g, 2, stop_at=k)) >= k
            packs_minus = len(max_packing(g_minus, 2, stop_at=k)) >= k
            cover_minus = len(min_gfvs(g_minus))
            for budget in range(g.n + 1):
                if packs_minus or cover_minus <= budget:
                    assert packs or cover <= budget, (name, k, budget)


def oracle_s_path_family(g, s):
    """Each non-null path between two S-vertices with interior outside S,
    as (vertex set, sorted arc ids), enumerated through networkx."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(g.vertices)
    for a in g.arcs:
        if not a.is_loop:
            mg.add_edge(a.tail, a.head, key=a.id)
    s_set = set(s)
    family = []
    for u, v in itertools.combinations(sorted(s_set), 2):
        for epath in nx.all_simple_edge_paths(mg, u, v):
            cur, seq, value, arc_ids = u, [u], None, []
            for _, _, key in epath:
                arc = g.arc(key)
                nxt = arc.other(cur)
                lab = arc.label if arc.tail == cur else inverse(arc.label)
                value = lab if value is None else multiply(value, lab)
                arc_ids.append(arc.id)
                seq.append(nxt)
                cur = nxt
            if any(w in s_set for w in seq[1:-1]) or is_identity(value):
                continue
            family.append((frozenset(seq), tuple(sorted(arc_ids))))
    return family


def oracle_max_disjoint(family):
    best = 0

    def go(i, used, count):
        nonlocal best
        best = max(best, count)
        if i == len(family) or count + (len(family) - i) <= best:
            return
        vs, _ = family[i]
        if not (vs & used):
            go(i + 1, used | vs, count + 1)
        go(i + 1, used, count)

    go(0, frozenset(), 0)
    return best


def test_criterion_6_s_path_duality_exact():
    """Exactly one side comes back; the paths side fires precisely when the
    oracle packs k disjoint paths, and hitting sets of size <= 2k-2 meet
    every oracle-enumerated non-null S-path."""
    for seed in range(72):
        rng = random.Random(41_000 + seed)
        n = 4 + seed % 7
        g = random_instance(n, rng.randrange(n, 2 * n + 3), GROUPS[seed % 4],
                            seed=42_000 + seed)
        s = frozenset(rng.sample(sorted(g.vertices), rng.randrange(2, min(5, n + 1))))
        family = oracle_s_path_family(g, s)
        nu = oracle_max_disjoint(family)
        for k in (1, 2, 3):
            result = non_null_s_paths_or_hitting_set(g, s, k)
            assert (result.paths is None) != (result.hitting_set is None)
            if nu >= k:
                assert result.paths is not None, (seed, k)
                assert len(result.paths) == k
                ids = {tuple(sorted(step[0] for step in w.steps)) for w in result.paths}
                assert ids <= {arcs for _, arcs in family}, (seed, k)
                vsets = [set(walk_vertices(g, w)) for w in result.paths]
                for a, b in itertools.combinations(range(k), 2):
                    assert not (vsets[a] & vsets[b]), (seed, k)
            else:
                assert result.hitting_set is not None, (seed, k)
                x = set(result.hitting_set)
                assert len(x) <= 2 * k - 2, (seed, k)
                assert all(vs & x for vs, _ in family), (seed, k)


def test_criterion_7_untangling_preserves_non_null_cycles():
    """Relabeling around a clean area keeps the graph structure, makes the
    area's arcs identity, and leaves the non-null cycle set untouched."""
    for seed in range(210):
        rng = random.Random(52_000 + seed)
        n = 3 + seed % 5
        g = random_instance(n, rng.randrange(n, 2 * n + 3), GROUPS[seed % 4],
                            seed=53_000 + seed)
        area = rng.sample(sorted(g.vertices), rng.randrange(0, n + 1))
        while not is_clean(g, area):
            area.pop(rng.randrange(len(area)))
        h = untangle(g, area)
        area_set = set(area)
        assert {(a.id, a.tail, a.head) for a in g.arcs} == {
            (a.id, a.tail, a.head) for a in h.arcs
        }
        for a in h.arcs:
            if a.tail in area_set and a.head in area_set:
                assert is_identity(a.label), (seed, a.id)
        before = {tuple(sorted(c.steps)) for c in enumerate_non_null_cycles(g)}
        after = {tuple(sorted(c.steps)) for c in enumerate_non_null_cycles(h)}
        assert before == after, seed


def test_criterion_8_escher_wall_integrality_gap():
    """The wall family separates integral from half-integral packing: the
    reason the main theorem cannot promise vertex-disjoint cycles."""
    g = escher_wall(2)
    integral = len(max_packing(g, 1))
    half = len(max_packing(g, 2))
    cover = len(min_gfvs(g))
    assert integral < half or cover > 2 * integral
    assert integral < half  # the branch this family actually exhibits


def test_criterion_9_group_laws_exhaustive():
    """Closure, associativity, identity, and inverses over every element
    (pair, triple) of the cyclic groups to order 12, the symmetric groups
    to degree 4, and two direct products."""
    specs = [Cyclic(m) for m in range(1, 13)]
    specs += [Symmetric(r) for r in (2, 3, 4)]
    specs += [Product((Cyclic(2), Cyclic(3))), Product((Cyclic(4), Symmetric(3)))]
    for spec in specs:
        els = list(elements(spec))
        seen = set(els)
        assert len(seen) == len(els)
        e = identity(spec)
        assert e in seen
        for a in els:
            assert multiply(e, a) == a and multiply(a, e) == a
            inv = inverse(a)
            assert inv in seen
            assert multiply(a, inv) == e and multiply(inv, a) == e
        for a in els:
            for b in els:
                assert multiply(a, b) in seen
        for a in els:
            for b in els:
                for c in els:
                    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
