import itertools
import random

import pytest

import epkit.cuts
from epkit.cuts import (
    enumerate_important_separators,
    find_irrelevant_vertex,
    max_disjoint_paths,
    tw_reduction_set,
    verify_well_linked,
)
from epkit.errors import InputError
from epkit.graph import Separation, build_graph
from epkit.groups import Cyclic
from epkit.oracle import ep_predicate, max_packing, min_gfvs

Z2 = Cyclic(2)


def plain(n, edges, vertices=None):
    """Unlabeled test graph: everything here ignores labels."""
    return build_graph(Z2, vertices if vertices is not None else n,
                       [(u, v, 0) for u, v in edges])


def random_plain(seed, n, p_edge):
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p_edge
    ]
    return plain(n, edges)


# Independent oracle helpers; adjacency built straight from the arc list.

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


def oracle_separators(g, x, y, k):
    """All X-Y separators of size at most k, by subset enumeration."""
    adj = adjacency(g)
    others = sorted(set(g.vertices) - x - y)
    found = []
    for size in range(0, k + 1):
        for comb in itertools.combinations(others, size):
            s = frozenset(comb)
            if not (bfs_reach(adj, x, s) & y):
                found.append(s)
    return found


def oracle_important(g, x, y, k):
    adj = adjacency(g)
    seps = oracle_separators(g, x, y, k)
    out = set()
    for s in seps:
        proper_subsets = (
            frozenset(sub)
            for r in range(len(s))
            for sub in itertools.combinations(sorted(s), r)
        )
        if any(not (bfs_reach(adj, x, sub) & y) for sub in proper_subsets):
            continue  # not inclusion-minimal
        r_s = bfs_reach(adj, x, s)
        if any(
            len(s2) <= len(s) and bfs_reach(adj, x, s2) > r_s
            for s2 in seps
            if s2 != s
        ):
            continue  # dominated
        out.add(s)
    return out


def oracle_inseparable(g, x, y):
    adj = adjacency(g)
    everything = frozenset(g.vertices) - x - y
    return bool(bfs_reach(adj, x, everything) & y)


def oracle_max_disjoint_paths(g, a, b):
    """Backtracking over explicit path families. Paths touch the source set
    only at their start and stop at the first target vertex they reach, which
    loses no generality for the maximum."""
    adj = adjacency(g)
    a_sorted, b_set = sorted(a), set(b)

    def paths_from(s, used):
        if s in used:
            return
        if s in b_set:
            yield (s,)
            return
        stack = [(s, (s,))]
        avoid = used | (set(a_sorted) - {s})
        while stack:
            v, path = stack.pop()
            for w in adj[v]:
                if w in avoid or w in path:
                    continue
                if w in b_set:
                    yield path + (w,)
                else:
                    stack.append((w, path + (w,)))

    def best_from(idx, used):
        if idx == len(a_sorted):
            return 0
        score = best_from(idx + 1, used)
        for path in paths_from(a_sorted[idx], used):
            if not (set(path) & used):
                score = max(score, 1 + best_from(idx + 1, used | set(path)))
        return score

    return best_from(0, set())


class TestMaxDisjointPaths:
    def test_path_graph(self):
        g = plain(3, [(0, 1), (1, 2)])
        assert max_disjoint_paths(g, {0}, {2}) == 1

    def test_clique_two_sources(self):
        g = plain(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert max_disjoint_paths(g, {0, 1}, {2, 3}) == 2

    def test_shared_vertex_is_a_path(self):
        g = plain(3, [(0, 1)])
        assert max_disjoint_paths(g, {0, 2}, {2}) == 1
        assert max_disjoint_paths(g, {0, 2}, {1, 2}) == 2

    def test_bottleneck(self):
        # two triangles joined through one middle vertex
        g = plain(5, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 1), (3, 4)])
        assert max_disjoint_paths(g, {0, 1}, {3, 4}) == 1

    def test_empty_side(self):
        g = plain(2, [(0, 1)])
        assert max_disjoint_paths(g, set(), {0}) == 0

    def test_unknown_vertex(self):
        g = plain(2, [(0, 1)])
        with pytest.raises(InputError):
            max_disjoint_paths(g, {0}, {5})

    def test_matches_backtracking_oracle(self):
        rng = random.Random(4242)
        for seed in range(40):
            g = random_plain(seed, 7, rng.uniform(0.25, 0.7))
            verts = list(g.vertices)
            a = set(rng.sample(verts, rng.randint(1, 3)))
            b = set(rng.sample(verts, rng.randint(1, 3)))
            assert max_disjoint_paths(g, a, b) == oracle_max_disjoint_paths(g, a, b), (
                seed, sorted(a), sorted(b))


class TestImportantSeparators:
    def test_single_middle_vertex(self):
        g = plain(3, [(0, 1), (1, 2)])
        result = enumerate_important_separators(g, {0}, {2}, 1)
        assert not result.inseparable
        assert [imp.separator for imp in result] == [frozenset({1})]
        assert result[0].reach == frozenset({0})

    def test_adjacent_pair_inseparable(self):
        g = plain(3, [(0, 1), (0, 2), (1, 2)])
        result = enumerate_important_separators(g, {0}, {1}, 3)
        assert result.inseparable
        assert len(result) == 0

    def test_already_separated(self):
        g = plain(4, [(0, 1), (2, 3)])
        result = enumerate_important_separators(g, {0}, {3}, 2)
        assert not result.inseparable
        assert [imp.separator for imp in result] == [frozenset()]
        assert result[0].reach == frozenset({0, 1})

    def test_long_path_keeps_only_closest(self):
        # on a path every singleton separates; only the one next to Y
        # has maximal reach, the rest are dominated
        g = plain(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        result = enumerate_important_separators(g, {0}, {4}, 2)
        assert [imp.separator for imp in result] == [frozenset({3})]

    def test_clique_interior(self):
        g = plain(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                      if (u, v) != (0, 4)])
        assert len(enumerate_important_separators(g, {0}, {4}, 2)) == 0
        result = enumerate_important_separators(g, {0}, {4}, 3)
        assert [imp.separator for imp in result] == [frozenset({1, 2, 3})]

    def test_overlapping_sides_rejected(self):
        g = plain(2, [(0, 1)])
        with pytest.raises(InputError):
            enumerate_important_separators(g, {0}, {0, 1}, 1)

    def test_negative_budget_rejected(self):
        g = plain(2, [])
        with pytest.raises(InputError):
            enumerate_important_separators(g, {0}, {1}, -1)

    def test_matches_subset_oracle(self):
        rng = random.Random(99)
        checked = 0
        for seed in range(60):
            n = rng.randint(4, 9)
            g = random_plain(1000 + seed, n, rng.uniform(0.2, 0.7))
            verts = list(g.vertices)
            x = frozenset(rng.sample(verts, rng.randint(1, 2)))
            rest = [v for v in verts if v not in x]
            if not rest:
                continue
            y = frozenset(rng.sample(rest, rng.randint(1, 2)))
            k = rng.randint(0, 3)
            result = enumerate_important_separators(g, x, y, k)
            assert result.inseparable == oracle_inseparable(g, x, y)
            got = {imp.separator for imp in result}
            assert got == oracle_important(g, x, y, k) if not result.inseparable else not got
            assert len(result) <= 4 ** k
            adj = adjacency(g)
            for imp in result:
                assert imp.reach == frozenset(bfs_reach(adj, x, imp.separator))
            checked += 1
        assert checked >= 50

    def test_deterministic_order(self):
        g = random_plain(7, 8, 0.4)
        a = enumerate_important_separators(g, {0}, {7}, 3)
        b = enumerate_important_separators(g, {0}, {7}, 3)
        assert [imp.separator for imp in a] == [imp.separator for imp in b]
        sizes = [len(imp.separator) for imp in a]
        assert sizes == sorted(sizes)


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


def all_partitions(items):
    """Every partition with at least two parts, recursively (first item
    joins each existing block or opens a new one)."""
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


class TestWellLinked:
    def test_clique_fully_linked(self):
        g = plain(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        w = verify_well_linked(g, range(6), 3)
        assert w.linked and w.failure is None

    def test_star_leaves_not_two_linked(self):
        # four leaves so that two disjoint 2-subsets exist; both of their
        # paths would need the center
        g = plain(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        w = verify_well_linked(g, {1, 2, 3, 4}, 2)
        assert not w.linked
        a, b = w.failure
        assert len(a) == len(b) == 2

    def test_three_leaves_are_two_linked(self):
        # any two 2-subsets of three leaves share a vertex, which counts as
        # a zero-length path, so the star center suffices
        g = plain(4, [(0, 1), (0, 2), (0, 3)])
        assert verify_well_linked(g, {1, 2, 3}, 2).linked

    def test_single_vertex_check(self):
        g = plain(3, [(0, 1)])
        assert verify_well_linked(g, {0, 2}, 1).linked is False
        assert verify_well_linked(g, {0, 1}, 1).linked is True

    def test_matches_flow_against_oracle(self):
        rng = random.Random(55)
        for seed in range(12):
            g = random_plain(3000 + seed, 6, rng.uniform(0.3, 0.8))
            z = set(rng.sample(list(g.vertices), 4))
            w = verify_well_linked(g, z, 2)
            expected = all(
                oracle_max_disjoint_paths(g, set(a), set(b)) >= size
                for size in (1, 2)
                for a in itertools.combinations(sorted(z), size)
                for b in itertools.combinations(sorted(z), size)
            )
            assert w.linked == expected, seed

    def test_matches_all_ordered_pairs(self):
        outcomes = set()
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(5, 10)
            g = random_plain(6000 + seed, n, rng.uniform(0.2, 0.8))
            z = set(rng.sample(list(g.vertices), rng.randint(2, n)))
            p = rng.randint(1, 3)
            w = verify_well_linked(g, z, p)
            assert (w.linked, w.failure) == all_ordered_pairs_well_linked(g, z, p), seed
            outcomes.add(w.linked)
        assert outcomes == {True, False}
        # the gated instance's shape: |Z| 7-8 at p = 3. One network serves
        # every pair, so these seeds are the ones that flow hundreds of
        # pairs before the answer: two are linked, and four fail only at
        # size 3, past pair 300 of 1540 in combination order. A capacity
        # left over from one pair changes a later pair's answer.
        for seed, linked in ((0, True), (1, True), (8, False), (31, False),
                             (137, False), (172, False)):
            rng = random.Random(seed)
            n = rng.randint(9, 12)
            g = random_plain(9000 + seed, n, rng.uniform(0.4, 0.8))
            z = set(rng.sample(list(g.vertices), rng.randint(7, 8)))
            w = verify_well_linked(g, z, 3)
            assert (w.linked, w.failure) == all_ordered_pairs_well_linked(g, z, 3), seed
            assert w.linked == linked, seed
            if not linked:
                assert len(w.failure[0]) == 3, seed


def all_ordered_pairs_well_linked(g, z, p):
    """The definition: a flow for every ordered pair of equal-size subsets,
    stopping at the first pair that lacks a linkage."""
    for size in range(1, min(p, len(z)) + 1):
        for a in itertools.combinations(sorted(z), size):
            for b in itertools.combinations(sorted(z), size):
                if max_disjoint_paths(g, a, b) < size:
                    return False, (frozenset(a), frozenset(b))
    return True, None


def dense_linked_instance(seed, t, n_range=(8, 12)):
    """Random dense graph with terminals and a Z that passes the reduction
    preconditions; retries until one does."""
    rng = random.Random(seed)
    for attempt in range(400):
        n = rng.randint(*n_range)
        g = random_plain(seed * 1000 + attempt, n, rng.uniform(0.5, 0.85))
        verts = list(g.vertices)
        t_verts = frozenset(rng.sample(verts, rng.randint(2, t)))
        pool = [v for v in verts if v not in t_verts]
        if len(pool) < 2 * t + 1:
            continue
        z = frozenset(rng.sample(pool, 2 * t + 1))
        try:
            marked = tw_reduction_set(g, t, t_verts, z)
        except InputError:
            continue
        return g, t_verts, z, marked
    raise AssertionError(f"no valid instance found for seed {seed}")


class TestTwReduction:
    def test_precondition_messages_name_the_failure(self):
        g = plain(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        with pytest.raises(InputError, match="t must be at least 2"):
            tw_reduction_set(g, 1, {0}, {2, 3, 4})
        with pytest.raises(InputError, match="terminal set larger"):
            tw_reduction_set(g, 2, {0, 1, 2}, {3, 4, 5})
        with pytest.raises(InputError, match="intersects"):
            tw_reduction_set(g, 2, {0, 1}, {1, 2, 3, 4, 5})
        with pytest.raises(InputError, match="below 2t\\+1"):
            tw_reduction_set(g, 2, {0, 1}, {2, 3, 4})

    def test_not_linked_rejected(self):
        # Z spread over a path is far from (t+1)-linked
        g = plain(12, [(i, i + 1) for i in range(11)])
        with pytest.raises(InputError, match="not well-linked"):
            tw_reduction_set(g, 2, {0, 11}, {2, 4, 6, 8, 10})

    def test_clique_far_from_small_cuts(self):
        g = plain(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        assert tw_reduction_set(g, 2, {0, 1}, {2, 3, 4, 5, 6}) == frozenset()

    def test_soundness_against_exhaustive_cuts(self):
        # acceptance runs this wider; here a fast slice for both t values
        for t, seeds in ((2, range(8)), (3, range(4))):
            for seed in seeds:
                g, t_verts, z, marked = dense_linked_instance(seed, t)
                adj = adjacency(g)
                others = sorted(set(g.vertices) - t_verts)
                safe = z - marked
                for partition in all_partitions(sorted(t_verts)):
                    for size in range(0, t + 1):
                        for comb in itertools.combinations(others, size):
                            s = frozenset(comb)
                            if not (s & safe):
                                continue
                            assert not oracle_is_minimal_cut(adj, partition, s), (
                                t, seed, sorted(s), sorted(safe))

    def test_marked_set_inside_z(self):
        g, t_verts, z, marked = dense_linked_instance(77, 2)
        assert marked <= z

    def test_cut_vertex_between_both_terminals_is_marked(self):
        # both terminals hang off vertex 2, so {2} is a minimal multiway cut
        # and 2 belongs to every terminal separator but to no reach set;
        # marking only reach sets would miss it
        edges = [(u, w) for u in range(2, 9) for w in range(u + 1, 9)]
        edges += [(0, 2), (1, 2)]
        g = plain(9, edges)
        marked = tw_reduction_set(g, 2, {0, 1}, {2, 3, 4, 5, 6})
        assert 2 in marked

    def test_deterministic(self):
        g, t_verts, z, marked = dense_linked_instance(5, 2)
        assert tw_reduction_set(g, 2, t_verts, z) == marked


def clean_side_instance(extra_edges=(), z_labels=None):
    """Separation with A = {0..6} a clean identity-labeled clique holding
    Z = {2..6}, boundary X = {0,1}, and a non-null lollipop on the B side."""
    arcs = [(u, v, 0) for u in range(7) for v in range(u + 1, 7)]
    arcs += [(0, 7, 0), (1, 7, 0), (7, 7, 1)]
    arcs += list(extra_edges)
    g = build_graph(Z2, 8, arcs)
    sep = Separation(frozenset(range(7)), frozenset({0, 1, 7}))
    return g, sep, frozenset(range(2, 7))


class TestFindIrrelevantVertex:
    def test_returns_vertex_and_keeps_oracle_values(self):
        g, sep, z = clean_side_instance()
        v = find_irrelevant_vertex(g, sep, z, 2, 1)
        assert v in z
        g_minus = g.delete_vertices({v})
        assert min_gfvs(g) == min_gfvs(g_minus)
        assert len(max_packing(g, 2)) == len(max_packing(g_minus, 2))
        for k in (1, 2):
            for p in range(g.n + 1):
                if ep_predicate(g_minus, k, p):
                    assert ep_predicate(g, k, p)

    def test_disconnected_boundary_gives_lowest_id(self):
        # X = {0,1} has no connection to the Z-clique inside A
        arcs = [(u, v, 0) for u in range(2, 7) for v in range(u + 1, 7)]
        arcs += [(0, 1, 0), (0, 7, 0), (1, 7, 0), (7, 7, 1)]
        g = build_graph(Z2, 8, arcs)
        sep = Separation(frozenset(range(7)), frozenset({0, 1, 7}))
        assert find_irrelevant_vertex(g, sep, frozenset(range(2, 7)), 2, 1) == 2

    def test_precondition_errors(self):
        g, sep, z = clean_side_instance()
        with pytest.raises(InputError, match="k must be positive"):
            find_irrelevant_vertex(g, sep, z, 2, 0)
        with pytest.raises(InputError, match="separator order"):
            find_irrelevant_vertex(g, sep, z, 1, 1)
        with pytest.raises(InputError, match="avoid B"):
            find_irrelevant_vertex(g, sep, z | {7}, 2, 1)
        with pytest.raises(InputError, match="below 2p\\+1"):
            find_irrelevant_vertex(g, sep, frozenset({2, 3, 4}), 2, 1)

    def test_non_clean_side_rejected(self):
        g, sep, z = clean_side_instance(extra_edges=[(2, 3, 1)])
        with pytest.raises(InputError, match="not clean"):
            find_irrelevant_vertex(g, sep, z, 2, 1)

    def test_unlinked_z_rejected(self):
        # A holds two cliques touching only at the boundary edge 0-1,
        # so Z straddling them is not even 2-linked inside A
        arcs = [(u, v, 0) for u in (0, 2, 3) for v in (0, 2, 3) if u < v]
        arcs += [(u, v, 0) for u in (1, 4, 5, 6) for v in (1, 4, 5, 6) if u < v]
        arcs += [(0, 1, 0), (0, 7, 0), (1, 7, 0), (7, 7, 1)]
        g = build_graph(Z2, 8, arcs)
        sep = Separation(frozenset(range(7)), frozenset({0, 1, 7}))
        with pytest.raises(InputError, match="not well-linked"):
            find_irrelevant_vertex(g, sep, frozenset(range(2, 7)), 2, 1)

    def test_marking_reads_a_side_minus_dropped_boundary(self, monkeypatch):
        # boundary {0, 1, 2}: every kept subset of two or three is marked on
        # the A side with the rest of the boundary deleted
        arcs = [(u, v, 0) for u in range(10) for v in range(u + 1, 10)]
        arcs += [(0, 10, 0), (1, 10, 0), (2, 10, 0), (10, 10, 1)]
        g = build_graph(Z2, 11, arcs)
        sep = Separation(frozenset(range(10)), frozenset({0, 1, 2, 10}))
        z = frozenset(range(3, 10))
        calls = []
        real = epkit.cuts._marking_set

        def spy(adj, t, kept, z_set):
            marked = real(adj, t, kept, z_set)
            calls.append((adj, kept, marked))
            return marked

        monkeypatch.setattr(epkit.cuts, "_marking_set", spy)
        v = find_irrelevant_vertex(g, sep, z, 3, 1)
        g_a = g.induced_subgraph(sep.a)
        for adj, kept, marked in calls:
            want = g_a.delete_vertices(sep.boundary - kept).simple_adjacency()
            assert adj == want and list(adj) == list(want)
            assert marked == real(want, len(kept), kept, z)
        assert [sorted(kept) for _, kept, _ in calls] == [[0, 1], [0, 2], [1, 2], [0, 1, 2]]
        assert v == min(z - frozenset().union(*(m for _, _, m in calls)))

    def test_deterministic(self):
        g, sep, z = clean_side_instance()
        assert find_irrelevant_vertex(g, sep, z, 2, 1) == find_irrelevant_vertex(
            g, sep, z, 2, 1
        )
