"""The shared searches against reference copies of per-caller routines.

`oracle.simple_paths` serves cycle enumeration and S-path enumeration;
`oracle.min_hitting_set` serves `min_gfvs` and the S-path duality;
`graph.reach` serves components and the cut routines. The reference
functions below are self-contained searches written for each
caller. The package must reproduce them step for step, not merely as sets:
S-path order feeds `_max_disjoint_indices`, and the first cycle direction
found is the one a certificate prints.
"""

import random

import networkx as nx

from epkit.graph import (
    FORWARD,
    REVERSE,
    Walk,
    build_graph,
    canonical_cycle,
    reach,
    walk_value,
    walk_vertices,
)
from epkit.groups import (
    Cyclic,
    Symmetric,
    elements,
    is_identity,
)
from epkit.oracle import enumerate_cycles, min_gfvs, min_hitting_set, simple_paths
from epkit.packing import (
    _max_disjoint_indices,
    enumerate_non_null_s_paths,
    non_null_s_paths_or_hitting_set,
)

GROUPS = (Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3))


def instance(seed):
    """A graph on at most 9 vertices with loops and parallel arcs."""
    rng = random.Random(seed)
    spec = GROUPS[seed % len(GROUPS)]
    els = list(elements(spec))
    n = rng.randint(2, 9)
    arcs = []
    for _ in range(rng.randint(n, n + 5)):
        roll = rng.random()
        if roll < 0.1:
            u = v = rng.randrange(n)
        elif roll < 0.25 and arcs:
            u, v, _ = rng.choice(arcs)
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, v = rng.randrange(n), rng.randrange(n)
        arcs.append((u, v, rng.choice(els)))
    return build_graph(spec, n, arcs)


SEEDS = range(160)


def test_instances_have_loops_and_parallel_arcs():
    graphs = [instance(seed) for seed in SEEDS]
    assert sum(any(a.is_loop for a in g.arcs) for g in graphs) > 20
    assert sum(
        len({frozenset((a.tail, a.head)) for a in g.arcs if not a.is_loop})
        < sum(1 for a in g.arcs if not a.is_loop)
        for g in graphs
    ) > 20
    assert {g.group for g in graphs} == set(GROUPS)


# Reference searches ---------------------------------------------------------

def reference_cycle_closings(g):
    """Every closed walk the cycle DFS emits, in emission order."""
    out = []
    for s in g.vertices:
        def dfs(v, visited, steps):
            for arc in g.incident(v):
                if arc.is_loop:
                    continue
                w = arc.other(v)
                direction = FORWARD if arc.tail == v else REVERSE
                if w == s and steps:
                    if len(steps) == 1 and steps[0][0] == arc.id:
                        continue
                    out.append(Walk(steps + ((arc.id, direction),)))
                elif w > s and w not in visited:
                    dfs(w, visited | {w}, steps + ((arc.id, direction),))

        dfs(s, frozenset([s]), ())
    return out


def reference_enumerate_cycles(g):
    seen = set()
    out = []
    walks = [Walk(((a.id, FORWARD),)) for a in g.arcs if a.is_loop]
    for walk in walks + reference_cycle_closings(g):
        canon = canonical_cycle(g, walk)
        if canon not in seen:
            seen.add(canon)
            out.append(walk)
    out.sort(key=lambda wlk: canonical_cycle(g, wlk))
    return out


def reference_s_paths(g, s_set):
    out = []

    def dfs(start, v, visited, steps):
        for arc in g.incident(v):
            if arc.is_loop:
                continue
            w = arc.other(v)
            direction = FORWARD if arc.tail == v else REVERSE
            if w in s_set:
                if w > start:
                    walk = Walk(steps + ((arc.id, direction),))
                    if not is_identity(walk_value(g, walk)):
                        out.append(walk)
            elif w not in visited:
                dfs(start, w, visited | {w}, steps + ((arc.id, direction),))

    for start in sorted(s_set):
        dfs(start, start, frozenset([start]), ())
    return out


def reference_min_gfvs(g):
    """Iterative deepening without a cap over the non-null cycles."""
    sets = [
        frozenset(walk_vertices(g, w)[:-1])
        for w in reference_enumerate_cycles(g)
        if not is_identity(walk_value(g, w))
    ]

    def search(chosen, budget):
        unhit = next((cs for cs in sets if not (cs & chosen)), None)
        if unhit is None:
            return chosen
        if budget == 0:
            return None
        for v in sorted(unhit):
            found = search(chosen | {v}, budget - 1)
            if found is not None:
                return found
        return None

    size = 0
    while True:
        found = search(frozenset(), size)
        if found is not None:
            return sorted(found)
        size += 1


def reference_min_hitting_set(vertex_sets, cap):
    def hit(depth, chosen):
        unhit = next((vs for vs in vertex_sets if not (vs & chosen)), None)
        if unhit is None:
            return chosen
        if depth == 0:
            return None
        for v in sorted(unhit):
            found = hit(depth - 1, chosen | {v})
            if found is not None:
                return found
        return None

    for depth in range(cap + 1):
        found = hit(depth, frozenset())
        if found is not None:
            return tuple(sorted(found))
    return None


# One simple-path enumerator ---------------------------------------------------

class TestSimplePaths:
    def test_emission_order_matches_cycle_dfs(self):
        for seed in SEEDS:
            g = instance(seed)
            got = []

            def close(_end, steps):
                if not (len(steps) == 2 and steps[0][0] == steps[1][0]):
                    got.append(Walk(steps))
                return False

            below = []
            for s in g.vertices:
                simple_paths(g, s, {s}, below, close)
                below.append(s)
            assert got == reference_cycle_closings(g), seed

    def test_stops_when_emit_says_so(self):
        square = build_graph(Cyclic(2), 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
        for stop in (False, True):
            emitted = []

            def emit(end, steps):
                emitted.append((end, steps))
                return stop

            assert simple_paths(square, 0, {2}, (), emit) is stop
            both = [(2, ((0, FORWARD), (1, FORWARD))), (2, ((3, REVERSE), (2, REVERSE)))]
            assert emitted == (both[:1] if stop else both)

    def test_enumerate_cycles(self):
        for seed in SEEDS:
            g = instance(seed)
            assert enumerate_cycles(g) == reference_enumerate_cycles(g), seed

    def test_enumerate_non_null_s_paths(self):
        for seed in SEEDS:
            g = instance(seed)
            rng = random.Random(seed)
            s_set = frozenset(rng.sample(g.vertices, rng.randint(2, g.n)))
            assert enumerate_non_null_s_paths(g, s_set) == reference_s_paths(
                g, s_set
            ), seed


# One hitting-set search ---------------------------------------------------------

class TestMinHittingSet:
    def test_min_gfvs(self):
        for seed in SEEDS:
            g = instance(seed)
            assert min_gfvs(g) == reference_min_gfvs(g), seed

    def test_random_families_with_caps(self):
        for seed in range(300):
            rng = random.Random(seed)
            universe = range(rng.randint(1, 8))
            family = [
                frozenset(rng.sample(universe, rng.randint(1, len(universe))))
                for _ in range(rng.randint(0, 7))
            ]
            for cap in range(4):
                assert min_hitting_set(family, cap) == reference_min_hitting_set(
                    family, cap
                ), (seed, cap)

    def test_s_path_duality(self):
        for seed in SEEDS:
            g = instance(seed)
            rng = random.Random(seed)
            s_set = frozenset(rng.sample(g.vertices, rng.randint(2, g.n)))
            paths = reference_s_paths(g, s_set)
            sets = [frozenset(walk_vertices(g, p)) for p in paths]
            for k in (1, 2, 3):
                result = non_null_s_paths_or_hitting_set(g, s_set, k)
                chosen = _max_disjoint_indices(sets, k)
                if len(chosen) >= k:
                    assert result.paths == tuple(paths[i] for i in chosen[:k])
                else:
                    assert result.hitting_set == reference_min_hitting_set(
                        sets, 2 * k - 2
                    ), (seed, k)


# One reach routine -------------------------------------------------------------

def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((a.tail, a.head) for a in g.arcs if not a.is_loop)
    return h


class TestReach:
    def test_matches_networkx_components(self):
        for seed in SEEDS:
            g = instance(seed)
            adj, h = g.simple_adjacency(), nx_graph(g)
            for v in g.vertices:
                assert reach(adj, [v]) == nx.node_connected_component(h, v), seed

    def test_removed_vertices(self):
        for seed in SEEDS:
            g = instance(seed)
            rng = random.Random(seed)
            removed = frozenset(rng.sample(g.vertices, rng.randint(0, g.n - 1)))
            starts = rng.sample(g.vertices, rng.randint(1, g.n))
            h = nx_graph(g)
            h.remove_nodes_from(removed)
            expected = set()
            for v in starts:
                if v not in removed:
                    expected |= nx.node_connected_component(h, v)
            assert reach(g.simple_adjacency(), starts, removed) == expected, seed

    def test_connected_components(self):
        for seed in SEEDS:
            g = instance(seed)
            comps = g.connected_components()
            assert sorted(map(sorted, comps)) == sorted(
                map(sorted, nx.connected_components(nx_graph(g)))
            )
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)
