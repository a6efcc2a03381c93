"""The exhaustive oracle, cross-checked against a second implementation.

The independent cycle counter walks over arc subsets: a subset forms a simple
cycle exactly when every touched vertex has degree two (loops counting twice)
and the touched arcs are connected. That has nothing in common with the DFS
in the package, so agreement is meaningful.
"""

import itertools
import random

import pytest

from epkit.errors import GuardExceeded, InputError
from epkit.graph import build_graph, walk_value, walk_vertices
from epkit.groups import Cyclic, Symmetric, elements, is_identity
from epkit.oracle import (
    OracleGuards,
    enumerate_cycles,
    enumerate_non_null_cycles,
    ep_predicate,
    max_packing,
    min_gfvs,
)


def random_graph(seed, n, m, spec):
    rng = random.Random(seed)
    els = list(elements(spec))
    arcs = []
    for _ in range(m):
        arcs.append((rng.randrange(n), rng.randrange(n), rng.choice(els)))
    return build_graph(spec, n, arcs)


def subset_cycle_count(g):
    """Count simple cycles by brute force over arc subsets."""
    count = 0
    for size in range(1, g.m + 1):
        for subset in itertools.combinations(g.arcs, size):
            degree = {}
            for arc in subset:
                degree[arc.tail] = degree.get(arc.tail, 0) + 1
                degree[arc.head] = degree.get(arc.head, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            # connectivity over touched vertices via the chosen arcs
            touched = sorted(degree)
            adj = {v: [] for v in touched}
            for arc in subset:
                adj[arc.tail].append(arc.head)
                adj[arc.head].append(arc.tail)
            comp = {touched[0]}
            stack = [touched[0]]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            if len(comp) == len(touched):
                count += 1
    return count


class TestCycleEnumeration:
    def test_matches_subset_count_on_randoms(self):
        for seed in range(30):
            spec = Cyclic(3) if seed % 2 else Symmetric(3)
            g = random_graph(seed, 5, 7, spec)
            assert len(enumerate_cycles(g)) == subset_cycle_count(g), f"seed {seed}"

    def test_each_result_is_a_cycle_once(self):
        from epkit.graph import canonical_cycle, is_cycle

        g = random_graph(99, 6, 10, Cyclic(4))
        cycles = enumerate_cycles(g)
        assert all(is_cycle(g, w) for w in cycles)
        canons = [canonical_cycle(g, w) for w in cycles]
        assert len(set(canons)) == len(canons)
        assert canons == sorted(canons)

    def test_multigraph_features(self):
        # loop, parallel pair, same-arc digon excluded
        g = build_graph(Cyclic(2), 2, [(0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0)])
        cycles = enumerate_cycles(g)
        lengths = sorted(len(w.steps) for w in cycles)
        assert lengths == [1, 1, 2]

    def test_deterministic(self):
        g = random_graph(5, 6, 9, Cyclic(3))
        a = [w.steps for w in enumerate_cycles(g)]
        b = [w.steps for w in enumerate_cycles(g)]
        assert a == b

    def test_non_null_filter(self):
        g = build_graph(Cyclic(2), 3, [(0, 1, 1), (1, 2, 0), (2, 0, 0), (0, 2, 0)])
        # triangle is non-null; the digon 2-0 is null
        non_null = enumerate_non_null_cycles(g)
        assert len(enumerate_cycles(g)) == 3
        assert len(non_null) == 2
        for w in non_null:
            assert not is_identity(walk_value(g, w))

    def test_vertex_guard(self):
        g = build_graph(Cyclic(2), 15, [(0, 1, 1)])
        with pytest.raises(GuardExceeded):
            enumerate_cycles(g)
        enumerate_cycles(g, OracleGuards(max_vertices=15))

    def test_one_canonical_form_per_cycle(self, monkeypatch):
        # the arc mask dedupes the two directions; only a kept cycle (any
        # cycle, or a non-null one) pays for its canonical form, which is
        # also its sort key
        import epkit.oracle

        calls = [0]
        real = epkit.oracle.canonical_cycle

        def counted(g, walk):
            calls[0] += 1
            return real(g, walk)

        monkeypatch.setattr(epkit.oracle, "canonical_cycle", counted)
        total = dropped = 0
        for seed in range(20):
            g = random_graph(seed + 700, 6, 10, Cyclic(3))
            calls[0] = 0
            cycles = enumerate_cycles(g)
            assert calls[0] == len(cycles), seed
            calls[0] = 0
            non_null = enumerate_non_null_cycles(g)
            assert calls[0] == len(non_null), seed
            total += len(cycles)
            dropped += len(cycles) - len(non_null)
        assert total > 100 and dropped > 10

    def test_cycle_count_guard(self):
        g = build_graph(Cyclic(2), 4, [(0, 1, 1), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
        with pytest.raises(GuardExceeded):
            enumerate_cycles(g, OracleGuards(max_cycles=0))

    def test_cycle_count_guard_counts_null_cycles(self):
        # a square with one chord, all labels the identity: three cycles,
        # none kept, and the guard still counts all three
        g = build_graph(
            Cyclic(2), 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0), (0, 2, 0)]
        )
        assert len(enumerate_cycles(g)) == 3
        assert enumerate_non_null_cycles(g, OracleGuards(max_cycles=3)) == []
        with pytest.raises(GuardExceeded):
            enumerate_non_null_cycles(g, OracleGuards(max_cycles=2))


class TestMinGfvs:
    def test_minimum_by_brute_force(self):
        from epkit.labeling import verify_gfvs

        for seed in range(15):
            spec = Cyclic(2) if seed % 2 else Cyclic(3)
            g = random_graph(seed + 50, 6, 9, spec)
            answer = min_gfvs(g)
            assert verify_gfvs(g, answer)
            for size in range(len(answer)):
                for subset in itertools.combinations(g.vertices, size):
                    assert not verify_gfvs(g, subset), f"seed {seed}"

    def test_clean_graph_needs_nothing(self):
        g = build_graph(Cyclic(5), 4, [(0, 1, 1), (1, 2, 4), (2, 0, 0)])
        assert min_gfvs(g) == []

    def test_deterministic(self):
        g = random_graph(123, 7, 11, Cyclic(2))
        assert min_gfvs(g) == min_gfvs(g)


class TestMaxPacking:
    def test_theta_graph(self):
        # three parallel arcs; two non-null digons share both vertices
        g = build_graph(Cyclic(2), 2, [(0, 1, 0), (0, 1, 1), (0, 1, 0)])
        assert len(max_packing(g, 1)) == 1
        assert len(max_packing(g, 2)) == 2
        assert len(min_gfvs(g)) == 1

    def test_disjoint_triangles(self):
        g = build_graph(
            Cyclic(2),
            6,
            [
                (0, 1, 1), (1, 2, 0), (2, 0, 0),
                (3, 4, 1), (4, 5, 0), (5, 3, 0),
            ],
        )
        assert len(max_packing(g, 1)) == 2
        assert len(max_packing(g, 2)) == 2

    def test_capacity_respected(self):
        for seed in range(10):
            g = random_graph(seed + 80, 6, 10, Cyclic(2))
            for capacity in (1, 2):
                packing = max_packing(g, capacity)
                usage = {}
                for w in packing:
                    for v in set(walk_vertices(g, w)[:-1]):
                        usage[v] = usage.get(v, 0) + 1
                assert all(c <= capacity for c in usage.values())

    def test_stop_at_short_circuits(self):
        g = build_graph(
            Cyclic(2),
            6,
            [
                (0, 1, 1), (1, 2, 0), (2, 0, 0),
                (3, 4, 1), (4, 5, 0), (5, 3, 0),
            ],
        )
        assert len(max_packing(g, 1, stop_at=1)) >= 1

    def test_monotone_in_capacity(self):
        for seed in range(10):
            g = random_graph(seed + 90, 5, 9, Cyclic(3))
            assert len(max_packing(g, 2)) >= len(max_packing(g, 1))

    def test_bad_capacity(self):
        g = build_graph(Cyclic(2), 1, [])
        with pytest.raises(InputError):
            max_packing(g, 0)


class TestEpPredicate:
    def test_duality_cases(self):
        triangle = build_graph(Cyclic(2), 3, [(0, 1, 1), (1, 2, 0), (2, 0, 0)])
        assert ep_predicate(triangle, 1, 0)  # packing side
        assert ep_predicate(triangle, 2, 1)  # cover side
        assert not ep_predicate(triangle, 2, 0)

    def test_clean_graph(self):
        g = build_graph(Cyclic(2), 3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        assert ep_predicate(g, 1, 0)

    def test_bad_parameters(self):
        g = build_graph(Cyclic(2), 1, [])
        with pytest.raises(InputError):
            ep_predicate(g, 0, 1)
        with pytest.raises(InputError):
            ep_predicate(g, 1, -1)
