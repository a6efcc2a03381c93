"""The exhaustive oracle, cross-checked against a second implementation.

The independent cycle counter walks over arc subsets: a subset forms a simple
cycle exactly when every touched vertex has degree two (loops counting twice)
and the touched arcs are connected. That has nothing in common with the DFS
in the package, so agreement is meaningful.

The enumerator records each cycle from per-step tables of payloads and
source vertices, and keeps the direction whose first arc comes earlier at
the start vertex. `reference_enumerate_cycles` records the same DFS output
the direct way, from the walk: element `walk_value` and `canonical_cycle`.
It keeps the slow definition of the direction too: a bitmask over each
walk's arcs, so that the first walk found of each arc set is kept.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.errors import GuardExceeded, InputError
from epkit.graph import FORWARD, Walk, build_graph, step_table, walk_value, walk_vertices
from epkit.groups import Cyclic, Product, Symmetric, elements, is_identity
from epkit.oracle import (
    DEFAULT_GUARDS,
    OracleGuards,
    enumerate_cycles,
    enumerate_non_null_cycles,
    ep_predicate,
    max_packing,
    min_gfvs,
    simple_paths,
)
from test_graph import canonical_cycle


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


def reference_enumerate_cycles(g, guards=DEFAULT_GUARDS, keep=None):
    """`enumerate_cycles` recording each closed walk from the walk itself:
    the same DFS and guard, an arc-set dedupe in place of the first-arc
    rule, then `keep(walk)` and the walk's `canonical_cycle` as its sort
    key."""
    bit = {arc.id: 1 << i for i, arc in enumerate(g.arcs)}
    seen = set()
    keyed = []

    def record(walk):
        arc_mask = 0
        for arc_id, _ in walk.steps:
            arc_mask |= bit[arc_id]
        if arc_mask in seen:
            return
        seen.add(arc_mask)
        if len(seen) > guards.max_cycles:
            raise GuardExceeded(f"more than {guards.max_cycles} cycles")
        if keep is None or keep(walk):
            keyed.append((canonical_cycle(g, walk), walk))

    def close(_end, steps):
        if not (len(steps) == 2 and steps[0][0] == steps[1][0]):
            record(Walk(steps))
        return False

    for arc in g.arcs:
        if arc.is_loop:
            record(Walk(((arc.id, FORWARD),)))
    table, below = step_table(g), []
    for s in g.vertices:
        simple_paths(table, s, {s}, below, close)
        below.append(s)
    keyed.sort(key=lambda pair: pair[0])
    return [walk for _, walk in keyed]


def reference_non_null(g, guards=DEFAULT_GUARDS):
    return reference_enumerate_cycles(
        g, guards, keep=lambda w: not is_identity(walk_value(g, w))
    )


def outcome(call):
    """The walk list a call returns, or the guard it raised."""
    try:
        return call()
    except GuardExceeded:
        return GuardExceeded


DIFFERENTIAL_SPECS = (Cyclic(2), Cyclic(3), Symmetric(3), Product((Cyclic(2), Symmetric(3))))


@st.composite
def labeled_multigraphs(draw):
    """A graph on 1 to 7 vertices whose arcs reuse a few vertex pairs, in
    either orientation, so that loops and parallel arcs are common."""
    spec = draw(st.sampled_from(DIFFERENTIAL_SPECS))
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
    arcs = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.booleans(), st.sampled_from(list(elements(spec)))),
        max_size=12,
    ))
    return build_graph(
        spec, n, [(v, u, x) if flip else (u, v, x) for (u, v), flip, x in arcs]
    )


class TestRecordFromTables:
    @settings(max_examples=300)
    @given(g=labeled_multigraphs(), slack=st.integers(-2, 1))
    def test_matches_the_record_from_walks(self, g, slack):
        cycles = enumerate_cycles(g)
        assert cycles == reference_enumerate_cycles(g)
        assert enumerate_non_null_cycles(g) == reference_non_null(g)
        # a guard at, just below or far below the cycle count
        tight = OracleGuards(max_cycles=max(0, len(cycles) + slack))
        assert outcome(lambda: enumerate_cycles(g, tight)) == outcome(
            lambda: reference_enumerate_cycles(g, tight)
        )
        assert outcome(lambda: enumerate_non_null_cycles(g, tight)) == outcome(
            lambda: reference_non_null(g, tight)
        )

    def test_strategy_reaches_every_feature(self):
        # loops, parallel arcs, non-abelian labels and dropped null cycles
        # are all common among the drawn graphs
        seen = Counter()

        @settings(max_examples=100)
        @given(g=labeled_multigraphs())
        def draw(g):
            seen["graphs"] += 1
            seen["loop"] += any(a.is_loop for a in g.arcs)
            seen["parallel"] += len({frozenset((a.tail, a.head)) for a in g.arcs}) < g.m
            dropped = len(enumerate_cycles(g)) > len(enumerate_non_null_cycles(g))
            seen["dropped"] += dropped
            seen["dropped, non-abelian"] += dropped and isinstance(g.group, Product | Symmetric)

        draw()
        assert seen["graphs"] == 100
        assert min(seen.values()) > 10, seen


class TestCycleEnumeration:
    def test_matches_subset_count_on_randoms(self):
        for seed in range(30):
            spec = Cyclic(3) if seed % 2 else Symmetric(3)
            g = random_graph(seed, 5, 7, spec)
            assert len(enumerate_cycles(g)) == subset_cycle_count(g), f"seed {seed}"

    def test_each_result_is_a_cycle_once(self):
        from epkit.graph import is_cycle

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
        # one direction of each cycle is recorded; only a kept cycle (any
        # cycle, or a non-null one) pays for its canonical form, which is
        # also its sort key and equals `canonical_cycle` of the kept walk
        import epkit.oracle

        keys = []
        real = epkit.oracle._canonical_key

        def counted(seq, arcs):
            keys.append(real(seq, arcs))
            return keys[-1]

        monkeypatch.setattr(epkit.oracle, "_canonical_key", counted)
        total = dropped = 0
        for seed in range(20):
            g = random_graph(seed + 700, 6, 10, Cyclic(3))
            counts = []
            for enumerate_ in (enumerate_cycles, enumerate_non_null_cycles):
                keys.clear()
                cycles = enumerate_(g)
                assert sorted(keys) == [canonical_cycle(g, w) for w in cycles], seed
                counts.append(len(cycles))
            total += counts[0]
            dropped += counts[0] - counts[1]
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

    def test_packing_and_cover_share_one_enumeration(self, cycle_enumerations):
        triangle = build_graph(Cyclic(2), 3, [(0, 1, 1), (1, 2, 0), (2, 0, 0)])
        # k = 2 finds no packing, so the cover side runs too
        assert ep_predicate(triangle, 2, 1)
        assert cycle_enumerations == [1]

    def test_bad_parameters(self):
        g = build_graph(Cyclic(2), 1, [])
        with pytest.raises(InputError):
            ep_predicate(g, 0, 1)
        with pytest.raises(InputError):
            ep_predicate(g, 1, -1)
