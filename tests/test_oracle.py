"""The exhaustive oracle, cross-checked against a second implementation.

The independent cycle counter walks over arc subsets: a subset forms a simple
cycle exactly when every touched vertex has degree two (loops counting twice)
and the touched arcs are connected. That has nothing in common with the DFS
in the package, so agreement is meaningful.

The enumerator searches only the 2-core left after the vertices below the
start and the start's arcs already tried are deleted, records each cycle
from per-step tables of payloads and source vertices, and keeps the
direction whose first arc comes earlier at the start vertex.
`reference_enumerate_cycles` is its slow definition: the unpruned DFS from
every start, each closed walk recorded the direct way, from the walk:
element `walk_value` and `canonical_cycle`. It keeps the slow definition of
the direction too: a bitmask over each walk's arcs, so that the first walk
found of each arc set is kept. The two must agree walk for walk, and on
where the cycle guard trips, on two strategies: multigraphs dense in loops
and parallel arcs, and graphs with trees, paths and chains hung on a small
core, where the peel removes many vertices before any search.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.errors import GuardExceeded, InputError
from epkit.generators import random_instance
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


@st.composite
def graphs_with_trees(draw):
    """A core of up to 5 vertices with trees and paths hung on it, so that
    many vertices lie outside the 2-core: pendant trees, hanging paths,
    chains of degree-2 vertices between two vertices, and loops on pendant
    vertices. The vertex ids are shuffled, so a vertex outside the 2-core
    may come before, between or after those of the core."""
    spec = draw(st.sampled_from(DIFFERENTIAL_SPECS))
    label = st.sampled_from(list(elements(spec)))
    n = draw(st.integers(2, 5))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
    pendants = []
    kinds = st.sampled_from(["tree", "path", "chain", "loop"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "tree":
            # a leaf on any vertex; repeated, these grow pendant trees
            edges.append((draw(st.integers(0, n - 1)), n))
            pendants.append(n)
            n += 1
        elif kind == "path":
            edges += [(draw(st.integers(0, n - 1)), n), (n, n + 1)]
            pendants.append(n + 1)
            n += 2
        elif kind == "chain":
            u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            length = draw(st.integers(1, 2))
            edges += [(u, n)] + [(n + i, n + i + 1) for i in range(length - 1)]
            edges.append((n + length - 1, v))
            n += length
        elif pendants:
            v = draw(st.sampled_from(pendants))
            edges.append((v, v))
    ids = draw(st.permutations(range(n)))
    arcs = []
    for u, v in edges:
        if draw(st.booleans()):
            u, v = v, u
        arcs.append((ids[u], ids[v], draw(label)))
    return build_graph(spec, n, arcs)


def outside_two_core(g):
    """The vertices that peeling leaves out of g's 2-core: those with
    fewer than 2 arcs onto the rest, repeatedly, where a loop does not
    count."""
    degree = Counter()
    for a in g.arcs:
        if not a.is_loop:
            degree[a.tail] += 1
            degree[a.head] += 1
    out = set()
    stack = [v for v in g.vertices if degree[v] < 2]
    while stack:
        v = stack.pop()
        if v in out:
            continue
        out.add(v)
        for a in g.incident(v):
            if not a.is_loop:
                w = a.head if a.tail == v else a.tail
                degree[w] -= 1
                if degree[w] < 2:
                    stack.append(w)
    return out


def features(g):
    """The graph features the differential strategies should reach, each
    True or False for g."""
    outside = outside_two_core(g)
    dropped = len(enumerate_cycles(g)) > len(enumerate_non_null_cycles(g))
    return {
        "loop": any(a.is_loop for a in g.arcs),
        "parallel": len({frozenset((a.tail, a.head)) for a in g.arcs}) < g.m,
        "dropped": dropped,
        "dropped, non-abelian": dropped and isinstance(g.group, Product | Symmetric),
        # an arc-bearing vertex that the peel removes before any start
        "vertex outside the 2-core": any(
            any(not a.is_loop for a in g.incident(v)) for v in outside
        ),
        "loop outside the 2-core": any(a.is_loop and a.tail in outside for a in g.arcs),
        "cycle through a degree-2 vertex": any(
            sum(1 for a in g.incident(v) if not a.is_loop) == 2
            for w in enumerate_cycles(g)
            for v in walk_vertices(g, w)
        ),
    }


def assert_matches_the_record_from_walks(g, slack):
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


def assert_reaches(strategy, wanted):
    """Each feature in `wanted` holds in more than 10 of 100 drawn graphs."""
    seen = Counter()

    @settings(max_examples=100)
    @given(g=strategy)
    def draw(g):
        seen["graphs"] += 1
        seen.update(name for name, holds in features(g).items() if holds and name in wanted)

    draw()
    assert seen["graphs"] == 100
    assert all(seen[name] > 10 for name in wanted), seen


class TestRecordFromTables:
    @settings(max_examples=300)
    @given(g=labeled_multigraphs(), slack=st.integers(-2, 1))
    def test_matches_the_record_from_walks(self, g, slack):
        assert_matches_the_record_from_walks(g, slack)

    @settings(max_examples=300)
    @given(g=graphs_with_trees(), slack=st.integers(-2, 1))
    def test_matches_the_record_from_walks_with_trees(self, g, slack):
        assert_matches_the_record_from_walks(g, slack)

    def test_strategy_reaches_every_feature(self):
        # loops, parallel arcs, non-abelian labels and dropped null cycles
        # are all common among the drawn graphs; with trees hung on, so
        # are vertices and loops that the peel removes before any start
        assert_reaches(labeled_multigraphs(), (
            "loop", "parallel", "dropped", "dropped, non-abelian",
        ))
        assert_reaches(graphs_with_trees(), (
            "loop", "parallel", "dropped", "dropped, non-abelian",
            "vertex outside the 2-core", "loop outside the 2-core",
            "cycle through a degree-2 vertex",
        ))


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

    def test_prune_closes_at_most_two_thirds_of_the_walks(self, monkeypatch):
        # on 40 graphs shaped like the `oracle` benchmark's (n 7 to 10, 1.3
        # to 1.7 arcs per vertex), the search confined to the 2-core that
        # is left closes at most 2/3 as many walks as the unpruned search
        # from every start; it reads 1,464 of 2,388 (0.61)
        import epkit.oracle

        emitted = Counter()
        real = epkit.oracle.simple_paths

        def counted(table, start, ends, blocked, emit):
            def counted_emit(end, steps):
                emitted[search] += 1
                return emit(end, steps)

            return real(table, start, ends, blocked, counted_emit)

        monkeypatch.setattr(epkit.oracle, "simple_paths", counted)
        monkeypatch.setitem(globals(), "simple_paths", counted)
        specs = (Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3))
        for i in range(40):
            n = 7 + i % 4
            g = random_instance(n, round(n * (1.3 + 0.1 * (i // 4 % 5))), specs[i % 4], seed=i)
            search = "pruned"
            cycles = enumerate_cycles(g)
            search = "reference"
            assert cycles == reference_enumerate_cycles(g), i
        assert emitted["pruned"] * 3 <= emitted["reference"] * 2, emitted

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
