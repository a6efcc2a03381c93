"""The shared searches against reference copies of per-caller routines.

`oracle.simple_paths` serves cycle enumeration and S-path enumeration;
`oracle.min_hitting_set` serves `min_gfvs` and the S-path duality;
`oracle.pack_sets` serves `max_packing` and the S-path duality;
`graph.reach` serves components and the cut routines. The reference
functions below are self-contained searches written for each
caller. The package must reproduce them step for step, not merely as sets:
S-path order feeds the disjoint-path search, and the first cycle direction
found is the one a certificate prints.

Cycle enumeration and the packing search have fast paths of their own: one
canonical form per cycle, a first-arc rule for the direction kept,
saturation bitmasks and a free-slot bound. Their references dedupe and
sort by the all-rotations canonical form of `test_graph` and track vertex
usage in a dict, as the definitions read. `pack_sets` is also checked
against a brute force over subfamilies, and against `reference_pack_sets`,
the same search bounded by its count of fitting sets alone, index for
index and for the number of search frames.
"""

import gc
import itertools
import random
import sys
import types
from collections import Counter

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.graph import (
    FORWARD,
    REVERSE,
    Walk,
    build_graph,
    reach,
    step_table,
    walk_value,
    walk_vertices,
)
from epkit.groups import (
    Cyclic,
    Symmetric,
    elements,
    is_identity,
)
from epkit.oracle import (
    _cycle_vertex_sets,
    enumerate_cycles,
    enumerate_non_null_cycles,
    max_packing,
    min_gfvs,
    min_hitting_set,
    pack_sets,
    simple_paths,
)
from epkit.packing import (
    enumerate_non_null_s_paths,
    non_null_s_paths_or_hitting_set,
)
from test_graph import reference_canonical_cycle

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
        canon = reference_canonical_cycle(g, walk)
        if canon not in seen:
            seen.add(canon)
            out.append(walk)
    out.sort(key=lambda wlk: reference_canonical_cycle(g, wlk))
    return out


def reference_max_packing(g, capacity, stop_at=None):
    """The packing search over a usage dict: cycles by size, then canonical
    order; a cycle fits while every vertex on it is below capacity."""
    cycles = [
        w for w in reference_enumerate_cycles(g) if not is_identity(walk_value(g, w))
    ]
    sets = [frozenset(walk_vertices(g, w)[:-1]) for w in cycles]
    order = sorted(range(len(cycles)), key=lambda i: (len(sets[i]), i))
    usage = {v: 0 for v in g.vertices}
    best = []
    chosen = []

    def can_beat(idx, slack):
        if slack < 0:
            return True
        count = 0
        for j in order[idx:]:
            if all(usage[v] < capacity for v in sets[j]):
                count += 1
                if count > slack:
                    return True
        return False

    def search(idx):
        nonlocal best
        while True:
            if stop_at is not None and len(best) >= stop_at:
                return True
            if idx == len(order):
                if len(chosen) > len(best):
                    best = list(chosen)
                return stop_at is not None and len(best) >= stop_at
            if not can_beat(idx, len(best) - len(chosen)):
                return False
            j = order[idx]
            if all(usage[v] < capacity for v in sets[j]):
                for v in sets[j]:
                    usage[v] += 1
                chosen.append(j)
                if search(idx + 1):
                    return True
                chosen.pop()
                for v in sets[j]:
                    usage[v] -= 1
            idx += 1

    search(0)
    return [cycles[j] for j in best]


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


def reference_max_disjoint_indices(vertex_sets, stop_at):
    """Indices of a maximum vertex-disjoint subfamily; returns early once
    stop_at members are packed."""
    best = []
    n = len(vertex_sets)

    def dfs(i, chosen, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) >= stop_at:
            return True
        if i == n or len(chosen) + (n - i) <= len(best):
            return False
        if not (vertex_sets[i] & used):
            if dfs(i + 1, chosen + [i], used | vertex_sets[i]):
                return True
        return dfs(i + 1, chosen, used)

    dfs(0, [], frozenset())
    return best


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

            table, below = step_table(g), []
            for s in g.vertices:
                simple_paths(table, s, {s}, below, close)
                below.append(s)
            assert got == reference_cycle_closings(g), seed

    def test_stops_when_emit_says_so(self):
        square = build_graph(Cyclic(2), 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
        for stop in (False, True):
            emitted = []

            def emit(end, steps):
                emitted.append((end, steps))
                return stop

            assert simple_paths(step_table(square), 0, {2}, (), emit) is stop
            both = [(2, ((0, FORWARD), (1, FORWARD))), (2, ((3, REVERSE), (2, REVERSE)))]
            assert emitted == (both[:1] if stop else both)

    def test_enumerate_cycles(self):
        for seed in SEEDS:
            g = instance(seed)
            assert enumerate_cycles(g) == reference_enumerate_cycles(g), seed

    def test_cycle_vertex_sets_are_arc_ends(self):
        # the packing and cover searches read a cycle's vertices off its arcs
        for seed in SEEDS:
            g = instance(seed)
            cycles = enumerate_cycles(g)
            assert _cycle_vertex_sets(g, cycles) == [
                frozenset(walk_vertices(g, w)[:-1]) for w in cycles
            ], seed

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
                chosen = reference_max_disjoint_indices(sets, k)
                if len(chosen) >= k:
                    assert result.paths == tuple(paths[i] for i in chosen[:k])
                else:
                    assert result.hitting_set == reference_min_hitting_set(
                        sets, 2 * k - 2
                    ), (seed, k)


# One packing search -------------------------------------------------------------

def packing_instance(seed):
    """A graph on 6 to 10 vertices with 1.2 to 1.7 arcs per vertex, some
    of them loops or parallel arcs."""
    rng = random.Random(f"packing:{seed}")
    spec = GROUPS[seed % len(GROUPS)]
    els = list(elements(spec))
    n = rng.randint(6, 10)
    arcs = []
    for _ in range(rng.randint(6 * n // 5, 17 * n // 10)):
        roll = rng.random()
        if roll < 0.05:
            u = v = rng.randrange(n)
        elif roll < 0.15 and arcs:
            u, v, _ = rng.choice(arcs)
        else:
            u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.choice(els)))
    return build_graph(spec, n, arcs)


STOPS = (None, 1, 2, 3)


class TestMaxPacking:
    def test_matches_reference(self):
        graphs = [instance(seed) for seed in SEEDS]
        graphs += [packing_instance(seed) for seed in range(40)]
        sizes = set()
        for g in graphs:
            for capacity in (1, 2, 3):
                for stop_at in STOPS:
                    got = max_packing(g, capacity, stop_at)
                    assert got == reference_max_packing(g, capacity, stop_at), (
                        g, capacity, stop_at,
                    )
                    sizes.add(len(got))
        assert max(g.n for g in graphs) == 10
        assert {g.group for g in graphs} == set(GROUPS)
        assert max(sizes) >= 5

    @settings(max_examples=200)
    @given(data=st.data())
    def test_property_matches_reference(self, data):
        # the graph is a union of short closed walks, loops and digons
        # included, so that its cycles overlap
        spec = data.draw(st.sampled_from(GROUPS))
        n = data.draw(st.integers(1, 7))
        walks = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
                min_size=1,
                max_size=5,
            )
        )
        labels = st.sampled_from(list(elements(spec)))
        arcs = [
            (u, walk[(i + 1) % len(walk)], data.draw(labels))
            for walk in walks
            for i, u in enumerate(walk)
        ]
        g = build_graph(spec, n, arcs)
        assert enumerate_cycles(g) == reference_enumerate_cycles(g)
        for capacity in (1, 2, 3):
            for stop_at in STOPS:
                assert max_packing(g, capacity, stop_at) == reference_max_packing(
                    g, capacity, stop_at
                ), (capacity, stop_at)


def brute_force_packing_size(vertex_sets, capacity):
    """The largest subfamily with every vertex in at most capacity sets."""
    for size in range(len(vertex_sets), 0, -1):
        for family in itertools.combinations(vertex_sets, size):
            usage = Counter(v for vs in family for v in vs)
            if all(count <= capacity for count in usage.values()):
                return size
    return 0


def reference_pack_sets(vertex_sets, capacity, stop_at=None):
    """`pack_sets` with no free-slot bound: the include-first search that
    prunes a branch only when too few of the remaining sets still fit one
    at a time."""
    position = {v: i for i, v in enumerate(sorted(frozenset().union(*vertex_sets)))}
    bits = [[position[v] for v in vs] for vs in vertex_sets]
    masks = [sum(1 << b for b in set_bits) for set_bits in bits]
    usage = [0] * len(position)
    best = []
    chosen = []

    def can_beat(idx, slack, full):
        if slack < 0:
            return True
        count = 0
        for mask in masks[idx:]:
            if not mask & full:
                count += 1
                if count > slack:
                    return True
        return False

    def search(idx, full):
        nonlocal best
        while True:
            if stop_at is not None and len(best) >= stop_at:
                return True
            if idx == len(masks):
                if len(chosen) > len(best):
                    best = list(chosen)
                return stop_at is not None and len(best) >= stop_at
            if not can_beat(idx, len(best) - len(chosen), full):
                return False
            if not masks[idx] & full:
                grown = full
                for b in bits[idx]:
                    usage[b] += 1
                    if usage[b] == capacity:
                        grown |= 1 << b
                chosen.append(idx)
                if search(idx + 1, grown):
                    return True
                chosen.pop()
                for b in bits[idx]:
                    usage[b] -= 1
            idx += 1

    search(0, 0)
    return best


@st.composite
def set_families(draw):
    """Up to 10 sets over 8 vertices, drawn from a pool of at most 6, so
    that repeated sets are common; in any order of size, empty ones
    included."""
    pool = draw(st.lists(st.frozensets(st.integers(0, 7), max_size=6), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=10))


def search_frames(search_code, call):
    """call's result and the number of frames of `search_code` it ran."""
    frames = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is search_code:
            frames[0] += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, frames[0]


def inner_search(function):
    """The code object of the `search` defined inside function."""
    return next(
        c for c in function.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name == "search"
    )


class TestPackSets:
    @settings(max_examples=400)
    @given(
        family=set_families(),
        capacity=st.integers(1, 3),
        stop_at=st.none() | st.integers(1, 3),
    )
    def test_property_matches_reference(self, family, capacity, stop_at):
        assert pack_sets(family, capacity, stop_at) == reference_pack_sets(
            family, capacity, stop_at
        )

    def test_families_have_repeats_empty_sets_and_mixed_sizes(self):
        seen = Counter()

        @settings(max_examples=100)
        @given(family=set_families())
        def draw(family):
            sizes = [len(vs) for vs in family]
            seen["families"] += 1
            seen["repeat"] += len(set(family)) < len(family)
            seen["empty set"] += 0 in sizes
            seen["not by size"] += sizes != sorted(sizes)

        draw()
        assert seen["families"] == 100
        assert min(seen.values()) > 10, seen

    def test_free_slot_bound_halves_the_search(self):
        # the packing families of `max_packing`: each graph's non-null
        # cycles, by size and then canonical order
        fast, slow = inner_search(pack_sets), inner_search(reference_pack_sets)
        totals = Counter()
        for seed in range(40):
            g = packing_instance(seed)
            sets = _cycle_vertex_sets(g, enumerate_non_null_cycles(g))
            family = sorted(sets, key=len)
            for capacity in (1, 2):
                got, frames = search_frames(fast, lambda: pack_sets(family, capacity))
                want, reference_frames = search_frames(
                    slow, lambda: reference_pack_sets(family, capacity)
                )
                assert got == want, (seed, capacity)
                assert frames <= reference_frames, (seed, capacity)
                totals["fast"] += frames
                totals["reference"] += reference_frames
        assert 2 * totals["fast"] <= totals["reference"], totals

    @settings(max_examples=300)
    @given(
        family=st.lists(
            st.frozensets(st.integers(0, 7), max_size=8), max_size=8
        ),
        capacity=st.integers(1, 3),
        stop_at=st.none() | st.integers(1, 3),
    )
    def test_property_matches_brute_force(self, family, capacity, stop_at):
        # duplicates are allowed: st.lists does not make its sets unique
        chosen = pack_sets(family, capacity, stop_at)
        assert chosen == sorted(set(chosen))
        usage = Counter(v for i in chosen for v in family[i])
        assert all(count <= capacity for count in usage.values())
        best = brute_force_packing_size(family, capacity)
        # past stop_at the search finishes the branch it is on, so it may
        # return more than stop_at sets, but never more than the maximum
        if stop_at is None or best <= stop_at:
            assert len(chosen) == best
        else:
            assert stop_at <= len(chosen) <= best


# No search leaves a reference cycle ---------------------------------------------

def cyclic_garbage(call):
    """The objects a cyclic collection finds after `call` returns."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestNoReferenceCycles:
    # a recursive closure keeps everything it reaches alive until a cyclic
    # collection: every cycle an enumeration found, every vertex set
    def test_searches_free_their_state_on_return(self):
        g = instance(7)
        assert len(enumerate_cycles(g)) > 5
        sets = [frozenset(walk_vertices(g, w)) for w in enumerate_cycles(g)]
        calls = {
            "enumerate_cycles": lambda: enumerate_cycles(g),
            "s_paths": lambda: enumerate_non_null_s_paths(g, frozenset(g.vertices)),
            "min_gfvs": lambda: min_gfvs(g),
            "max_packing": lambda: max_packing(g, 2),
            "pack_sets": lambda: pack_sets(sets, 2),
        }
        assert {name: cyclic_garbage(call) for name, call in calls.items()} == {
            name: 0 for name in calls
        }


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
