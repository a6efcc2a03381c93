"""Consistent labelings, witness extraction, and shifting.

Random instances are seeded; every clean/non-clean verdict is cross-checked
against exhaustive cycle enumeration, so these tests fail if either side
drifts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.errors import InputError
from epkit.graph import (
    build_graph,
    is_non_null_cycle,
    walk_vertices,
)
from epkit.groups import (
    Cyclic,
    Product,
    Symmetric,
    elements,
    identity,
    is_identity,
    make_element,
    multiply,
)
from epkit.labeling import (
    PotentialMap,
    find_consistent_labeling,
    find_non_null_cycle,
    is_clean,
    shift,
    untangle,
    verify_gfvs,
)
from epkit.oracle import enumerate_non_null_cycles
from test_graph import canonical_cycle


def random_graph(seed, n, m, spec):
    rng = random.Random(seed)
    els = list(elements(spec))
    arcs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        arcs.append((u, v, rng.choice(els)))
    return build_graph(spec, n, arcs)


SPECS = [Cyclic(2), Cyclic(5), Symmetric(3), Product((Cyclic(2), Cyclic(3)))]


class TestCleanDecision:
    def test_any_tree_is_clean(self):
        rng = random.Random(7)
        s3 = Symmetric(3)
        els = list(elements(s3))
        arcs = [(rng.randrange(v), v, rng.choice(els)) for v in range(1, 9)]
        g = build_graph(s3, 9, arcs)
        result = find_consistent_labeling(g)
        assert result.clean
        lab = result.labeling
        for arc in g.arcs:
            from epkit.groups import multiply

            assert lab[arc.head] == multiply(lab[arc.tail], arc.label)

    def test_matches_exhaustive_enumeration(self):
        for seed in range(40):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed, 7, 11, spec)
            has_cycle = bool(enumerate_non_null_cycles(g))
            assert is_clean(g) == (not has_cycle), f"seed {seed}"

    def test_witness_is_a_simple_non_null_cycle(self):
        for seed in range(40):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 100, 7, 12, spec)
            witness = find_non_null_cycle(g)
            if witness is None:
                assert is_clean(g)
            else:
                assert is_non_null_cycle(g, witness)

    def test_non_identity_loop_caught(self):
        g = build_graph(Cyclic(3), 2, [(0, 1, 0), (1, 1, 2)])
        witness = find_non_null_cycle(g)
        assert witness is not None
        assert len(witness.steps) == 1

    def test_identity_loop_is_fine(self):
        g = build_graph(Cyclic(3), 1, [(0, 0, 0)])
        assert is_clean(g)

    def test_null_cycle_is_fine(self):
        g = build_graph(Cyclic(4), 3, [(0, 1, 1), (1, 2, 1), (2, 0, 2)])
        assert is_clean(g)

    def test_labeling_covers_every_component(self):
        g = build_graph(Cyclic(2), 4, [(0, 1, 0), (2, 3, 0)])
        result = find_consistent_labeling(g)
        assert result.clean
        assert set(result.labeling) == {0, 1, 2, 3}


class TestCleanSubset:
    """The search over a vertex set s walks g's incidence lists inside s;
    every read of it must give what the same read gives on the induced
    subgraph: the verdict, the witness walk, and the labeling with its
    BFS order."""

    def check(self, g, s):
        sub = g.induced_subgraph(s)
        assert is_clean(g, s) == is_clean(sub), sorted(s)
        assert find_non_null_cycle(g, s) == find_non_null_cycle(sub), sorted(s)
        got = find_consistent_labeling(g, s).labeling
        want = find_consistent_labeling(sub).labeling
        assert got == want, sorted(s)
        if got is not None:
            assert list(got) == list(want), sorted(s)

    def test_matches_induced_subgraph_on_randoms(self):
        # random arcs include loops and parallel arcs; s comes in any order,
        # and the denser graphs give witnesses to compare
        witnesses = 0
        for seed in range(120):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 400, 8, 8 + seed % 13, spec)
            assert find_consistent_labeling(g, g.vertices) == find_consistent_labeling(g)
            rng = random.Random(seed)
            for _ in range(6):
                s = [v for v in g.vertices if rng.random() < 0.7]
                rng.shuffle(s)
                self.check(g, s)
                witnesses += find_non_null_cycle(g, s) is not None
        assert witnesses > 200

    def test_non_identity_loop(self):
        g = build_graph(Cyclic(3), 3, [(0, 1, 0), (1, 2, 0), (2, 2, 1)])
        assert not is_clean(g, {2})
        assert not is_clean(g, {1, 2})
        assert is_clean(g, {0, 1})

    def test_parallel_arcs(self):
        g = build_graph(Cyclic(5), 3, [(0, 1, 1), (0, 1, 2), (1, 2, 3)])
        assert not is_clean(g, {0, 1})
        assert is_clean(g, {1, 2})
        self.check(g, {0, 1, 2})

    def test_s3_labels(self):
        s3 = Symmetric(3)
        swap = make_element(s3, (2, 1, 3))
        cyc = make_element(s3, (2, 3, 1))
        e = identity(s3)
        # the triangle's value is swap * cyc, not the identity
        g = build_graph(s3, 4, [(0, 1, swap), (1, 2, cyc), (2, 0, e), (2, 3, swap)])
        assert not is_clean(g, {0, 1, 2})
        assert is_clean(g, {1, 2, 3})
        for s in ({0, 1, 2}, {0, 2, 3}, {0, 1, 2, 3}):
            self.check(g, s)

    def test_empty_subset(self):
        g = build_graph(Cyclic(2), 2, [(0, 0, 1), (0, 1, 1)])
        assert is_clean(g, set())
        assert is_clean(g, [])

    def test_unknown_vertex_rejected(self):
        g = build_graph(Cyclic(2), 2, [(0, 1, 1)])
        with pytest.raises(InputError, match="not in graph"):
            is_clean(g, {0, 5})
        with pytest.raises(InputError, match="not in graph"):
            find_non_null_cycle(g, [5])


def holds_potentials(pots, g, arcs):
    """Every given arc satisfies p(head) = p(tail) * label, and every
    component's member list is shared by exactly its members."""
    for a in arcs:
        assert pots.pot[a.head] == multiply(pots.pot[a.tail], a.label), a
    for v, members in pots.comp.items():
        assert v in members
        assert all(pots.comp[w] is members for w in members)


class TestPotentialMap:
    """Relating a graph's arcs one by one conflicts exactly when the graph
    is not clean, in any order and however the arcs are split between maps
    that are then absorbed."""

    def test_relate_matches_is_clean(self):
        for seed in range(120):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 900, 8, 4 + seed % 10, spec)
            arcs = list(g.arcs)
            random.Random(seed).shuffle(arcs)
            pots = PotentialMap(identity(spec))
            related = []
            for a in arcs:
                if not pots.relate(a.tail, a.head, a.label):
                    break
                related.append(a)
            assert (len(related) == len(arcs)) == is_clean(g), seed
            holds_potentials(pots, g, [a for a in related if not a.is_loop])

    def test_failed_relation_leaves_map_unchanged(self):
        s3 = Symmetric(3)
        swap = make_element(s3, (2, 1, 3))
        cyc = make_element(s3, (2, 3, 1))
        pots = PotentialMap(identity(s3))
        assert pots.relate(0, 1, swap)
        assert pots.relate(1, 2, cyc)
        before = dict(pots.pot)
        # closing the path with anything but its value is a conflict
        assert not pots.relate(0, 2, multiply(cyc, swap))
        assert pots.pot == before
        assert pots.relate(0, 2, multiply(swap, cyc))

    def test_joins_relabel_either_side_in_s3(self):
        # non-abelian labels: a wrong multiplication side breaks the join
        s3 = Symmetric(3)
        els = list(elements(s3))
        rng = random.Random(3)
        for trial in range(40):
            pots = PotentialMap(identity(s3))
            arcs = [(v - 1, v, rng.choice(els)) for v in range(1, 6)]
            arcs += [(6, v, rng.choice(els)) for v in (7, 8)]
            # the joining arc points into the larger component or out of it
            arcs.append((8, 3, rng.choice(els)) if trial % 2 else (3, 8, rng.choice(els)))
            for u, v, x in arcs:
                assert pots.relate(u, v, x)
            assert all(pots.comp[v] is pots.comp[0] for v in range(9))
            for u, v, x in arcs:
                assert pots.pot[v] == multiply(pots.pot[u], x)

    def test_loops(self):
        z3 = Cyclic(3)
        pots = PotentialMap(identity(z3))
        assert pots.relate(0, 0, identity(z3))
        assert not pots.relate(0, 0, make_element(z3, 1))
        assert pots.comp == {}

    def test_absorb_matches_relating_everything(self):
        for seed in range(150):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 1300, 9, 5 + seed % 9, spec)
            rng = random.Random(seed)
            left, right = PotentialMap(identity(spec)), PotentialMap(identity(spec))
            ok = True
            for a in g.arcs:
                ok = (left if rng.random() < 0.5 else right).relate(a.tail, a.head, a.label) and ok
            ok = ok and left.absorb(right)
            assert ok == is_clean(g), seed
            if ok:
                holds_potentials(left, g, [a for a in g.arcs if not a.is_loop])

    def test_relate_induced(self):
        for seed in range(60):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 1700, 8, 8 + seed % 7, spec)
            rng = random.Random(seed)
            keep = {v for v in g.vertices if rng.random() < 0.7}
            held = frozenset(v for v in keep if rng.random() < 0.5)
            pots = PotentialMap(identity(spec))
            inside_held = [a for a in g.arcs if {a.tail, a.head} <= held]
            if not all(pots.relate(a.tail, a.head, a.label) for a in inside_held):
                continue
            assert pots.relate_induced(g, keep, held) == is_clean(g, keep), seed


class TestShift:
    def test_preserves_cycle_values_up_to_conjugacy(self):
        for seed in range(20):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 200, 6, 10, spec)
            rng = random.Random(seed)
            els = list(elements(spec))
            gamma = {v: rng.choice(els) for v in g.vertices}
            shifted = shift(g, gamma)
            before = {
                canonical_cycle(g, w) for w in enumerate_non_null_cycles(g)
            }
            after = {
                canonical_cycle(shifted, w)
                for w in enumerate_non_null_cycles(shifted)
            }
            assert before == after, f"seed {seed}"


class TestUntangle:
    def test_area_arcs_become_identity(self):
        for seed in range(20):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 300, 8, 12, spec)
            # grow a clean area greedily
            area = []
            for v in g.vertices:
                candidate = area + [v]
                if is_clean(g.induced_subgraph(candidate)):
                    area = candidate
            shifted = untangle(g, area)
            area_set = set(area)
            for arc in shifted.arcs:
                if arc.tail in area_set and arc.head in area_set:
                    assert is_identity(arc.label)
            before = {canonical_cycle(g, w) for w in enumerate_non_null_cycles(g)}
            after = {
                canonical_cycle(shifted, w)
                for w in enumerate_non_null_cycles(shifted)
            }
            assert before == after, f"seed {seed}"

    def test_non_clean_area_rejected(self):
        g = build_graph(Cyclic(2), 3, [(0, 1, 1), (1, 2, 0), (2, 0, 0)])
        with pytest.raises(InputError):
            untangle(g, [0, 1, 2])

    def test_empty_area(self):
        g = build_graph(Cyclic(2), 2, [(0, 1, 1)])
        shifted = untangle(g, [])
        assert shifted.arc(0).label == g.arc(0).label


class TestGfvsCheck:
    def test_hit_and_miss(self):
        g = build_graph(Cyclic(2), 4, [(0, 1, 1), (1, 2, 0), (2, 0, 0), (2, 3, 1)])
        assert verify_gfvs(g, [0]).verified
        assert verify_gfvs(g, [1]).verified
        assert not verify_gfvs(g, [3]).verified
        assert not verify_gfvs(g, []).verified

    def test_unknown_vertex_rejected(self):
        g = build_graph(Cyclic(2), 2, [(0, 1, 1)])
        with pytest.raises(InputError):
            verify_gfvs(g, [9])

    def test_matches_oracle_on_randoms(self):
        for seed in range(25):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 400, 6, 9, spec)
            cycles = enumerate_non_null_cycles(g)
            rng = random.Random(seed)
            subset = [v for v in g.vertices if rng.random() < 0.4]
            from epkit.graph import walk_vertices

            expected = all(
                set(walk_vertices(g, w)) & set(subset) for w in cycles
            )
            assert verify_gfvs(g, subset).verified == expected

    @settings(max_examples=200)
    @given(data=st.data())
    def test_property_matches_cycles_left_after_deletion(self, data):
        # the check labels V - X in place; deleting X and enumerating every
        # cycle of what is left is its definition
        spec = data.draw(st.sampled_from(SPECS))
        n = data.draw(st.integers(1, 8))
        arcs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.sampled_from(list(elements(spec))),
                ),
                max_size=2 * n,
            )
        )
        g = build_graph(spec, n, arcs)
        x = data.draw(st.sets(st.integers(0, n - 1)))
        left = enumerate_non_null_cycles(g.delete_vertices(x))
        assert verify_gfvs(g, x).verified == (not left)


class TestBlockRichness:
    def test_non_null_block_reaches_every_vertex(self):
        # a block with a non-loop non-null cycle has one through each vertex
        from epkit.graph import blocks_and_cut_vertices

        found_cases = 0
        for seed in range(40):
            spec = SPECS[seed % len(SPECS)]
            g = random_graph(seed + 900, 7, 10, spec)
            cycles = enumerate_non_null_cycles(g)
            vertex_sets = [set(walk_vertices(g, w)[:-1]) for w in cycles]
            blocks, _ = blocks_and_cut_vertices(g)
            for block in blocks:
                if len(block) < 3:
                    continue
                in_block = [vs for vs in vertex_sets if vs <= block and len(vs) >= 2]
                if not in_block:
                    continue
                found_cases += 1
                for u in sorted(block):
                    assert any(u in vs for vs in in_block), (
                        f"seed {seed}: block {sorted(block)} vertex {u}"
                    )
        assert found_cases > 5

    def test_pairwise_version_has_a_counterexample(self):
        # regression: the stronger for-every-pair variant is not a theorem.
        # Non-null triangle 0-1-2 plus a 1-3-4-0 path of non-null total value:
        # the only cycle through 3 and 2 is null.
        g = build_graph(
            Cyclic(2),
            5,
            [(0, 1, 0), (1, 2, 1), (2, 0, 0), (1, 3, 1), (3, 4, 0), (4, 0, 0)],
        )
        from epkit.graph import blocks_and_cut_vertices

        blocks, _ = blocks_and_cut_vertices(g)
        assert blocks == [frozenset(range(5))]
        cycles = enumerate_non_null_cycles(g)
        assert cycles  # the block is not clean
        assert not any(
            {2, 3} <= set(walk_vertices(g, w)) for w in cycles
        )

    def test_consistent_labeling_satisfies_every_arc(self):
        # clean instances made by shifting identity-labeled graphs
        from epkit.groups import multiply
        from epkit.labeling import shift

        for seed in range(25):
            spec = SPECS[seed % len(SPECS)]
            base = random_graph(seed + 1000, 7, 10, spec)
            e = identity(spec)
            g0 = base.with_labels({a.id: e for a in base.arcs})
            rng = random.Random(seed)
            els = list(elements(spec))
            g = shift(g0, {v: rng.choice(els) for v in g0.vertices})
            result = find_consistent_labeling(g)
            assert result.clean
            for arc in g.arcs:
                assert result.labeling[arc.head] == multiply(
                    result.labeling[arc.tail], arc.label
                )
