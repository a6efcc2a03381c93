import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.errors import InputError
from epkit.graph import (
    FORWARD,
    REVERSE,
    Arc,
    LabeledGraph,
    Separation,
    Walk,
    _canonical_key,
    blocks_and_cut_vertices,
    build_graph,
    dump_json,
    graph_from_json_dict,
    graph_to_json_dict,
    is_cycle,
    is_non_null_cycle,
    validate_separation,
    walk_value,
    walk_vertices,
)
from epkit.groups import (
    Cyclic,
    Product,
    Symmetric,
    elements,
    identity,
    inverse,
    is_identity,
    make_element,
    multiply,
)
from epkit.oracle import enumerate_cycles


def z(n):
    return Cyclic(n)


def canonical_cycle(g, walk):
    """The canonical form of a simple cycle given as a walk: the key
    `enumerate_cycles` sorts by, after a check that the walk is one."""
    if not is_cycle(g, walk):
        raise InputError("not a simple cycle")
    return _canonical_key(walk_vertices(g, walk)[:-1], [s[0] for s in walk.steps])


def cycle_from_canonical(g, canon):
    """Reference inverse of canonical_cycle: the walk through its
    (vertex, arc id) pairs in order."""
    return Walk(tuple(
        (arc_id, FORWARD if g.arc(arc_id).tail == v else REVERSE) for v, arc_id in canon
    ))


def reference_canonical_cycle(g, walk):
    """canonical_cycle by its definition: the least (vertex, arc id) pair
    sequence over all L rotations of both traversal directions."""
    if not is_cycle(g, walk):
        raise InputError("not a simple cycle")
    seq = walk_vertices(g, walk)[:-1]
    arcs = [s[0] for s in walk.steps]
    L = len(arcs)
    candidates = []
    for r in range(L):
        candidates.append(tuple((seq[(r + i) % L], arcs[(r + i) % L]) for i in range(L)))
    rev_seq = [seq[0]] + [seq[L - i] for i in range(1, L)]
    rev_arcs = [arcs[L - 1 - i] for i in range(L)]
    for r in range(L):
        candidates.append(
            tuple((rev_seq[(r + i) % L], rev_arcs[(r + i) % L]) for i in range(L))
        )
    return min(candidates)


def multigraph(seed):
    """A graph on at most 9 vertices, with loops and parallel arcs."""
    rng = random.Random(seed)
    spec = (z(2), z(3), z(6), Symmetric(3))[seed % 4]
    els = list(elements(spec))
    n = rng.randint(2, 9)
    arcs = []
    for _ in range(rng.randint(n, 2 * n)):
        roll = rng.random()
        if roll < 0.1:
            u = v = rng.randrange(n)
        elif roll < 0.3 and arcs:
            u, v, _ = rng.choice(arcs)
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, v = rng.randrange(n), rng.randrange(n)
        arcs.append((u, v, rng.choice(els)))
    return build_graph(spec, n, arcs)


def presentations(walk):
    """Every rotation of a closed walk, in both directions."""
    steps = walk.steps
    back = tuple((arc_id, REVERSE if d == FORWARD else FORWARD) for arc_id, d in reversed(steps))
    for seq in (steps, back):
        for r in range(len(seq)):
            yield Walk(seq[r:] + seq[:r])


def triangle_z3():
    # labels sum to 1 mod 3
    return build_graph(z(3), 3, [(0, 1, 1), (1, 2, 0), (2, 0, 0)])


class TestConstruction:
    def test_rejects_duplicate_arc_ids(self):
        g = z(2)
        a = make_element(g, 1)
        with pytest.raises(InputError):
            LabeledGraph(g, range(2), [Arc(0, 0, 1, a), Arc(0, 1, 0, a)])

    def test_rejects_stray_endpoint(self):
        g = z(2)
        with pytest.raises(InputError):
            LabeledGraph(g, range(2), [Arc(0, 0, 5, make_element(g, 0))])

    def test_rejects_label_from_other_group(self):
        with pytest.raises(InputError):
            LabeledGraph(z(2), range(2), [Arc(0, 0, 1, make_element(z(3), 1))])

    def test_unknown_lookups(self):
        g = triangle_z3()
        with pytest.raises(InputError):
            g.arc(99)
        with pytest.raises(InputError):
            g.incident(99)


class TestSubgraphs:
    def test_induced_keeps_ids(self):
        g = build_graph(z(2), 5, [(0, 1, 1), (1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 0, 1)])
        sub = g.induced_subgraph([1, 2, 3])
        assert sub.vertices == (1, 2, 3)
        assert [a.id for a in sub.arcs] == [1, 2]
        assert sub.arc(2).tail == 2

    def test_delete_vertices_and_arcs(self):
        g = triangle_z3()
        assert g.delete_vertices([0]).m == 1
        assert g.delete_arcs([0]).m == 2
        assert g.delete_arcs([0]).n == 3

    def test_components(self):
        g = build_graph(z(2), 5, [(0, 1, 0), (2, 3, 1)])
        comps = g.connected_components()
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]

    def test_simple_adjacency_ignores_loops_and_multiplicity(self):
        g = build_graph(z(2), 3, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 2, 0)])
        adj = g.simple_adjacency()
        assert adj[0] == (1,)
        assert adj[1] == (0, 2)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_simple_adjacency_matches_per_vertex_definition(self, data):
        # loops, parallel arcs, isolated vertices and gapped or negative ids
        ids = data.draw(st.lists(st.integers(-20, 40), max_size=12, unique=True))
        vertex = st.sampled_from(ids) if ids else st.nothing()
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * len(ids)))
        g = build_graph(z(3), ids, [(u, v, 1) for u, v in pairs])
        assert g.simple_adjacency() == {
            v: tuple(sorted({a.other(v) for a in g.incident(v) if not a.is_loop}))
            for v in g.vertices
        }


class TestWalks:
    def test_vertex_sequence_and_value(self):
        g = build_graph(z(5), 4, [(0, 1, 1), (1, 2, 2), (3, 2, 1)])
        w = Walk(((0, FORWARD), (1, FORWARD), (2, REVERSE)))
        assert walk_vertices(g, w) == [0, 1, 2, 3]
        # 1 + 2 - 1 mod 5
        assert walk_value(g, w).payload == 2

    def test_broken_walk_rejected(self):
        g = triangle_z3()
        with pytest.raises(InputError):
            walk_vertices(g, Walk(((0, FORWARD), (0, FORWARD))))

    def test_reverse_inverts(self):
        g = build_graph(z(7), 2, [(0, 1, 3)])
        fwd = walk_value(g, Walk(((0, FORWARD),)))
        rev = walk_value(g, Walk(((0, REVERSE),)))
        assert multiply(fwd, rev).payload == 0

    def test_nonabelian_digon_value(self):
        s3 = Symmetric(3)
        a = (2, 3, 1)
        b = (2, 1, 3)
        g = build_graph(s3, 2, [(0, 1, a), (0, 1, b)])
        w = Walk(((0, FORWARD), (1, REVERSE)))
        value = walk_value(g, w)
        # independent recomputation: compose a with b^-1 as functions
        binv = tuple(sorted(range(1, 4), key=lambda i: b[i - 1]))
        expected = tuple(a[binv[i] - 1] for i in range(3))
        assert value.payload == expected
        assert not is_identity(value)

    def test_value_rejects_bad_steps(self):
        g = triangle_z3()
        for steps in (((0, 0),), ((0, 2),), ((7, FORWARD),), ((0, FORWARD), (9, REVERSE))):
            with pytest.raises(InputError):
                walk_value(g, Walk(steps))

    def test_value_is_the_element_product(self):
        # the payload fold against multiply and inverse on elements, for
        # every sequence of up to three steps over a non-abelian product
        spec = Product((z(2), Symmetric(3)))
        g = build_graph(spec, 3, [(0, 1, (1, (2, 3, 1))), (1, 2, (0, (2, 1, 3))), (2, 2, (1, (1, 3, 2)))])
        steps = [(a.id, d) for a in g.arcs for d in (FORWARD, REVERSE)]
        assert walk_value(g, Walk(())) == identity(spec)
        for length in (1, 2, 3):
            for walk in itertools.product(steps, repeat=length):
                expected = identity(spec)
                for arc_id, direction in walk:
                    label = g.arc(arc_id).label
                    expected = multiply(expected, label if direction == FORWARD else inverse(label))
                assert walk_value(g, Walk(walk)) == expected, walk


class TestCycleRecognition:
    def test_loop_is_cycle(self):
        g = build_graph(z(2), 1, [(0, 0, 1)])
        w = Walk(((0, FORWARD),))
        assert is_cycle(g, w)
        assert is_non_null_cycle(g, w)

    def test_same_arc_digon_is_not(self):
        g = build_graph(z(3), 2, [(0, 1, 1)])
        assert not is_cycle(g, Walk(((0, FORWARD), (0, REVERSE))))

    def test_parallel_digon_is_cycle(self):
        g = build_graph(z(3), 2, [(0, 1, 1), (0, 1, 0)])
        w = Walk(((0, FORWARD), (1, REVERSE)))
        assert is_cycle(g, w)
        assert is_non_null_cycle(g, w)

    def test_revisiting_walk_is_not_cycle(self):
        g = build_graph(z(2), 4, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (0, 3, 0), (3, 0, 1)])
        w = Walk(
            ((0, FORWARD), (1, FORWARD), (2, FORWARD), (3, FORWARD), (4, FORWARD))
        )
        assert not is_cycle(g, w)

    def test_open_walk_is_not_cycle(self):
        g = triangle_z3()
        assert not is_cycle(g, Walk(((0, FORWARD),)))


class TestCanonicalForm:
    def test_all_representations_collapse(self):
        g = build_graph(z(5), 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        arcs = [0, 1, 2, 3]
        canons = set()
        # all rotations, both directions
        for r in range(4):
            fwd_steps = tuple(
                (arcs[(r + i) % 4], FORWARD) for i in range(4)
            )
            canons.add(canonical_cycle(g, Walk(fwd_steps)))
            rev_steps = tuple(
                (arcs[(r - i) % 4], REVERSE) for i in range(1, 5)
            )
            canons.add(canonical_cycle(g, Walk(rev_steps)))
        assert len(canons) == 1

    def test_roundtrip(self):
        g = triangle_z3()
        w = Walk(((1, FORWARD), (2, FORWARD), (0, FORWARD)))
        canon = canonical_cycle(g, w)
        again = cycle_from_canonical(g, canon)
        assert canonical_cycle(g, again) == canon

    def test_parallel_arcs_distinguished(self):
        g = build_graph(z(2), 2, [(0, 1, 0), (0, 1, 1), (0, 1, 0)])
        d1 = canonical_cycle(g, Walk(((0, FORWARD), (1, REVERSE))))
        d2 = canonical_cycle(g, Walk(((0, FORWARD), (2, REVERSE))))
        assert d1 != d2

    def test_rejects_non_cycle(self):
        g = triangle_z3()
        with pytest.raises(InputError):
            canonical_cycle(g, Walk(((0, FORWARD),)))

    def test_matches_all_rotations_reference(self):
        loops = digons = 0
        for seed in range(200):
            g = multigraph(seed)
            for cycle in enumerate_cycles(g):
                loops += len(cycle.steps) == 1
                digons += len(cycle.steps) == 2
                for walk in presentations(cycle):
                    assert canonical_cycle(g, walk) == reference_canonical_cycle(g, walk), (
                        seed, walk,
                    )
        assert loops > 20 and digons > 20

    def test_rejects_what_the_reference_rejects(self):
        g = build_graph(z(2), 3, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (0, 0, 1)])
        for steps in (
            ((0, FORWARD), (0, REVERSE)),
            ((0, FORWARD), (1, FORWARD)),
            ((3, FORWARD), (3, FORWARD)),
            ((0, FORWARD), (1, FORWARD), (2, FORWARD), (3, FORWARD)),
        ):
            for check in (canonical_cycle, reference_canonical_cycle):
                with pytest.raises(InputError):
                    check(g, Walk(steps))


class TestBlocks:
    def test_path_blocks(self):
        g = build_graph(z(2), 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
        blocks, cuts = blocks_and_cut_vertices(g)
        assert len(blocks) == 3
        assert cuts == frozenset({1, 2})

    def test_two_triangles_sharing_vertex(self):
        g = build_graph(
            z(2),
            5,
            [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 0), (3, 4, 0), (4, 2, 0)],
        )
        blocks, cuts = blocks_and_cut_vertices(g)
        assert sorted(sorted(b) for b in blocks) == [[0, 1, 2], [2, 3, 4]]
        assert cuts == frozenset({2})

    def test_loops_ignored(self):
        g = build_graph(z(2), 2, [(0, 0, 1), (0, 1, 0)])
        blocks, cuts = blocks_and_cut_vertices(g)
        assert blocks == [frozenset({0, 1})]
        assert cuts == frozenset()

    def test_matches_networkx(self):
        rng = random.Random(4471973)
        for trial in range(500):
            n = rng.randint(1, 14)
            arcs = []
            # a few random pieces, so graphs come disconnected, with
            # bridges between cycles and with isolated vertices
            for _ in range(rng.randint(1, 3)):
                piece = rng.sample(range(n), rng.randint(1, n))
                for _ in range(rng.randint(0, 2 * len(piece))):
                    u, v = rng.choice(piece), rng.choice(piece)
                    arcs.append((u, v, 0))
                    if rng.random() < 0.1:
                        arcs.append((v, u, 1))
            g = build_graph(z(2), n, arcs)
            assert blocks_and_cut_vertices(g) == reference_blocks(g), trial

    def test_long_cycle_needs_no_recursion(self):
        n = 3000
        g = build_graph(z(2), n, [(i, (i + 1) % n, 0) for i in range(n)])
        assert blocks_and_cut_vertices(g) == ([frozenset(range(n))], frozenset())
        path = build_graph(z(2), n, [(i, i + 1, 0) for i in range(n - 1)])
        blocks, cuts = blocks_and_cut_vertices(path)
        assert len(blocks) == n - 1
        assert cuts == frozenset(range(1, n - 1))


def reference_blocks(g):
    sg = nx.Graph()
    sg.add_nodes_from(g.vertices)
    sg.add_edges_from((a.tail, a.head) for a in g.arcs if not a.is_loop)
    blocks = sorted((frozenset(c) for c in nx.biconnected_components(sg)), key=sorted)
    return blocks, frozenset(nx.articulation_points(sg))


class TestSeparation:
    def test_full_overlap_accepted(self):
        g = triangle_z3()
        v = frozenset(g.vertices)
        validate_separation(g, Separation(v, v))

    def test_crossing_arc_rejected(self):
        g = build_graph(z(2), 3, [(0, 1, 0), (1, 2, 0)])
        with pytest.raises(InputError):
            validate_separation(g, Separation(frozenset({0, 1}), frozenset({2})))

    def test_valid_split(self):
        g = build_graph(z(2), 3, [(0, 1, 0), (1, 2, 0)])
        sep = Separation(frozenset({0, 1}), frozenset({1, 2}))
        validate_separation(g, sep)
        assert sep.order == 1
        assert sep.boundary == frozenset({1})

    def test_cover_violation_rejected(self):
        g = triangle_z3()
        with pytest.raises(InputError):
            validate_separation(g, Separation(frozenset({0}), frozenset({1})))


class TestJson:
    def test_roundtrip_dense(self):
        g = build_graph(Symmetric(3), 3, [(0, 1, (2, 3, 1)), (1, 2, (1, 3, 2))])
        data = graph_to_json_dict(g)
        assert "vertices" not in data
        g2 = graph_from_json_dict(data)
        assert g2.vertices == g.vertices
        assert [(a.id, a.tail, a.head, a.label) for a in g2.arcs] == [
            (a.id, a.tail, a.head, a.label) for a in g.arcs
        ]

    def test_roundtrip_sparse_ids(self):
        g = build_graph(z(3), 6, [(0, 1, 1), (1, 5, 2), (5, 0, 0)])
        sub = g.delete_vertices([2, 3, 4])
        data = graph_to_json_dict(sub)
        assert data["vertices"] == [0, 1, 5]
        g2 = graph_from_json_dict(data)
        assert g2.vertices == (0, 1, 5)
        assert [a.id for a in g2.arcs] == [0, 1, 2]

    def test_arc_id_preservation(self):
        g = build_graph(z(2), 3, [(0, 1, 1), (1, 2, 1), (0, 2, 0)])
        sub = g.delete_arcs([1])
        data = graph_to_json_dict(sub)
        assert data["arc_ids"] == [0, 2]
        g2 = graph_from_json_dict(data)
        assert [a.id for a in g2.arcs] == [0, 2]

    def test_parses_plain_document(self):
        doc = json.loads(
            '{"group": {"cyclic": 2}, "n": 2, "arcs": [[0, 1, "1"], [1, 0, "0"]]}'
        )
        g = graph_from_json_dict(doc)
        assert g.n == 2 and g.m == 2
        assert g.arc(0).label.payload == 1

    def test_one_element_per_label_text(self):
        g = graph_from_json_dict({
            "group": {"product": [{"cyclic": 2}, {"symmetric": 3}]},
            "n": 3,
            "arcs": [[0, 1, "[1; 2,3,1]"], [1, 2, "[0; 1,2,3]"],
                     [2, 0, "[1; 2,3,1]"], [0, 2, "[0; 1,2,3]"]],
        })
        labels = [a.label for a in g.arcs]
        assert labels[0] is labels[2] and labels[1] is labels[3]
        assert labels[0] != labels[1]

    def test_values_carry_no_instance_dict(self):
        # a graph holds one Arc and one label per arc, and the oracle one
        # Walk per cycle; slots keep each to its fields
        g = build_graph(Product((z(2), Symmetric(3))), 2, [(0, 1, (1, (2, 1, 3)))])
        values = [g.arcs[0], g.arcs[0].label, Walk(((0, FORWARD),)),
                  z(2), Symmetric(3), g.group, Separation(frozenset(), frozenset())]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_bad_documents(self):
        with pytest.raises(InputError):
            graph_from_json_dict([])
        with pytest.raises(InputError):
            graph_from_json_dict({"group": {"cyclic": 2}, "n": 1, "arcs": [[0, 5, "1"]]})
        with pytest.raises(InputError):
            graph_from_json_dict({"group": {"cyclic": 2}, "n": 1, "arcs": [[0, 0]]})
        with pytest.raises(InputError):
            graph_from_json_dict({"group": {"cyclic": 2}, "n": 1})

    def test_dump_json_deterministic(self):
        data = {"b": 1, "a": [3, 2], "c": {"y": 0, "x": 1}}
        assert dump_json(data) == dump_json(json.loads(json.dumps(data)))
        assert dump_json(data).index('"a"') < dump_json(data).index('"b"')
