"""Tree decompositions and packing-or-cover on them.

Min-fill widths are checked against a brute-force minimum over all
elimination orders, written here from the definition with its own
contraction routine. The library's min-fill on vertex positions is checked
against the dict-based elimination it replaced, kept here as the reference,
which in turn is checked against a full rescan. Decompositions from seeded
random elimination orders put shapes min-fill does not make in front of the
validator and the DP.
"""

import collections
import contextlib
import heapq
import itertools
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epkit.labeling
import epkit.treedec
from epkit.certificates import Certificate, certificate_to_json_dict
from epkit.errors import InputError
from epkit.generators import odd_cycles, random_instance, zm_grid
from epkit.graph import build_graph, walk_vertices
from epkit.groups import Cyclic, Symmetric, elements
from epkit.labeling import GfvsCertificate, find_non_null_cycle, is_clean
from epkit.oracle import max_packing
from epkit.solver import solve
from epkit.treedec import (
    PackingCertificate,
    TreeDecomposition,
    packing_or_cover_bounded_tw,
    td_from_json_dict,
    tree_decomposition,
    validate_tree_decomposition,
    verify_packing,
)
from epkit.verify import verify_certificate

Z2 = Cyclic(2)


def plain(n, edges):
    """Identity-labeled undirected graph over Z2."""
    return build_graph(Z2, n, [(u, v, 0) for u, v in edges])


def random_plain(seed, n, p_edge):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge
    ]
    return build_graph(Z2, n, [(u, v, 0) for u, v in edges])


def random_labeled(seed, n, m, spec):
    rng = random.Random(seed)
    els = list(elements(spec))
    arcs = [
        (rng.randrange(n), rng.randrange(n), rng.choice(els)) for _ in range(m)
    ]
    return build_graph(spec, n, arcs)


def grid(rows, cols):
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return plain(rows * cols, edges)


def adjacency_sets(g):
    return {v: set(ns) for v, ns in g.simple_adjacency().items()}


def contracted_neighbors(adj, gone, v):
    """Live neighbors of v when the vertices in gone are contracted away."""
    seen = {v}
    out = set()
    stack = [v]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in seen:
                continue
            seen.add(w)
            if w in gone:
                stack.append(w)
            else:
                out.add(w)
    return out


def order_width(adj, order):
    gone = set()
    width = 0
    for v in order:
        width = max(width, len(contracted_neighbors(adj, gone, v)))
        gone.add(v)
    return width


def brute_force_treewidth(g):
    adj = adjacency_sets(g)
    if not adj:
        return -1
    return min(
        order_width(adj, list(order))
        for order in itertools.permutations(sorted(adj))
    )


def reference_min_fill_elimination(adj):
    """The min-fill elimination on vertex ids: each vertex in order with its
    neighbourhood in the filled graph at the moment it is eliminated. Exact
    tri counts under a lazy heap of (fill, id) entries, as the library ran
    them on dicts of sets keyed by id before it moved to vertex positions."""
    work = {v: set(ns) for v, ns in adj.items()}
    tri = dict.fromkeys(work, 0)  # edges inside N(v)
    for u, nu in work.items():
        for v in nu:
            if u < v:
                common = len(nu & work[v])
                tri[u] += common
                tri[v] += common
    fill = {}
    for v, ns in work.items():
        tri[v] //= 2  # each edge was counted from both of its ends
        fill[v] = len(ns) * (len(ns) - 1) // 2 - tri[v]
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    elimination = []
    while heap:
        f, v = heapq.heappop(heap)
        if v not in work or fill[v] != f:
            continue  # stale entry
        ns = work.pop(v)
        del fill[v]
        elimination.append((v, ns))
        touched = set(ns)
        missing = f  # fill edges still to add inside N(v)
        for a in ns:
            if not missing:
                break
            na = work[a]
            for b in ns - na:
                if b == a:
                    continue
                nb = work[b]
                common = na & nb  # v among them; its count is never read
                tri[a] += len(common)
                tri[b] += len(common)
                for w in common:
                    tri[w] += 1
                touched |= common
                na.add(b)
                nb.add(a)
                missing -= 1
        touched.discard(v)
        # N(v) is a clique now: each neighbour loses the deg(v) - 1 edges
        # from v to the rest of N(v)
        lost = len(ns) - 1
        for u in ns:
            work[u].discard(v)
            tri[u] -= lost
        for u in touched:
            d = len(work[u])
            new = d * (d - 1) // 2 - tri[u]
            if new != fill[u]:
                fill[u] = new
                heapq.heappush(heap, (new, u))
    return elimination


def reference_decomposition(elimination):
    """Node i holds the i-th eliminated vertex with its neighbourhood; its
    parent is the node of the first of those neighbours eliminated after it.
    A vertex with no neighbours left chains onto the next node."""
    if not elimination:
        return TreeDecomposition((0,), {0: None}, {0: frozenset()})
    position = {v: i for i, (v, _) in enumerate(elimination)}
    last = len(elimination) - 1
    bags = {}
    parent = {}
    for idx, (v, ns) in enumerate(elimination):
        bags[idx] = frozenset(ns | {v})
        if ns:
            parent[idx] = min(position[u] for u in ns)
        elif idx < last:
            parent[idx] = idx + 1
        else:
            parent[idx] = None
    return TreeDecomposition(tuple(range(len(elimination))), parent, bags)


def reference_tree_decomposition(g):
    return reference_decomposition(reference_min_fill_elimination(adjacency_sets(g)))


def random_order_decomposition(g, seed):
    """The decomposition of a seeded random elimination order of g, built
    by `reference_decomposition` from each vertex's neighbourhood in the
    filled graph when it is eliminated."""
    work = adjacency_sets(g)
    order = sorted(work)
    random.Random(seed).shuffle(order)
    elimination = []
    for v in order:
        ns = work.pop(v)
        for u in ns:
            work[u].discard(v)
            work[u] |= ns - {u}
        elimination.append((v, ns))
    return reference_decomposition(elimination)


@st.composite
def multigraphs(draw):
    """Graphs over Z2 with loops, parallel arcs and isolated vertices, on ids
    that are gapped or negative, arcs in any order; sometimes with a clique,
    whose fills tie. The empty graph among them."""
    ids = draw(st.lists(st.integers(-50, 199), max_size=16, unique=True))
    if not ids:
        return build_graph(Z2, [], [])
    vertex = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * len(ids)))
    clique = draw(st.lists(vertex, max_size=6, unique=True))
    pairs = draw(st.permutations(pairs + list(itertools.combinations(clique, 2))))
    return build_graph(Z2, ids, [(u, v, 0) for u, v in pairs])


@contextlib.contextmanager
def counting_set_operations():
    """Count the intersections and differences of the sets `treedec` makes
    while the block runs."""
    counts = collections.Counter()

    class CountingSet(set):
        def __and__(self, other):
            counts["&"] += 1
            return set.__and__(self, other)

        __rand__ = __and__

        def __sub__(self, other):
            counts["-"] += 1
            return set.__sub__(self, other)

        def intersection(self, *others):
            counts["&"] += 1
            return set.intersection(self, *others)

        def difference(self, *others):
            counts["-"] += 1
            return set.difference(self, *others)

    with mock.patch.object(epkit.treedec, "set", CountingSet, create=True):
        yield counts


def filled_edges(td):
    """Edges of the filled graph an elimination decomposition records: each
    node's bag is its vertex and that vertex's later neighbours."""
    return sum(len(bag) - 1 for bag in td.bags.values() if bag)


def min_fill_width(g):
    td = tree_decomposition(g)
    validate_tree_decomposition(g, td)
    return td.width


class TestExactWidth:
    def test_tree_has_width_one(self):
        g = plain(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert min_fill_width(g) == brute_force_treewidth(g) == 1

    def test_single_vertex(self):
        g = plain(1, [])
        assert min_fill_width(g) == brute_force_treewidth(g) == 0

    def test_empty_graph(self):
        td = tree_decomposition(plain(0, []))
        assert td.width == -1
        validate_tree_decomposition(plain(0, []), td)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_clique_width(self, k):
        g = plain(k, [(u, v) for u in range(k) for v in range(u + 1, k)])
        assert min_fill_width(g) == brute_force_treewidth(g) == k - 1

    def test_cycle_has_width_two(self):
        g = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        assert min_fill_width(g) == brute_force_treewidth(g) == 2

    def test_matches_brute_force(self):
        for seed in range(30):
            n = 3 + seed % 4
            g = random_plain(seed, n, 0.5)
            assert min_fill_width(g) == brute_force_treewidth(g), f"seed {seed}"

    def test_disconnected_graph(self):
        g = plain(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        td = tree_decomposition(g)
        validate_tree_decomposition(g, td)
        assert td.width == 2

    def test_unknown_mode(self):
        # min-fill is the one mode; "exact" is unknown like any other
        for mode in ("optimal", "exact"):
            with pytest.raises(InputError, match="unknown decomposition mode"):
                tree_decomposition(plain(2, [(0, 1)]), mode)

    def test_default_mode_is_min_fill(self):
        g = random_plain(9, 12, 0.3)
        td = tree_decomposition(g)
        assert td == tree_decomposition(g, "heuristic")
        assert [td.bags[i] for i in td.nodes] == [
            frozenset(ns | {v})
            for v, ns in reference_min_fill_elimination(adjacency_sets(g))
        ]


class TestHeuristic:
    def test_valid_at_any_seed(self):
        for seed in range(20):
            g = random_plain(100 + seed, 4 + seed % 9, 0.4)
            td = tree_decomposition(g, "heuristic")
            validate_tree_decomposition(g, td)

    def test_no_size_cap(self):
        g = plain(30, [(i, i + 1) for i in range(29)])
        td = tree_decomposition(g, "heuristic")
        validate_tree_decomposition(g, td)
        assert td.width == 1

    def test_width_at_least_exact(self):
        for seed in range(12):
            g = random_plain(300 + seed, 7, 0.5)
            assert tree_decomposition(g, "heuristic").width >= brute_force_treewidth(g)


def reference_validate(g, td):
    """The definition-level validator: walk every node up to the root, scan
    every bag for every arc, and search each vertex's nodes for
    connectivity. Returns the error message, or None when td is valid."""
    try:
        if not td.nodes:
            raise InputError("decomposition has no nodes")
        if len(set(td.nodes)) != len(td.nodes):
            raise InputError("duplicate decomposition nodes")
        node_set = set(td.nodes)
        if set(td.parent) != node_set or set(td.bags) != node_set:
            raise InputError("parent map and bags must cover exactly the nodes")
        td.root
        for n in td.nodes:
            seen = set()
            walk = n
            while walk is not None:
                if walk in seen:
                    raise InputError("parent links contain a cycle")
                if walk not in node_set:
                    raise InputError(f"parent link leaves the node set at {walk}")
                seen.add(walk)
                walk = td.parent[walk]
        for n, bag in td.bags.items():
            if not bag <= set(g.vertices):
                raise InputError(f"bag of node {n} contains unknown vertices")
        where = {v: {n for n, bag in td.bags.items() if v in bag} for v in g.vertices}
        for v in g.vertices:
            if not where[v]:
                raise InputError(f"vertex {v} appears in no bag")
        for a in g.arcs:
            if not any(a.tail in bag and a.head in bag for bag in td.bags.values()):
                raise InputError(f"arc {a.id} has no bag containing both endpoints")
        for v in g.vertices:
            start = next(iter(where[v]))
            seen = {start}
            stack = [start]
            while stack:
                n = stack.pop()
                near = [m for m in td.nodes if td.parent[m] == n]
                if td.parent[n] is not None:
                    near.append(td.parent[n])
                for m in near:
                    if m in where[v] and m not in seen:
                        seen.add(m)
                        stack.append(m)
            if seen != where[v]:
                raise InputError(f"bags containing vertex {v} are not connected")
    except InputError as exc:
        return str(exc)
    return None


class TestValidator:
    def build(self):
        g = plain(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        td = tree_decomposition(g)
        validate_tree_decomposition(g, td)
        return g, td

    def test_missing_bag_vertex_rejected(self):
        g, td = self.build()
        # remove one vertex from every bag it occurs in: coverage breaks
        victim = next(iter(td.bags[td.root])) if td.bags[td.root] else 0
        bags = {n: bag - {victim} for n, bag in td.bags.items()}
        broken = TreeDecomposition(td.nodes, dict(td.parent), bags)
        with pytest.raises(InputError):
            validate_tree_decomposition(g, broken)

    def test_arc_must_cooccur(self):
        g = plain(2, [(0, 1)])
        td = TreeDecomposition(
            (0, 1), {0: None, 1: 0}, {0: frozenset({0}), 1: frozenset({1})}
        )
        with pytest.raises(InputError, match="no bag"):
            validate_tree_decomposition(g, td)

    def test_disconnected_subtree_rejected(self):
        # vertex 0 appears in two bags separated by a bag without it
        g = plain(3, [(0, 1), (1, 2), (0, 2)])
        td = TreeDecomposition(
            (0, 1, 2),
            {0: None, 1: 0, 2: 1},
            {
                0: frozenset({0, 1}),
                1: frozenset({1, 2}),
                2: frozenset({0, 2}),
            },
        )
        with pytest.raises(InputError, match="not connected"):
            validate_tree_decomposition(g, td)

    def test_two_roots_rejected(self):
        g = plain(2, [(0, 1)])
        td = TreeDecomposition(
            (0, 1), {0: None, 1: None}, {0: frozenset({0, 1}), 1: frozenset({1})}
        )
        with pytest.raises(InputError, match="roots"):
            validate_tree_decomposition(g, td)

    def test_parent_cycle_rejected(self):
        g = plain(2, [(0, 1)])
        td = TreeDecomposition(
            (0, 1, 2),
            {0: None, 1: 2, 2: 1},
            {
                0: frozenset({0, 1}),
                1: frozenset({0, 1}),
                2: frozenset({1}),
            },
        )
        with pytest.raises(InputError, match="parent links contain a cycle"):
            validate_tree_decomposition(g, td)

    def test_unknown_bag_vertex_rejected(self):
        g = plain(2, [(0, 1)])
        td = TreeDecomposition((0,), {0: None}, {0: frozenset({0, 1, 9})})
        with pytest.raises(InputError, match="unknown"):
            validate_tree_decomposition(g, td)

    def test_parent_outside_node_set_rejected(self):
        g = plain(2, [(0, 1)])
        td = TreeDecomposition(
            (0, 1), {0: None, 1: 7}, {0: frozenset({0, 1}), 1: frozenset({1})}
        )
        with pytest.raises(InputError, match="leaves the node set at 7"):
            validate_tree_decomposition(g, td)

    @pytest.mark.parametrize(
        "parent",
        [
            {0: None, 1: 0, 2: 2},
            {0: None, 1: 2, 2: 3, 3: 1},
        ],
    )
    def test_parent_cycle_avoiding_root_rejected(self, parent):
        g = plain(2, [(0, 1)])
        nodes = tuple(parent)
        bags = {n: frozenset({0, 1}) for n in nodes}
        td = TreeDecomposition(nodes, parent, bags)
        with pytest.raises(InputError, match="parent links contain a cycle"):
            validate_tree_decomposition(g, td)

    def test_matches_reference_on_mutations(self):
        # one or two faults in a valid decomposition of up to about 40 nodes
        # get the verdict and the message of the definition-level validator
        rng = random.Random(11)
        faults = (
            (drop_bag_vertex,),
            (add_bag_vertex,),
            (repoint_parent,),
            (drop_bag_vertex, repoint_parent),
            (break_arc, split_node_set),
        )
        messages = collections.Counter()
        for seed in range(300):
            n = 4 + seed % 37
            g = random_labeled(seed, n, n + seed % 11, Z2)
            td = tree_decomposition(g) if seed % 2 else random_order_decomposition(g, seed)
            if seed % 3 == 0:
                td = jumbled(td, rng, rng.randint(1, 4))
            parent, bags = dict(td.parent), dict(td.bags)
            for fault in faults[seed % len(faults)]:
                fault(g, parent, bags, rng)
            mutated = TreeDecomposition(td.nodes, parent, bags)
            expected = reference_validate(g, mutated)
            try:
                validate_tree_decomposition(g, mutated)
                got = None
            except InputError as exc:
                got = str(exc)
            assert got == expected, f"seed {seed}"
            messages[got and re.sub(r"-?\d+", "#", got)] += 1
        assert set(messages) == {
            None,
            "vertex # appears in no bag",
            "arc # has no bag containing both endpoints",
            "parent links contain a cycle",
            "bags containing vertex # are not connected",
        }, messages


def drop_bag_vertex(g, parent, bags, rng):
    node = rng.choice(sorted(bags))
    if bags[node]:
        bags[node] = bags[node] - {rng.choice(sorted(bags[node]))}


def add_bag_vertex(g, parent, bags, rng):
    node = rng.choice(sorted(bags))
    bags[node] = bags[node] | {rng.choice(g.vertices)}


def repoint_parent(g, parent, bags, rng):
    node = rng.choice(sorted(bags))
    if parent[node] is not None:
        parent[node] = rng.choice(sorted(bags))


def break_arc(g, parent, bags, rng):
    """One end of a random arc leaves every bag that holds both ends."""
    a = rng.choice(g.arcs)
    end = rng.choice((a.tail, a.head))
    for node, bag in bags.items():
        if a.tail in bag and a.head in bag:
            bags[node] = bag - {end}


def split_node_set(g, parent, bags, rng):
    """A vertex leaves a node between two that hold it, or joins a node
    that none of its tree neighbours shares it with."""
    v = rng.choice(g.vertices)
    near = collections.defaultdict(set)
    for node, p in parent.items():
        if p is not None:
            near[node].add(p)
            near[p].add(node)
    middle = [
        node for node in sorted(bags)
        if v in bags[node] and sum(v in bags[m] for m in near[node]) >= 2
    ]
    apart = [
        node for node in sorted(bags)
        if v not in bags[node] and not any(v in bags[m] for m in near[node])
    ]
    if middle and (not apart or rng.random() < 0.5):
        node = rng.choice(middle)
        bags[node] = bags[node] - {v}
    elif apart:
        node = rng.choice(apart)
        bags[node] = bags[node] | {v}


def td_to_json_dict(td):
    """Reference writer for the decomposition document in docs/format.md."""
    return {
        "nodes": list(td.nodes),
        "parent": {str(n): td.parent[n] for n in td.nodes},
        "bags": {str(n): sorted(td.bags[n]) for n in td.nodes},
    }


class TestJson:
    def test_roundtrip(self):
        g = random_plain(5, 8, 0.5)
        td = tree_decomposition(g)
        doc = json.loads(json.dumps(td_to_json_dict(td)))
        back = td_from_json_dict(doc)
        assert back.nodes == td.nodes
        assert back.parent == td.parent
        assert back.bags == td.bags
        validate_tree_decomposition(g, back)

    def test_missing_key_rejected(self):
        with pytest.raises(InputError, match="bags"):
            td_from_json_dict({"nodes": [0], "parent": {"0": None}})

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            td_from_json_dict(
                {"nodes": [0], "parent": {"0": None}, "bags": {"0": ["a"]}}
            )


def triangles(count, labels):
    """Disjoint triangles; labels[i] goes on one arc of triangle i."""
    arcs = []
    for i in range(count):
        base = 3 * i
        arcs.append((base, base + 1, labels[i]))
        arcs.append((base + 1, base + 2, 0))
        arcs.append((base + 2, base, 0))
    return build_graph(Z2, 3 * count, arcs)


class TestPackingOrCover:
    def test_clean_graph_gives_empty_cover(self):
        g = plain(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
        result = packing_or_cover_bounded_tw(g, 3, tree_decomposition(g))
        assert isinstance(result, GfvsCertificate)
        assert result.vertices == ()
        assert result.verified

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_disjoint_odd_triangles_pack(self, k):
        g = triangles(k, [1] * k)
        result = packing_or_cover_bounded_tw(g, k, tree_decomposition(g))
        assert isinstance(result, PackingCertificate)
        assert result.k == k
        assert result.integrality == "integral"
        assert verify_packing(g, result)

    def test_short_of_triangles_gives_cover(self):
        # only two non-null triangles exist, so k=3 must produce a cover
        g = triangles(2, [1, 1])
        result = packing_or_cover_bounded_tw(g, 3, tree_decomposition(g))
        assert isinstance(result, GfvsCertificate)
        assert result.verified
        assert is_clean(g.delete_vertices(result.vertices))

    def test_cover_bound_uses_width(self):
        for seed in range(40):
            spec = Cyclic(2) if seed % 2 else Cyclic(3)
            g = random_labeled(seed, 5 + seed % 6, 9 + seed % 7, spec)
            td = tree_decomposition(g)
            for k in (1, 2, 3):
                result = packing_or_cover_bounded_tw(g, k, td)
                if isinstance(result, GfvsCertificate):
                    assert result.verified
                    assert len(result.vertices) <= (k - 1) * (td.width + 1)
                else:
                    assert result.k == k
                    assert verify_packing(g, result)

    def test_packing_cycles_are_vertex_disjoint(self):
        g = triangles(3, [1, 1, 1])
        result = packing_or_cover_bounded_tw(g, 3, tree_decomposition(g))
        seen = set()
        for walk in result.cycles:
            vs = set(walk_vertices(g, walk))
            assert not (vs & seen)
            seen |= vs

    def test_respects_oracle_packing_number(self):
        # whenever the routine certifies a packing of size k, the true
        # packing number is at least k; whenever it covers, the cover works
        for seed in range(25):
            g = random_labeled(1000 + seed, 6, 10, Z2)
            td = tree_decomposition(g)
            result = packing_or_cover_bounded_tw(g, 2, td)
            if isinstance(result, PackingCertificate):
                assert len(max_packing(g, capacity=1)) >= 2
            else:
                assert is_clean(g.delete_vertices(result.vertices))

    def test_rejects_bad_k(self):
        g = plain(2, [(0, 1)])
        with pytest.raises(InputError):
            packing_or_cover_bounded_tw(g, 0, tree_decomposition(g))

    def test_rejects_foreign_decomposition(self):
        g = plain(3, [(0, 1), (1, 2), (0, 2)])
        other = tree_decomposition(plain(2, [(0, 1)]))
        with pytest.raises(InputError):
            packing_or_cover_bounded_tw(g, 1, other)

    def test_deterministic(self):
        g = random_labeled(77, 8, 14, Cyclic(3))
        td = tree_decomposition(g)
        first = packing_or_cover_bounded_tw(g, 2, td)
        second = packing_or_cover_bounded_tw(g, 2, td)
        assert type(first) is type(second)
        if isinstance(first, GfvsCertificate):
            assert first.vertices == second.vertices
        else:
            assert first.cycles == second.cycles


class TestVerifyPacking:
    def test_rejects_repeated_cycle(self):
        g = triangles(1, [1])
        one = packing_or_cover_bounded_tw(g, 1, tree_decomposition(g))
        doubled = PackingCertificate(one.cycles + one.cycles, "half-integral")
        assert not verify_packing(g, doubled)

    def test_rejects_null_cycle(self):
        g = triangles(1, [0])
        from epkit.graph import Walk, FORWARD

        walk = Walk(tuple((a.id, FORWARD) for a in g.arcs))
        assert not verify_packing(g, PackingCertificate((walk,), "integral"))

    def test_half_integral_allows_double_use(self):
        # two loops at one vertex: each is a non-null cycle, vertex used twice
        g = build_graph(Z2, 1, [(0, 0, 1), (0, 0, 1)])
        from epkit.graph import Walk, FORWARD

        walks = tuple(Walk(((a.id, FORWARD),)) for a in g.arcs)
        assert not verify_packing(g, PackingCertificate(walks, "integral"))
        assert verify_packing(g, PackingCertificate(walks, "half-integral"))

    def test_bad_integrality_rejected(self):
        with pytest.raises(InputError):
            PackingCertificate((), "fractional")


def reference_min_fill_order(adj):
    """Min-fill by rescanning every vertex at every step; the lowest vertex
    wins ties."""
    work = {v: set(ns) for v, ns in adj.items()}
    order = []
    while work:
        best_v, best_fill = None, None
        for v in sorted(work):
            ns = sorted(work[v])
            fill = sum(
                1
                for i in range(len(ns))
                for j in range(i + 1, len(ns))
                if ns[j] not in work[ns[i]]
            )
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        ns = work.pop(best_v)
        for u in ns:
            work[u].discard(best_v)
        for u in ns:
            for x in ns:
                if u != x:
                    work[u].add(x)
        order.append(best_v)
    return order


def reference_packing_or_cover(g, k, td):
    """The k-round loop: every round recomputes all live subtree sets and
    scans post-order from the first node for the lowest non-clean one."""
    order = td.post_order()
    kids = td.children()
    live = set(g.vertices)
    cover = set()
    cycles = []
    budget = k
    while True:
        current = g.induced_subgraph(live)
        if is_clean(current):
            return GfvsCertificate(tuple(sorted(cover)), True)
        if budget == 1:
            cycles.append(find_non_null_cycle(current))
            return PackingCertificate(tuple(cycles), "integral")
        alpha = {}
        for node in order:
            parts = [td.bags[node] & live]
            parts.extend(alpha[c] for c in kids[node])
            alpha[node] = frozenset().union(*parts)
        chosen = next(
            node for node in order
            if not is_clean(current.induced_subgraph(alpha[node]))
        )
        cycles.append(find_non_null_cycle(current.induced_subgraph(alpha[chosen])))
        cover |= td.bags[chosen] & live
        live -= alpha[chosen]
        budget -= 1


def certificate_bytes(k, outcome):
    doc = certificate_to_json_dict(Certificate(k=k, outcome=outcome, trail=()))
    return json.dumps(doc, sort_keys=True, indent=2)


def rescanning_min_fill_order(adj):
    """Min-fill as a lazy heap whose fills are recomputed, after each
    elimination, for every vertex within distance two of the eliminated one:
    one intersection per neighbour per recompute. Fast enough at n = 1000,
    where the full rescan is not. Returns the order and, for each vertex in
    it, the bag of it and its neighbours in the filled graph."""
    work = {v: set(ns) for v, ns in adj.items()}

    def fill(v):
        ns = work[v]
        d = len(ns) - 1
        return sum(d - len(ns & work[u]) for u in ns) // 2

    current = {v: fill(v) for v in work}
    heap = [(f, v) for v, f in current.items()]
    heapq.heapify(heap)
    order, bags = [], []
    while heap:
        f, v = heapq.heappop(heap)
        if v not in work or current[v] != f:
            continue
        ns = work.pop(v)
        del current[v]
        for u in ns:
            work[u].discard(v)
            work[u] |= ns - {u}
        order.append(v)
        bags.append(frozenset(ns | {v}))
        touched = set(ns)
        for u in ns:
            touched |= work[u]
        for u in touched:
            new = fill(u)
            if new != current[u]:
                current[u] = new
                heapq.heappush(heap, (new, u))
    return order, bags


class TestMinFillOrder:
    def check(self, g):
        adj = adjacency_sets(g)
        elimination = reference_min_fill_elimination(adj)
        assert [v for v, _ in elimination] == reference_min_fill_order(adj)
        assert tree_decomposition(g) == reference_decomposition(elimination)

    def test_random_graphs(self):
        for seed in range(60):
            n = 1 + seed % 25
            self.check(random_plain(500 + seed, n, (seed % 7 + 1) / 10))

    def test_all_ties(self):
        # every vertex has fill 0 in an edgeless graph and in a clique
        self.check(plain(9, []))
        self.check(plain(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]))

    def test_isolated_and_disconnected(self):
        g = plain(12, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4), (9, 10)])
        self.check(g)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 7), (3, 5), (4, 4), (5, 6)])
    def test_grids(self, rows, cols):
        self.check(grid(rows, cols))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_property_matches_rescan(self, data):
        # vertices from `core` on are isolated; the cliques tie many fills
        n = data.draw(st.integers(1, 30))
        core = st.integers(0, data.draw(st.integers(0, n - 1)))
        edges = data.draw(st.lists(st.tuples(core, core), max_size=2 * n))
        cliques = data.draw(
            st.lists(st.lists(core, min_size=1, max_size=8, unique=True), max_size=3)
        )
        edges += [pair for c in cliques for pair in itertools.combinations(c, 2)]
        self.check(plain(n, [(u, v) for u, v in edges if u != v]))

    @settings(max_examples=300)
    @given(g=multigraphs())
    def test_property_matches_reference_on_multigraphs(self, g):
        # the same (nodes, parent, bags) as the elimination on ids, with one
        # intersection per edge and per fill edge, and set differences only
        # in eliminations that add fill edges, at most one per neighbour
        with counting_set_operations() as counts:
            td = tree_decomposition(g)
        assert td == reference_tree_decomposition(g)
        edges = sum(len(ns) for ns in adjacency_sets(g).values()) // 2
        fill = filled_edges(td) - edges
        assert counts["&"] <= edges + fill
        assert counts["-"] <= fill * max(td.width, 0)

    @pytest.mark.parametrize(
        "g",
        [
            random_instance(600, 660, Symmetric(3), seed=50_006),
            random_instance(1000, 1100, Symmetric(3), seed=50_008),
            random_instance(1000, 1100, Cyclic(6), seed=50_009),
            zm_grid(6, 3, 125),
            odd_cycles(1, 625),
        ],
        ids=["random-600", "random-1000-s3", "random-1000-z6", "grid-3x125", "cycle-625"],
    )
    def test_large_graphs_match_recompute(self, g):
        adj = adjacency_sets(g)
        order, bags = rescanning_min_fill_order(adj)
        elimination = reference_min_fill_elimination(adj)
        assert [v for v, _ in elimination] == order
        td = tree_decomposition(g, "heuristic")
        assert td == reference_decomposition(elimination)
        assert [td.bags[i] for i in td.nodes] == bags
        # the order's width is its largest recorded neighbourhood
        assert max(len(ns) for _, ns in elimination) == order_width(adj, order)


def jumbled(td, rng, steps):
    """A valid decomposition of the same graph with more shapes than an
    elimination order gives: leaves whose bag is a subset of their parent's,
    and nodes inserted on an edge holding the edge's shared vertices plus
    any from either end. Node ids are listed in a shuffled order."""
    parent = dict(td.parent)
    bags = dict(td.bags)
    fresh = max(td.nodes) + 1
    for _ in range(steps):
        node = rng.choice(sorted(bags))
        bag = sorted(bags[node])
        p = parent[node]
        if p is None or rng.random() < 0.5:
            bags[fresh] = frozenset(rng.sample(bag, rng.randint(0, len(bag))))
            parent[fresh] = node
        else:
            either = sorted(bags[node] | bags[p])
            extra = rng.sample(either, rng.randint(0, len(either)))
            bags[fresh] = (bags[node] & bags[p]) | frozenset(extra)
            parent[fresh] = p
            parent[node] = fresh
        fresh += 1
    nodes = sorted(bags)
    rng.shuffle(nodes)
    return TreeDecomposition(tuple(nodes), parent, bags)


class TestSweepMatchesRounds:
    SPECS = [Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3)]

    def check(self, g, td, ks=(1, 2, 3, 4)):
        for k in ks:
            got = packing_or_cover_bounded_tw(g, k, td)
            want = reference_packing_or_cover(g, k, td)
            assert certificate_bytes(k, got) == certificate_bytes(k, want)

    @pytest.mark.parametrize("shape", ["random-order", "heuristic"])
    def test_small_random(self, shape):
        for seed in range(40):
            spec = self.SPECS[seed % 4]
            n = 5 + seed % 10
            g = random_labeled(2000 + seed, n, n + seed % 9, spec)
            if shape == "heuristic":
                self.check(g, tree_decomposition(g))
            else:
                self.check(g, random_order_decomposition(g, seed))

    def test_larger_heuristic(self):
        for seed in range(8):
            spec = self.SPECS[seed % 4]
            g = random_labeled(3000 + seed, 40, 48, spec)
            self.check(g, tree_decomposition(g, "heuristic"))

    def test_families(self):
        for g in (
            odd_cycles(6, 3),
            odd_cycles(2, 9),
            zm_grid(3, 3, 8),
            triangles(4, [1, 0, 1, 0]),
            plain(6, [(0, 1), (1, 2), (2, 0), (3, 4)]),
        ):
            self.check(g, tree_decomposition(g, "heuristic"))

    def test_reaches_stale_map_rebuild(self, monkeypatch):
        """A map built before a deletion may conflict only through deleted
        vertices; the sweep then finds the live subtree clean and rebuilds
        that node's map. These seeds reach that path."""
        false_alarms = 0
        real = epkit.treedec.find_non_null_cycle

        def spy(g, s=None):
            nonlocal false_alarms
            cycle = real(g, s)
            false_alarms += s is not None and cycle is None
            return cycle

        monkeypatch.setattr(epkit.treedec, "find_non_null_cycle", spy)
        for seed in range(240):
            n = 5 + seed % 20
            g = random_labeled(seed, n, n + seed % 11, self.SPECS[seed % 4])
            self.check(g, tree_decomposition(g), ks=range(1, 7))
            if n <= 12:
                self.check(g, random_order_decomposition(g, seed), ks=range(1, 7))
        assert false_alarms >= 5

    def test_jumbled_decompositions(self):
        # several children per node, whose maps share components
        for seed in range(300):
            rng = random.Random(seed)
            n = 5 + seed % 20
            g = random_labeled(4000 + seed, n, n + seed % 11, self.SPECS[seed % 4])
            td = jumbled(tree_decomposition(g, "heuristic"), rng, n)
            validate_tree_decomposition(g, td)
            self.check(g, td, ks=range(1, 7))

    @settings(max_examples=300)
    @given(data=st.data())
    def test_property_certificate_bytes_match(self, data):
        spec = data.draw(st.sampled_from(self.SPECS))
        n = data.draw(st.integers(1, 12))
        labels = list(elements(spec))
        arcs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(labels)
                ),
                max_size=2 * n,
            )
        )
        g = build_graph(spec, n, arcs)
        if data.draw(st.booleans()):
            td = tree_decomposition(g)
        else:
            td = random_order_decomposition(g, data.draw(st.integers(0, 2**16)))
        if data.draw(st.booleans()):
            td = jumbled(td, random.Random(data.draw(st.integers(0, 2**16))), n)
        k = data.draw(st.integers(1, 6))
        got = packing_or_cover_bounded_tw(g, k, td)
        want = reference_packing_or_cover(g, k, td)
        assert certificate_bytes(k, got) == certificate_bytes(k, want)


class TestScale:
    def test_work_is_linear_in_nodes(self, monkeypatch):
        calls = 0
        real = epkit.labeling.find_consistent_labeling

        def counted(g, s=None):
            nonlocal calls
            calls += 1
            return real(g, s)

        monkeypatch.setattr(epkit.labeling, "find_consistent_labeling", counted)
        monkeypatch.setattr(epkit.treedec, "find_consistent_labeling", counted)
        g = odd_cycles(300, 3)
        td = tree_decomposition(g, "heuristic")
        result = packing_or_cover_bounded_tw(g, 200, td)
        assert isinstance(result, PackingCertificate)
        assert result.k == 200
        assert calls <= len(td.nodes) + 200 + 2

    @pytest.mark.parametrize(
        "g,k", [(odd_cycles(1, 3000), 1), (zm_grid(4, 3, 100), 3)]
    )
    def test_large_instances_verify(self, g, k):
        td = tree_decomposition(g, "heuristic")
        outcome = packing_or_cover_bounded_tw(g, k, td)
        ok, why = verify_certificate(g, Certificate(k=k, outcome=outcome, trail=()))
        assert ok, why

    def test_long_odd_cycle_cover_is_linear(self, multiplications):
        # a fresh labeling of every node's subtree made this quadratic: about
        # 750 multiplications per vertex and arc at this size
        g = odd_cycles(1, 3000)
        multiplications[0] = 0
        cert = solve(g, 2)
        assert isinstance(cert.outcome, GfvsCertificate)
        assert len(cert.outcome.vertices) <= 3
        ok, why = verify_certificate(g, cert)
        assert ok, why
        assert multiplications[0] <= 10 * (g.n + len(g.arcs))

    def test_min_fill_intersects_once_per_edge(self):
        # one intersection per edge and one per fill edge; recomputing the
        # fill of every vertex within distance two of each eliminated one
        # made about 266k on this graph
        g = random_instance(1000, 1100, Symmetric(3), seed=50_008)
        with counting_set_operations() as counts:
            td = tree_decomposition(g)
        edges = sum(len(ns) for ns in adjacency_sets(g).values()) // 2
        assert counts["&"] <= edges + (filled_edges(td) - edges)

    def test_child_lists_built_once(self, monkeypatch):
        calls = 0
        real = TreeDecomposition.children

        def counted(td):
            nonlocal calls
            calls += 1
            return real(td)

        g = zm_grid(3, 3, 8)
        td = tree_decomposition(g, "heuristic")
        monkeypatch.setattr(TreeDecomposition, "children", counted)
        packing_or_cover_bounded_tw(g, 3, td)
        assert calls == 1
