"""Tree decompositions and packing-or-cover on them.

Exact widths are checked against a brute-force minimum over all elimination
orders, written here from the definition with its own contraction routine.
"""

import heapq
import itertools
import json
import random
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epkit.labeling
import epkit.treedec
from epkit.certificates import Certificate, certificate_to_json_dict
from epkit.errors import GuardExceeded, InputError
from epkit.generators import odd_cycles, random_instance, zm_grid
from epkit.graph import build_graph, walk_vertices
from epkit.groups import Cyclic, Symmetric, elements
from epkit.labeling import GfvsCertificate, find_non_null_cycle, is_clean
from epkit.oracle import max_packing
from epkit.solver import solve
from epkit.treedec import (
    PackingCertificate,
    TreeDecomposition,
    _min_fill_order,
    packing_or_cover_bounded_tw,
    td_from_json_dict,
    tree_decomposition,
    treewidth_exact,
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


class TestExactWidth:
    def test_tree_has_width_one(self):
        g = plain(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert treewidth_exact(g) == 1

    def test_single_vertex(self):
        assert treewidth_exact(plain(1, [])) == 0

    def test_empty_graph(self):
        td = tree_decomposition(plain(0, []))
        assert td.width == -1
        validate_tree_decomposition(plain(0, []), td)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_clique_width(self, k):
        g = plain(k, [(u, v) for u in range(k) for v in range(u + 1, k)])
        assert treewidth_exact(g) == k - 1

    def test_four_by_four_grid(self):
        # min over all 16! elimination orders is out of reach here; the value
        # below was computed once by the solver and pinned after checking the
        # standard bounds by hand (>= 4 via bramble, <= 4 via column order)
        assert treewidth_exact(grid(4, 4)) == 4

    def test_cycle_has_width_two(self):
        g = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        assert treewidth_exact(g) == 2

    def test_matches_brute_force(self):
        for seed in range(30):
            n = 3 + seed % 4
            g = random_plain(seed, n, 0.5)
            assert treewidth_exact(g) == brute_force_treewidth(g), f"seed {seed}"

    def test_disconnected_graph(self):
        g = plain(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        td = tree_decomposition(g)
        validate_tree_decomposition(g, td)
        assert td.width == 2

    def test_exact_cap(self):
        g = plain(21, [(i, i + 1) for i in range(20)])
        with pytest.raises(GuardExceeded):
            tree_decomposition(g, "exact")

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            tree_decomposition(plain(2, [(0, 1)]), "optimal")


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
            assert tree_decomposition(g, "heuristic").width >= treewidth_exact(g)


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
        # every single mutation of a valid decomposition gets the verdict
        # and the message of the definition-level validator
        rng = random.Random(11)
        verdicts = set()
        for seed in range(60):
            g = random_labeled(seed, 4 + seed % 9, 5 + seed % 11, Z2)
            td = tree_decomposition(g, "heuristic" if seed % 2 else "exact")
            parent, bags = dict(td.parent), dict(td.bags)
            node = rng.choice(td.nodes)
            kind = seed % 3
            if kind == 0 and bags[node]:
                bags[node] = bags[node] - {rng.choice(sorted(bags[node]))}
            elif kind == 1:
                bags[node] = bags[node] | {rng.randrange(g.n)}
            elif parent[node] is not None:
                parent[node] = rng.choice(td.nodes)
            mutated = TreeDecomposition(td.nodes, parent, bags)
            expected = reference_validate(g, mutated)
            try:
                validate_tree_decomposition(g, mutated)
                got = None
            except InputError as exc:
                got = str(exc)
            assert got == expected, f"seed {seed}"
            verdicts.add(got is None)
        assert verdicts == {True, False}


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
        order = [v for v, _ in _min_fill_order(adj)]
        assert order == reference_min_fill_order(adj)

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

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
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
        elimination = _min_fill_order(adj)
        assert [v for v, _ in elimination] == order
        td = tree_decomposition(g, "heuristic")
        assert [td.bags[i] for i in td.nodes] == bags
        # exact mode's upper bound is the largest recorded neighbourhood
        assert max(len(ns) for _, ns in elimination) == order_width(adj, order)

    def test_exact_upper_bound_is_min_fill_width(self, monkeypatch):
        # with every search failing, exact mode tries each width from the
        # lower bound below the min-fill width, then keeps min-fill's order
        tried = []
        monkeypatch.setattr(epkit.treedec, "_feasible_order", lambda adj, w: tried.append(w))
        for seed in range(40):
            g = random_plain(700 + seed, 2 + seed % 15, (seed % 6 + 2) / 10)
            adj = adjacency_sets(g)
            width = order_width(adj, reference_min_fill_order(adj))
            tried.clear()
            td = tree_decomposition(g, "exact")
            assert tried == list(range(epkit.treedec._mmd_lower_bound(adj), width))
            assert td.width == width


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

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_small_random(self, mode):
        for seed in range(40):
            spec = self.SPECS[seed % 4]
            n = 5 + seed % 10
            g = random_labeled(2000 + seed, n, n + seed % 9, spec)
            self.check(g, tree_decomposition(g, mode))

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
            for mode in ("exact", "heuristic") if n <= 12 else ("heuristic",):
                self.check(g, tree_decomposition(g, mode), ks=range(1, 7))
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

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
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
        td = tree_decomposition(g, data.draw(st.sampled_from(["exact", "heuristic"])))
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

    def test_min_fill_intersects_once_per_edge(self, monkeypatch):
        # one intersection per edge and one per fill edge; recomputing the
        # fill of every vertex within distance two of each eliminated one
        # made about 266k on this graph
        intersections = 0

        class CountingSet(set):
            def __and__(self, other):
                nonlocal intersections
                intersections += 1
                return set.__and__(self, other)

            __rand__ = __and__

            def intersection(self, *others):
                nonlocal intersections
                intersections += 1
                return set.intersection(self, *others)

        g = random_instance(1000, 1100, Symmetric(3), seed=50_008)
        adj = adjacency_sets(g)
        monkeypatch.setattr(epkit.treedec, "set", CountingSet, raising=False)
        elimination = _min_fill_order(adj)
        edges = sum(len(ns) for ns in adj.values()) // 2
        filled_edges = sum(len(ns) for _, ns in elimination)
        assert intersections <= edges + (filled_edges - edges)

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
