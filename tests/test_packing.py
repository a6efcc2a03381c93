"""Expansions, S-path duality, and the expansion branch.

The duality is cross-checked against a networkx-based path enumeration and
subset brute force. Branch outputs are re-verified from definitions (cycle
values, disjointness, separation structure).
"""

import itertools
import random

import networkx as nx
import pytest

from epkit.errors import GuardExceeded, InputError, InternalInvariantError
from epkit.graph import (
    FORWARD,
    REVERSE,
    Separation,
    build_graph,
    validate_separation,
    walk_value,
    walk_vertices,
)
from epkit.groups import Cyclic, inverse, is_identity, multiply
from epkit.labeling import is_clean
from epkit.oracle import (
    OracleGuards,
    enumerate_non_null_cycles,
    ep_predicate,
    min_gfvs,
)
from epkit.packing import (
    CliqueExpansion,
    SPathDualityResult,
    _tree_path_steps,
    clique_branch_irrelevant,
    clique_branch_separation,
    enumerate_non_null_s_paths,
    expansion_from_json_dict,
    expansion_to_json_dict,
    non_null_s_paths_or_hitting_set,
    verify_expansion,
)
from epkit.treedec import PackingCertificate, verify_packing

Z2 = Cyclic(2)
Z3 = Cyclic(3)


def plain(n, edges):
    return build_graph(Z2, n, [(u, v, 0) for u, v in edges])


def complete(n, extra=(), group=Z2):
    arcs = [(u, v, 0) for u, v in itertools.combinations(range(n), 2)]
    return build_graph(group, n + len({w for t in extra for w in t[:2] if w >= n}),
                       arcs + list(extra))


def k8_plus(extra):
    """Identity K8 on 0..7 plus extra arc triples (may add vertices)."""
    arcs = [(u, v, 0) for u, v in itertools.combinations(range(8), 2)]
    arcs += list(extra)
    n = 1 + max(max(u, v) for u, v, _ in arcs)
    return build_graph(Z2, n, arcs)


def arc_between(g, u, v):
    ids = [a.id for a in g.arcs if {a.tail, a.head} == {u, v}]
    if not ids:
        raise AssertionError(f"no arc between {u} and {v}")
    return min(ids)


def singleton_expansion(g, vertices):
    vs = sorted(vertices)
    return CliqueExpansion(
        supernodes={i: frozenset({v}) for i, v in enumerate(vs)},
        tree_edges={i: () for i in range(len(vs))},
        edge_map={
            (i, j): arc_between(g, vs[i], vs[j])
            for i, j in itertools.combinations(range(len(vs)), 2)
        },
        centers={i: v for i, v in enumerate(vs)},
    )


def is_non_null_s_path(g, s, walk):
    """Reference predicate: a simple path with distinct endpoints in s,
    interior outside s, and value other than the identity."""
    if not walk.steps:
        return False
    seq = walk_vertices(g, walk)
    if len(set(seq)) != len(seq):
        return False
    if seq[0] not in s or seq[-1] not in s or any(v in s for v in seq[1:-1]):
        return False
    return not is_identity(walk_value(g, walk))


class TestVerifyExpansion:
    def test_clique_is_its_own_expansion(self):
        g = plain(4, list(itertools.combinations(range(4), 2)))
        eta = singleton_expansion(g, range(4))
        assert verify_expansion(g, eta, 4)
        assert not verify_expansion(g, eta, 3)

    def test_overlapping_trees_rejected(self):
        g = plain(4, list(itertools.combinations(range(4), 2)))
        eta = singleton_expansion(g, range(4))
        bad = CliqueExpansion(
            supernodes={**eta.supernodes, 1: frozenset({0, 1})},
            tree_edges={**eta.tree_edges, 1: (arc_between(g, 0, 1),)},
            edge_map=eta.edge_map,
            centers=eta.centers,
        )
        assert not verify_expansion(g, bad, 4)

    def test_center_outside_tree_rejected(self):
        g = plain(4, list(itertools.combinations(range(4), 2)))
        eta = singleton_expansion(g, range(4))
        bad = CliqueExpansion(
            eta.supernodes, eta.tree_edges, eta.edge_map, {**eta.centers, 0: 3}
        )
        assert not verify_expansion(g, bad, 4)

    def test_missing_model_edge_rejected(self):
        g = plain(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # no 2-3 arc
        with pytest.raises(AssertionError):
            singleton_expansion(g, range(4))
        eta = singleton_expansion(g, [0, 1, 2])
        trimmed = CliqueExpansion(
            eta.supernodes,
            eta.tree_edges,
            {(0, 1): eta.edge_map[(0, 1)]},
            eta.centers,
        )
        assert not verify_expansion(g, trimmed, 3)

    def test_wrong_connecting_arc_rejected(self):
        g = plain(4, list(itertools.combinations(range(4), 2)))
        eta = singleton_expansion(g, [0, 1, 2])
        bad = CliqueExpansion(
            eta.supernodes,
            eta.tree_edges,
            {**eta.edge_map, (0, 1): arc_between(g, 2, 3)},
            eta.centers,
        )
        assert not verify_expansion(g, bad, 3)

    def test_disconnected_supernode_rejected(self):
        g = plain(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        bad = CliqueExpansion(
            supernodes={0: frozenset({0, 3}), 1: frozenset({1})},
            tree_edges={0: (), 1: ()},
            edge_map={(0, 1): arc_between(g, 0, 1)},
            centers={0: 0, 1: 1},
        )
        # {0, 3} with no tree arcs is not a tree on two vertices
        assert not verify_expansion(g, bad, 2)

    def test_two_vertex_supernode(self):
        g = plain(4, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)])
        eta = CliqueExpansion(
            supernodes={0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2})},
            tree_edges={0: (arc_between(g, 0, 3),), 1: (), 2: ()},
            edge_map={
                (0, 1): arc_between(g, 0, 1),
                (0, 2): arc_between(g, 2, 3),
                (1, 2): arc_between(g, 1, 2),
            },
            centers={0: 3, 1: 1, 2: 2},
        )
        assert verify_expansion(g, eta, 3)

    def test_json_roundtrip(self):
        g = plain(4, list(itertools.combinations(range(4), 2)))
        eta = singleton_expansion(g, range(4))
        back = expansion_from_json_dict(expansion_to_json_dict(eta))
        assert back == eta
        assert verify_expansion(g, back, 4)

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError):
            expansion_from_json_dict({"supernodes": {}})
        with pytest.raises(InputError):
            expansion_from_json_dict(
                {
                    "supernodes": {"0": ["x"]},
                    "tree_edges": {"0": []},
                    "edge_map": {},
                    "centers": {"0": 0},
                }
            )


# S-path oracle: networkx edge-path enumeration plus subset brute force.

def oracle_s_path_family(g, s):
    mg = nx.MultiGraph()
    mg.add_nodes_from(g.vertices)
    for a in g.arcs:
        if not a.is_loop:
            mg.add_edge(a.tail, a.head, key=a.id)
    s_set = set(s)
    family = []
    for u, v in itertools.combinations(sorted(s_set), 2):
        for epath in nx.all_simple_edge_paths(mg, u, v):
            cur = u
            seq = [u]
            value = None
            arc_ids = []
            for _, _, key in epath:
                arc = g.arc(key)
                nxt = arc.other(cur)
                lab = arc.label if arc.tail == cur else inverse(arc.label)
                value = lab if value is None else multiply(value, lab)
                arc_ids.append(arc.id)
                seq.append(nxt)
                cur = nxt
            if any(w in s_set for w in seq[1:-1]):
                continue
            if is_identity(value):
                continue
            family.append((frozenset(seq), tuple(sorted(arc_ids))))
    return family


def oracle_max_disjoint(family):
    best = 0

    def go(i, used, count):
        nonlocal best
        best = max(best, count)
        if i == len(family):
            return
        if count + (len(family) - i) <= best:
            return
        vs, _ = family[i]
        if not (vs & used):
            go(i + 1, used | vs, count + 1)
        go(i + 1, used, count)

    go(0, frozenset(), 0)
    return best


def oracle_min_hitting(g, family):
    if not family:
        return 0
    for size in range(len(g.vertices) + 1):
        for combo in itertools.combinations(g.vertices, size):
            cs = set(combo)
            if all(vs & cs for vs, _ in family):
                return size
    raise AssertionError("unreachable")


class TestSPathDuality:
    def test_parallel_arcs_give_one_path(self):
        g = build_graph(Z2, 2, [(0, 1, 0), (0, 1, 1)])
        result = non_null_s_paths_or_hitting_set(g, {0, 1}, 1)
        assert result.side == "paths"
        assert len(result.paths) == 1
        assert is_non_null_s_path(g, {0, 1}, result.paths[0])

    def test_clean_identity_graph_has_empty_hitting_set(self):
        g = plain(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        for k in (1, 2, 3):
            result = non_null_s_paths_or_hitting_set(g, {0, 2, 4}, k)
            assert result.side == "hitting_set"
            assert result.hitting_set == ()

    def test_exactly_one_side(self):
        with pytest.raises(InputError):
            SPathDualityResult(paths=None, hitting_set=None)
        with pytest.raises(InputError):
            SPathDualityResult(paths=(), hitting_set=())

    def test_enumeration_matches_networkx(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randrange(5, 9)
            g = build_graph(
                Z3,
                n,
                [
                    (rng.randrange(n), rng.randrange(n), rng.randrange(3))
                    for _ in range(rng.randrange(6, 13))
                ],
            )
            s = set(rng.sample(range(n), rng.randrange(2, min(5, n))))
            ours = {
                tuple(sorted(step[0] for step in w.steps))
                for w in enumerate_non_null_s_paths(g, s)
            }
            theirs = {arcs for _, arcs in oracle_s_path_family(g, s)}
            assert ours == theirs, f"seed {seed}"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_duality_matches_brute_force(self, k):
        hit_sides = 0
        for seed in range(30):
            rng = random.Random(7000 + seed)
            n = rng.randrange(5, 9)
            g = build_graph(
                Z3,
                n,
                [
                    (rng.randrange(n), rng.randrange(n), rng.randrange(3))
                    for _ in range(rng.randrange(5, 12))
                ],
            )
            s = set(rng.sample(range(n), rng.randrange(2, min(6, n))))
            family = oracle_s_path_family(g, s)
            nu = oracle_max_disjoint(family)
            result = non_null_s_paths_or_hitting_set(g, s, k)
            if nu >= k:
                assert result.side == "paths"
                assert len(result.paths) == k
                used = set()
                for p in result.paths:
                    assert is_non_null_s_path(g, s, p)
                    vs = set(walk_vertices(g, p))
                    assert not (vs & used)
                    used |= vs
            else:
                hit_sides += 1
                assert result.side == "hitting_set"
                x = set(result.hitting_set)
                assert len(x) <= 2 * k - 2
                assert len(x) == oracle_min_hitting(g, family)
                survivors = [vs for vs, _ in family if not (vs & x)]
                assert not survivors
        if k >= 2:
            assert hit_sides > 0

    def test_ten_vertex_instance(self):
        rng = random.Random(42)
        g = build_graph(
            Z3,
            10,
            [
                (rng.randrange(10), rng.randrange(10), rng.randrange(3))
                for _ in range(16)
            ],
        )
        s = {0, 3, 6, 9}
        family = oracle_s_path_family(g, s)
        result = non_null_s_paths_or_hitting_set(g, s, 2)
        if result.side == "paths":
            assert oracle_max_disjoint(family) >= 2
        else:
            assert oracle_max_disjoint(family) < 2

    def test_k1_answers_past_the_path_guard(self):
        # K8 over Z3 with random labels: hundreds of non-null 0-1 paths. At
        # k = 1 the first one fixes the answer, so the search stops there
        # and the path guard never fires; k = 2 still needs every path.
        rng = random.Random(11)
        g = build_graph(
            Z3, 8,
            [(u, v, rng.randrange(3)) for u, v in itertools.combinations(range(8), 2)],
        )
        family = enumerate_non_null_s_paths(g, {0, 1})
        tight = OracleGuards(max_cycles=10)
        assert len(family) > 100
        result = non_null_s_paths_or_hitting_set(g, {0, 1}, 1, tight)
        assert result.paths == (family[0],)
        assert enumerate_non_null_s_paths(g, {0, 1}, stop_at=3) == family[:3]
        with pytest.raises(GuardExceeded):
            non_null_s_paths_or_hitting_set(g, {0, 1}, 2, tight)

    def test_vertex_guard_holds_at_k1(self):
        g = plain(15, [(i, i + 1) for i in range(14)])
        with pytest.raises(GuardExceeded):
            non_null_s_paths_or_hitting_set(g, {0, 14}, 1)

    def test_unknown_s_vertex_rejected(self):
        with pytest.raises(InputError):
            non_null_s_paths_or_hitting_set(plain(2, [(0, 1)]), {0, 5}, 1)

    def test_bad_k_rejected(self):
        with pytest.raises(InputError):
            non_null_s_paths_or_hitting_set(plain(2, [(0, 1)]), {0, 1}, 0)


class TestCliqueBranchSeparation:
    def test_all_sub_expansions_non_clean_gives_integral_packing(self):
        g = k8_plus([(0, 1, 1), (4, 5, 1)])  # odd chords in both halves
        eta = singleton_expansion(g, range(8))
        result = clique_branch_separation(g, 2, eta)
        assert isinstance(result, PackingCertificate)
        assert result.integrality == "integral"
        assert result.k == 2
        assert verify_packing(g, result)

    def test_k1_non_clean_expansion(self):
        g = k8_plus([(0, 1, 1)])
        eta = singleton_expansion(g, range(8))
        result = clique_branch_separation(g, 1, eta)
        assert isinstance(result, PackingCertificate)
        assert result.k == 1
        assert verify_packing(g, result)

    def test_paths_side_builds_half_integral_packing(self):
        # two disjoint odd handles between centers
        g = k8_plus([(0, 8, 0), (8, 1, 1), (2, 9, 0), (9, 3, 1)])
        eta = singleton_expansion(g, range(8))
        result = clique_branch_separation(g, 2, eta)
        assert isinstance(result, PackingCertificate)
        assert result.integrality == "half-integral"
        assert result.k == 2
        assert verify_packing(g, result)

    def test_hitting_side_order_two_separation(self):
        # three odd handles pairwise sharing one center: no two disjoint
        # non-null S-paths, minimum hitting set has two vertices
        g = k8_plus(
            [(0, 8, 0), (8, 1, 1), (1, 9, 0), (9, 2, 1), (0, 10, 0), (10, 2, 1)]
        )
        eta = singleton_expansion(g, range(8))
        result = clique_branch_separation(g, 2, eta)
        assert isinstance(result, Separation)
        assert result.order == 2
        validate_separation(g, result)
        assert is_clean(g, result.a - result.b)
        assert len(result.boundary) <= 6
        # every non-null cycle must touch the far side
        for cycle in enumerate_non_null_cycles(g):
            assert set(walk_vertices(g, cycle)) & result.b

    def test_hitting_side_order_one_separation(self):
        # pendant odd gadget behind one clique vertex: empty hitting set,
        # one non-clean attachment, separator of order one
        g = k8_plus([(7, 8, 0), (8, 9, 0), (8, 9, 1)])
        eta = singleton_expansion(g, range(8))
        result = clique_branch_separation(g, 2, eta)
        assert isinstance(result, Separation)
        assert result.order == 1
        assert result.boundary == frozenset({7})
        validate_separation(g, result)
        assert is_clean(g, result.a - result.b)

    def test_enough_non_clean_attachments_give_packing(self):
        g = k8_plus(
            [(7, 8, 0), (8, 9, 0), (8, 9, 1), (6, 10, 0), (10, 11, 0), (10, 11, 1)]
        )
        eta = singleton_expansion(g, range(8))
        result = clique_branch_separation(g, 2, eta)
        assert isinstance(result, PackingCertificate)
        assert result.k == 2
        assert verify_packing(g, result)

    def test_separation_supports_cover_recursion(self):
        # deleting the boundary plus a cover of the far side covers G
        g = k8_plus(
            [(0, 8, 0), (8, 1, 1), (1, 9, 0), (9, 2, 1), (0, 10, 0), (10, 2, 1)]
        )
        eta = singleton_expansion(g, range(8))
        sep = clique_branch_separation(g, 2, eta)
        far = g.induced_subgraph(sep.b - sep.a)
        cover = set(min_gfvs(far)) | set(sep.boundary)
        assert is_clean(g.delete_vertices(cover))

    def test_small_threshold_floor(self):
        g = plain(6, list(itertools.combinations(range(6), 2)))
        eta = singleton_expansion(g, range(6))
        # k=2 needs sub-expansions of order at least 4; 6 // 2 = 3
        with pytest.raises(InputError, match="sub-expansion"):
            clique_branch_separation(g, 2, eta)

    def test_bad_witness_rejected(self):
        g = k8_plus([])
        eta = singleton_expansion(g, range(8))
        bad = CliqueExpansion(
            eta.supernodes, eta.tree_edges, eta.edge_map, {**eta.centers, 0: 7}
        )
        with pytest.raises(InputError, match="does not verify"):
            clique_branch_separation(g, 1, bad)

    def test_deterministic(self):
        g = k8_plus(
            [(0, 8, 0), (8, 1, 1), (1, 9, 0), (9, 2, 1), (0, 10, 0), (10, 2, 1)]
        )
        eta = singleton_expansion(g, range(8))
        first = clique_branch_separation(g, 2, eta)
        second = clique_branch_separation(g, 2, eta)
        assert first == second

    @pytest.mark.parametrize("seed", range(14))
    def test_k1_always_settles(self, seed):
        """The solver sends a central block this branch leaves unsettled
        to its fallbacks only at k >= 2, which rests on k = 1 always
        answering: on the K8 fixtures above and a clean one, with random
        handles and pendant pairs on the core, each odd or even."""
        rng = random.Random(seed)
        fixtures = [
            [(0, 1, 1)],
            [(0, 1, 1), (4, 5, 1)],
            [(0, 8, 0), (8, 1, 1), (2, 9, 0), (9, 3, 1)],
            [(0, 8, 0), (8, 1, 1), (1, 9, 0), (9, 2, 1), (0, 10, 0), (10, 2, 1)],
            [(7, 8, 0), (8, 9, 0), (8, 9, 1)],
            [(7, 8, 0), (8, 9, 0), (8, 9, 1), (6, 10, 0), (10, 11, 0), (10, 11, 1)],
            [(0, 8, 0), (8, 1, 0)],
        ]
        extra = list(fixtures[seed % len(fixtures)])
        nxt = 1 + max([7] + [max(u, v) for u, v, _ in extra])
        # the S-path search behind the branch stops at 14 vertices
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(8), 2)
            if nxt >= 13:
                break
            odd = rng.randint(0, 1)
            if rng.random() < 0.5:  # a handle between two core vertices
                extra += [(u, nxt, 0), (nxt, v, odd)]
                nxt += 1
            else:  # a pendant parallel pair behind one core vertex
                extra += [(u, nxt, 0), (nxt, nxt + 1, 0), (nxt, nxt + 1, odd)]
                nxt += 2
        g = k8_plus(extra)
        result = clique_branch_separation(
            g, 1, singleton_expansion(g, range(8))
        )
        assert result is not None


def reference_tree_path_steps(g, arc_ids, start, goal):
    """The slow definition: breadth-first search over the given arcs from
    start, then the parent links walked back from goal."""
    adj = {}
    for arc_id in sorted(arc_ids):
        arc = g.arc(arc_id)
        adj.setdefault(arc.tail, []).append((arc.head, arc.id, FORWARD))
        adj.setdefault(arc.head, []).append((arc.tail, arc.id, REVERSE))
    if start == goal:
        return ()
    parent = {}
    queue = [start]
    seen = {start}
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w, arc_id, direction in adj.get(u, []):
            if w not in seen:
                seen.add(w)
                parent[w] = (u, arc_id, direction)
                queue.append(w)
    if goal not in parent:
        raise InternalInvariantError("tree arcs do not connect the endpoints")
    steps = []
    v = goal
    while v != start:
        u, arc_id, direction = parent[v]
        steps.append((arc_id, direction))
        v = u
    return tuple(reversed(steps))


class TestTreePathSteps:
    def test_matches_reference_on_random_trees(self):
        """Random trees of 1 to 12 vertices, arcs in either orientation,
        inside a graph with non-tree and parallel arcs; a tenth of the
        cases lose one tree arc, so the endpoints may be disconnected."""
        rng = random.Random(5)
        disconnected = 0
        for _ in range(400):
            n = rng.randint(1, 12)
            total = n + rng.randint(0, 3)
            names = rng.sample(range(total), total)
            arcs = []
            for v in range(1, n):
                u = rng.randrange(v)
                pair = (names[u], names[v])
                arcs.append((*(pair if rng.random() < 0.5 else pair[::-1]), rng.randint(0, 1)))
            tree_ids = list(range(len(arcs)))
            for _ in range(rng.randint(0, 2 * total)):
                arcs.append((rng.randrange(total), rng.randrange(total), rng.randint(0, 1)))
            order = rng.sample(range(len(arcs)), len(arcs))
            g = build_graph(Z2, total, [arcs[i] for i in order])
            tree_ids = [order.index(i) for i in tree_ids]
            rng.shuffle(tree_ids)
            if tree_ids and rng.random() < 0.1:
                tree_ids.pop()
            start, goal = names[rng.randrange(n)], names[rng.randrange(n)]
            try:
                want = reference_tree_path_steps(g, tree_ids, start, goal)
            except InternalInvariantError:
                disconnected += 1
                with pytest.raises(InternalInvariantError):
                    _tree_path_steps(g, tree_ids, start, goal)
                continue
            assert _tree_path_steps(g, tree_ids, start, goal) == want
        assert disconnected > 10


def irrelevant_fixture():
    """Identity K7 holding the expansion, odd gadget behind boundary {0, 1}."""
    arcs = [(u, v, 0) for u, v in itertools.combinations(range(7), 2)]
    arcs += [(0, 7, 0), (1, 7, 0), (7, 8, 0), (7, 8, 1)]
    g = build_graph(Z2, 9, arcs)
    sep = Separation(frozenset(range(7)), frozenset({0, 1, 7, 8}))
    eta = singleton_expansion(g, [2, 3, 4, 5, 6])
    return g, sep, eta


class TestCliqueBranchIrrelevant:
    def test_returns_deletable_vertex(self):
        g, sep, eta = irrelevant_fixture()
        v = clique_branch_irrelevant(g, 1, eta, sep)
        assert v in {2, 3, 4, 5, 6}
        reduced = g.delete_vertices({v})
        for k in (1, 2):
            for p in range(g.n + 1):
                if ep_predicate(reduced, k, p):
                    assert ep_predicate(g, k, p), f"k={k} p={p}"

    def test_user_supplied_z(self):
        g, sep, eta = irrelevant_fixture()
        v = clique_branch_irrelevant(
            g, 1, eta, sep, z=[6, 5, 4, 3, 2]
        )
        assert v in {2, 3, 4, 5, 6}

    def test_boundary_order_bounds(self):
        # order-one boundary carries no room for the argument
        arcs = [(u, v, 0) for u, v in itertools.combinations(range(7), 2)]
        arcs += [(0, 7, 0), (7, 8, 0), (7, 8, 1)]
        g1 = build_graph(Z2, 9, arcs)
        sep1 = Separation(frozenset(range(7)), frozenset({0, 7, 8}))
        eta1 = singleton_expansion(g1, [2, 3, 4, 5, 6])
        with pytest.raises(InputError, match="order"):
            clique_branch_irrelevant(g1, 1, eta1, sep1)

    def test_expansion_must_avoid_boundary(self):
        g, sep, eta = irrelevant_fixture()
        touching = singleton_expansion(g, [1, 3, 4, 5, 6])
        with pytest.raises(InputError, match="inside"):
            clique_branch_irrelevant(g, 1, touching, sep)

    def test_non_clean_near_side_rejected(self):
        arcs = [(u, v, 0) for u, v in itertools.combinations(range(7), 2)]
        arcs[0] = (0, 1, 1)  # odd chord inside A
        arcs += [(0, 7, 0), (1, 7, 0), (7, 8, 0), (7, 8, 1)]
        g = build_graph(Z2, 9, arcs)
        sep = Separation(frozenset(range(7)), frozenset({0, 1, 7, 8}))
        eta = singleton_expansion(g, [2, 3, 4, 5, 6])
        with pytest.raises(InputError):
            clique_branch_irrelevant(g, 1, eta, sep)

    def test_bad_k_rejected(self):
        g, sep, eta = irrelevant_fixture()
        with pytest.raises(InputError):
            clique_branch_irrelevant(g, 0, eta, sep)

    def test_deterministic(self):
        g, sep, eta = irrelevant_fixture()
        a = clique_branch_irrelevant(g, 1, eta, sep)
        b = clique_branch_irrelevant(g, 1, eta, sep)
        assert a == b
