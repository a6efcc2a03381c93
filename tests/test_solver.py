"""The driver: arc stripping, branch selection, recursion, certificate lifts.

Fixtures are sized so the exhaustive oracle stays cheap.
The K8-core fixtures steer the driver into the clique-expansion machinery;
their expected outcomes were measured once and frozen.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epkit.solver
from epkit.certificates import certificate_to_json_dict
from epkit.errors import GuardExceeded, InputError
from epkit.generators import escher_wall, odd_cycles, random_instance, zm_grid
from epkit.graph import LabeledGraph, build_graph, dump_json
from epkit.groups import Cyclic, Symmetric, elements, identity, inverse, is_identity, multiply
from epkit.labeling import is_clean
from epkit.oracle import enumerate_non_null_cycles
from epkit.packing import CliqueExpansion
from epkit.solver import (
    DriverConfig,
    paper_tw_threshold,
    rho_prime,
    sigma_prime,
    solve,
    strip_null_arcs,
    tau_threshold,
)
from epkit.treedec import tree_decomposition
from epkit.verify import verify_certificate
from test_treedec import random_order_decomposition

Z2 = Cyclic(2)


def z2_graph(n, arcs):
    return build_graph(Z2, n, arcs)


def arc_between(g, u, v):
    return min(a.id for a in g.arcs if {a.tail, a.head} == {u, v})


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


def k8_plus(extra):
    arcs = [(u, v, 0) for u, v in itertools.combinations(range(8), 2)] + list(extra)
    n = max(8, max(max(t, h) + 1 for t, h, _ in arcs))
    return z2_graph(n, arcs)


def gated_core():
    """Identity K8 core, an odd path spanning two gates, and an odd pair
    confined behind one gate. The clique branch cuts at the gates with a
    clean near side, which is what reaches the irrelevant-vertex step."""
    core = list(range(2, 10))
    arcs = [(u, v, 0) for u, v in itertools.combinations(core, 2)]
    arcs += [(2, 0, 0), (0, 10, 0), (10, 1, 1), (3, 1, 0)]
    arcs += [(1, 11, 0), (1, 11, 1)]
    g = z2_graph(12, arcs)
    return g, singleton_expansion(g, core)


def reference_strip(g):
    """The definition: drop every arc that lies on no non-null cycle, by a
    simple-path DFS per arc, repeated until nothing changes."""
    current = g
    while True:
        drop = [a.id for a in current.arcs if not on_non_null_cycle(current, a)]
        if not drop:
            return current
        current = current.delete_arcs(drop)


def on_non_null_cycle(g, arc):
    if arc.is_loop:
        return not is_identity(arc.label)
    # the cycle is non-null exactly when some head-to-tail path avoiding
    # the arc has a value other than the arc label's inverse
    target = inverse(arc.label)

    def dfs(v, visited, value):
        for nxt in g.incident(v):
            if nxt.id == arc.id or nxt.is_loop:
                continue
            w = nxt.other(v)
            extended = multiply(value, nxt.label if nxt.tail == v else inverse(nxt.label))
            if w == arc.tail:
                if extended != target:
                    return True
            elif w not in visited and dfs(w, visited | {w}, extended):
                return True
        return False

    return dfs(arc.head, frozenset({arc.head}), identity(g.group))


def random_strip_instance(rng, group):
    """Up to 12 vertices, some isolated, with identity and non-identity
    loops and parallel arcs."""
    pool = list(elements(group))
    n = rng.randint(1, 12)
    used = rng.randint(1, n)  # vertices from `used` on stay isolated
    arcs = []
    for _ in range(rng.randint(0, used + 6)):
        u, v = rng.randrange(used), rng.randrange(used)
        # lean toward identity labels so that clean blocks are common
        label = identity(group) if rng.random() < 0.3 else rng.choice(pool)
        arcs.append((u, v, label))
        if u != v and rng.random() < 0.15:
            arcs.append((v, u, rng.choice(pool)))
    return build_graph(group, n, arcs)


class TestStripNullArcs:
    def test_identity_triangle_all_stripped(self):
        g = z2_graph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        assert strip_null_arcs(g).arcs == ()

    def test_odd_triangle_kept(self):
        g = z2_graph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 1)])
        assert len(strip_null_arcs(g).arcs) == 3

    def test_bridge_to_odd_cycle_stripped(self):
        # the bridge lies on paths but never on a cycle
        g = z2_graph(4, [(0, 1, 0), (1, 2, 0), (2, 0, 1), (0, 3, 0)])
        kept = strip_null_arcs(g)
        assert len(kept.arcs) == 3
        assert all({a.tail, a.head} <= {0, 1, 2} for a in kept.arcs)

    def test_identity_loop_stripped_odd_loop_kept(self):
        g = z2_graph(2, [(0, 0, 0), (1, 1, 1)])
        kept = strip_null_arcs(g)
        assert [a.id for a in kept.arcs] == [1]

    def test_parallel_pair_kept(self):
        g = z2_graph(2, [(0, 1, 0), (0, 1, 1)])
        assert len(strip_null_arcs(g).arcs) == 2

    def test_identity_parallel_pair_stripped(self):
        g = z2_graph(2, [(0, 1, 0), (0, 1, 0)])
        assert strip_null_arcs(g).arcs == ()

    def test_idempotent(self):
        g = k8_plus([(0, 8, 0), (8, 1, 1)])
        once = strip_null_arcs(g)
        assert strip_null_arcs(once).arcs == once.arcs

    def test_preserves_non_null_cycles(self):
        for seed in range(12):
            g = random_instance(7, 14, Z2, seed=seed)
            kept = strip_null_arcs(g)
            a = {tuple(sorted(c.steps)) for c in enumerate_non_null_cycles(g)}
            b = {tuple(sorted(c.steps)) for c in enumerate_non_null_cycles(kept)}
            assert a == b, seed

    def test_answers_above_fourteen_vertices(self):
        g = odd_cycles(5, 3)
        assert strip_null_arcs(g) is g
        big = odd_cycles(1, 3000)
        assert strip_null_arcs(big) is big

    def test_shared_cut_vertex_is_linear(self, monkeypatch, multiplications):
        # 3000 odd triangles on one hub: checking each block by scanning its
        # vertices' incidence lists read the hub's 6000 arcs once per block
        t = 3000
        arcs = []
        for i in range(t):
            a, b = 1 + 2 * i, 2 + 2 * i
            arcs += [(0, a, 0), (a, b, 0), (b, 0, 1)]
        g = z2_graph(2 * t + 1, arcs)
        read = 0
        real = LabeledGraph.incident

        def counted(self, v):
            nonlocal read
            arcs_at = real(self, v)
            read += len(arcs_at)
            return arcs_at

        monkeypatch.setattr(LabeledGraph, "incident", counted)
        assert strip_null_arcs(g) is g
        size = g.n + len(g.arcs)
        assert read <= 2 * size
        assert multiplications[0] <= 4 * size

    def test_matches_dfs_reference(self):
        rng = random.Random(20261018)
        groups = [Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3)]
        for trial in range(400):
            g = random_strip_instance(rng, groups[trial % len(groups)])
            got = strip_null_arcs(g)
            want = reference_strip(g)
            assert [a.id for a in got.arcs] == [a.id for a in want.arcs], trial
            assert got.vertices == want.vertices == g.vertices, trial

    def test_stripped_graph_is_clean_exactly_when_arcless(self):
        # every arc the strip keeps lies on a non-null cycle, which the
        # driver relies on in place of a clean check after each strip
        rng = random.Random(20261019)
        groups = [Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3)]
        arcless = 0
        for trial in range(1000):
            stripped = strip_null_arcs(random_strip_instance(rng, groups[trial % 4]))
            assert is_clean(stripped) == (not stripped.arcs), trial
            arcless += not stripped.arcs
        assert 0 < arcless < 1000


class TestThresholdArithmetic:
    def test_monotone(self):
        assert rho_prime(1) < rho_prime(2) < rho_prime(3)
        assert sigma_prime(1) < sigma_prime(2)
        assert tau_threshold(1) < tau_threshold(2)

    def test_tau_dominates_cover_budget(self):
        for k in (1, 2, 3):
            assert tau_threshold(k) >= (k - 1) * (paper_tw_threshold(k) + 1)

    def test_paper_threshold_is_astronomical(self):
        # the wall-size floor guarantees the reported bound dwarfs any
        # instance this package can hold
        assert paper_tw_threshold(1).bit_length() > 63

    def test_tau_validation(self):
        assert tau_threshold(0) == 0
        with pytest.raises(InputError):
            tau_threshold(-1)


class TestDriverConfig:
    def test_defaults(self):
        cfg = DriverConfig()
        assert cfg.tw_threshold == 4
        assert cfg.thresholds_mode == "small"
        assert not cfg.oracle_fallback

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tw_threshold": 0},
            {"thresholds_mode": "tiny"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            DriverConfig(**kwargs)


class TestSolveBoundedTw:
    def test_clean_graph_empty_cover(self):
        g = z2_graph(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
        for k in (1, 2, 3):
            cert = solve(g, k)
            assert cert.kind == "gfvs"
            assert cert.outcome.vertices == ()
            assert any(t["step"] == "clean" for t in cert.trail)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_disjoint_odd_triangles_pack(self, k):
        g = odd_cycles(k)
        cert = solve(g, k)
        assert cert.kind == "packing"
        assert cert.outcome.integrality == "integral"
        assert len(cert.outcome.cycles) == k
        assert verify_certificate(g, cert) == (True, "")

    def test_cover_when_packing_impossible(self):
        g = odd_cycles(2)
        cert = solve(g, 3)
        assert cert.kind == "gfvs"
        # the decomposition branch promises the budget, not minimality
        assert len(cert.outcome.vertices) <= 2 * 3
        assert verify_certificate(g, cert) == (True, "")

    def test_cover_size_within_trail_bound(self):
        g = zm_grid(2, 2, 4)
        cert = solve(g, 3)
        entry = next(
            t
            for t in cert.trail
            if t["step"] == "bounded-treewidth" and t.get("result") == "cover"
        )
        assert entry["cover_size"] <= entry["bound"]

    def test_supplied_decomposition_used(self):
        g = odd_cycles(2)
        td = random_order_decomposition(g, 3)
        cert = solve(g, 2, td=td)
        assert cert.kind == "packing"
        assert verify_certificate(g, cert) == (True, "")

    def test_k_validation(self):
        g = odd_cycles(1)
        with pytest.raises(InputError):
            solve(g, 0)

    def test_guard_on_large_instance(self):
        g = z2_graph(15, [(0, 1, 1), (1, 0, 0)])
        cert = solve(g, 1)
        assert cert.kind == "packing"
        assert verify_certificate(g, cert) == (True, "")
        # 21 vertices at treewidth 2 take the bounded-treewidth branch
        big = odd_cycles(7)
        cert = solve(big, 1)
        assert cert.kind == "packing"
        assert verify_certificate(big, cert) == (True, "")
        # 21 vertices at min-fill width 6, above a threshold of 2: the oracle
        # fallback still trips its vertex guard
        wall = escher_wall(3)
        with pytest.raises(GuardExceeded, match="oracle limited to 14 vertices, got 21"):
            solve(wall, 2, DriverConfig(tw_threshold=2, oracle_fallback=True))


class TestMinFillRouting:
    """Every level decomposes by min-fill, whatever the graph's size."""

    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda: odd_cycles(7, 3), 2),
            (lambda: odd_cycles(1, 3000), 1),
            (lambda: odd_cycles(300, 3), 200),
            (lambda: zm_grid(3, 4, 100), 2),
        ],
        ids=["odd-cycles-7", "cycle-3000", "triangles-300", "zm-grid-3x4x100"],
    )
    def test_large_low_width_instances_pack(self, make, k):
        g = make()
        cert = solve(g, k)
        assert cert.kind == "packing"
        assert [t["step"] for t in cert.trail] == [
            "strip", "treewidth", "bounded-treewidth"
        ]
        assert verify_certificate(g, cert) == (True, "")

    def test_width_is_min_fill_of_stripped_graph(self):
        seen_large = False
        for seed in range(40):
            group = (Cyclic(2), Cyclic(3), Cyclic(6), Symmetric(3))[seed % 4]
            n = 6 + seed
            g = random_instance(n, n + n // 3, group, seed=seed)
            cert = solve(g, 2, DriverConfig(tw_threshold=n))
            assert verify_certificate(g, cert) == (True, ""), seed
            assert "treewidth-skipped" not in [t["step"] for t in cert.trail], seed
            stripped = strip_null_arcs(g)
            if is_clean(stripped):
                continue
            entry = cert.trail[1]
            assert entry["step"] == "treewidth"
            assert entry["width"] == tree_decomposition(stripped, "heuristic").width
            seen_large |= g.n > 20
        assert seen_large


PROBE_GROUPS = {"z2": Cyclic(2), "s3": Symmetric(3)}
PROBE_GRAPHS = [
    (n, ratio, group)
    for n in (60, 200, 1000)
    for ratio in (1.2, 1.5, 2.0)
    for group in PROBE_GROUPS
]


class TestEveryInputAnswers:
    """Above the width threshold with no witness, the bounded-treewidth
    program answers at the measured width: k disjoint non-null cycles, or a
    cover within (k-1)(w+1)."""

    @pytest.mark.parametrize(
        "n, ratio, group",
        PROBE_GRAPHS,
        ids=[f"{n}-{ratio}-{group}" for n, ratio, group in PROBE_GRAPHS],
    )
    def test_probe_graphs(self, n, ratio, group):
        g = random_instance(n, round(ratio * n), PROBE_GROUPS[group], seed=7)
        for k in (1, 2, 5):
            cert = solve(g, k)
            assert verify_certificate(g, cert) == (True, ""), k
            width, dp = cert.trail[1], cert.trail[2]
            assert width["width"] > width["threshold"]
            assert dp["step"] == "bounded-treewidth"

    @pytest.mark.parametrize("height, size", [(3, 5), (5, 10), (8, 18)])
    def test_walls_cover_within_the_measured_bound(self, height, size):
        w = escher_wall(height)
        cert = solve(w, 2)
        assert verify_certificate(w, cert) == (True, "")
        dp = cert.trail[-1]
        assert dp["step"] == "bounded-treewidth"
        assert dp["cover_size"] == size == len(cert.outcome.vertices)
        assert dp["bound"] == dp["width"] + 1

    @settings(max_examples=200)
    @given(data=st.data())
    def test_property_no_witness_no_flag(self, data):
        # loops and parallel arcs included; no oracle runs, so no guard trips
        # and no branch is left unimplemented
        group = data.draw(st.sampled_from([Cyclic(2), Cyclic(3), Symmetric(3)]))
        n = data.draw(st.integers(1, 12))
        arcs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.sampled_from(list(elements(group))),
                ),
                max_size=3 * n,
            )
        )
        g = build_graph(group, n, arcs)
        k = data.draw(st.integers(1, 4))
        cfg = DriverConfig(tw_threshold=data.draw(st.integers(1, 3)))
        cert = solve(g, k, cfg)
        assert verify_certificate(g, cert) == (True, "")


class TestSolveExpansionBranch:
    def test_paths_side_packs(self):
        # two vertex-disjoint odd handles on the core
        g = k8_plus([(0, 8, 0), (8, 1, 1), (2, 9, 0), (9, 3, 1)])
        eta = singleton_expansion(g, range(8))
        cert = solve(g, 2, DriverConfig(tw_threshold=2), expansion=eta)
        assert cert.kind == "packing"
        assert cert.outcome.integrality == "half-integral"
        steps = [t["step"] for t in cert.trail]
        assert steps == ["strip", "treewidth", "expansion", "clique-branch"]
        assert verify_certificate(g, cert) == (True, "")

    def test_hitting_side_recurses_to_cover(self):
        # three pairwise-sharing odd handles force the hitting side
        g = k8_plus([(0, 8, 0), (8, 1, 1), (1, 9, 0), (9, 2, 1), (0, 10, 0), (10, 2, 1)])
        eta = singleton_expansion(g, range(8))
        cert = solve(g, 2, DriverConfig(tw_threshold=2), expansion=eta)
        assert cert.kind == "gfvs"
        assert verify_certificate(g, cert) == (True, "")
        recurse = next(t for t in cert.trail if t["step"] == "separation-recurse")
        assert recurse["side"] == "far"
        assert recurse["k"] == 1

    def test_irrelevant_vertex_deleted(self):
        g, eta = gated_core()
        cert = solve(g, 2, DriverConfig(oracle_fallback=True), expansion=eta)
        steps = [t["step"] for t in cert.trail]
        assert steps == [
            "strip",
            "treewidth",
            "expansion",
            "clique-branch",
            "irrelevant",
            "strip",
            "treewidth",
            "oracle-fallback",
        ]
        sep = cert.trail[3]
        assert sep["result"] == "separation"
        assert sep["boundary"] == [0, 3]
        assert cert.trail[4]["vertex"] == 4
        assert cert.kind == "packing"
        assert verify_certificate(g, cert) == (True, "")

    def test_deleting_reported_vertex_preserves_answer(self):
        g, eta = gated_core()
        cert = solve(g, 2, DriverConfig(oracle_fallback=True), expansion=eta)
        v = next(t["vertex"] for t in cert.trail if t["step"] == "irrelevant")
        shrunk = g.delete_vertices({v})
        sub = solve(shrunk, 2, DriverConfig(oracle_fallback=True))
        assert sub.kind == cert.kind

    def test_k1_paths_side(self):
        g, eta = gated_core()
        cert = solve(g, 1, DriverConfig(oracle_fallback=True), expansion=eta)
        assert cert.kind == "packing"
        assert verify_certificate(g, cert) == (True, "")

    def test_bad_witness_rejected(self):
        g = k8_plus([(0, 8, 0), (8, 1, 1)])
        eta = singleton_expansion(g, range(8))
        broken = CliqueExpansion(
            supernodes=eta.supernodes,
            tree_edges=eta.tree_edges,
            edge_map={pair: 0 for pair in eta.edge_map},
            centers=eta.centers,
        )
        with pytest.raises(InputError):
            solve(g, 2, DriverConfig(tw_threshold=2), expansion=broken)

    def test_undersized_witness_rejected(self):
        # order 8 splits into sub-expansions too small for k=3
        g, eta = gated_core()
        with pytest.raises(InputError):
            solve(g, 3, DriverConfig(tw_threshold=2), expansion=eta)


class TestBlockCase:
    """Where the clique branch cannot settle its central block, the level
    answers anyway: by the bounded-treewidth program on its decomposition,
    or by the oracle when that is enabled."""

    def run(self, monkeypatch, cfg):
        def unsettled(*args, **kwargs):
            return None  # central block not clean

        monkeypatch.setattr(epkit.solver, "clique_branch_separation", unsettled)
        g = k8_plus([(0, 8, 0), (8, 1, 1), (2, 9, 0), (9, 3, 1)])
        cert = solve(g, 2, cfg, expansion=singleton_expansion(g, range(8)))
        assert verify_certificate(g, cert) == (True, "")
        return cert

    def test_bounded_treewidth_without_fallback(self, monkeypatch):
        cert = self.run(monkeypatch, DriverConfig(tw_threshold=2))
        assert [t["step"] for t in cert.trail] == [
            "strip", "treewidth", "expansion", "bounded-treewidth"
        ]
        assert cert.trail[2]["source"] == "witness"
        assert cert.trail[1]["width"] > cert.trail[1]["threshold"]
        assert cert.kind == "packing"

    def test_oracle_with_fallback(self, monkeypatch):
        cert = self.run(monkeypatch, DriverConfig(tw_threshold=2, oracle_fallback=True))
        fallback = cert.trail[-1]
        assert fallback == {"step": "oracle-fallback", "fallback": True, "reason": "block"}
        assert cert.kind == "packing"


class TestSolveWallCase:
    def test_wall_answers_without_fallback(self):
        # above the threshold with no witness, the bounded-treewidth
        # program answers at the measured width
        w = escher_wall(2)
        cert = solve(w, 2, DriverConfig(tw_threshold=2))
        assert verify_certificate(w, cert) == (True, "")
        width = cert.trail[1]
        assert width["width"] > width["threshold"]
        dp = cert.trail[2]
        assert dp["step"] == "bounded-treewidth"
        assert dp["result"] == "cover"
        assert dp["cover_size"] <= dp["bound"]

    def test_fallback_packs_the_wall(self):
        w = escher_wall(2)
        cert = solve(w, 2, DriverConfig(tw_threshold=2, oracle_fallback=True))
        assert cert.kind == "packing"
        fallback = next(t for t in cert.trail if t["step"] == "oracle-fallback")
        assert fallback["fallback"] is True
        assert verify_certificate(w, cert) == (True, "")

    def test_fallback_covers_beyond_packing(self):
        w = escher_wall(2)
        cert = solve(w, 4, DriverConfig(tw_threshold=2, oracle_fallback=True))
        assert cert.kind == "gfvs"
        assert verify_certificate(w, cert) == (True, "")


class TestPaperMode:
    def test_decomposition_branch_with_reported_threshold(self):
        w = escher_wall(2)
        cert = solve(w, 2, DriverConfig(thresholds_mode="paper"))
        tw_entry = next(t for t in cert.trail if t["step"] == "treewidth")
        # the threshold is astronomical, reported by bit length
        assert isinstance(tw_entry["threshold"], dict)
        assert tw_entry["threshold"]["bits"] > 63
        assert verify_certificate(w, cert) == (True, "")

    def test_cover_budget_recorded(self):
        w = escher_wall(2)
        cert = solve(w, 2, DriverConfig(thresholds_mode="paper"))
        assert cert.kind == "gfvs"
        budget = next(t for t in cert.trail if t["step"] == "cover-budget")
        assert budget["cover_size"] == len(cert.outcome.vertices)
        assert budget["budget"]["bits"] > 63


class TestCoverRepair:
    """The irrelevant-vertex guarantee is for the predicate, not for any
    particular cover, so the driver re-checks lifted covers against each
    pre-deletion graph. The organic route to a deletion needs a supplied
    expansion on instances beyond the oracle guard, so the first level's
    branch seam is stubbed to report one."""

    def stub_first_deletion(self, monkeypatch, vertex):
        real = epkit.solver._bounded_tw_branch
        calls = {"n": 0}

        def fake(g, k, td, trail):
            calls["n"] += 1
            if calls["n"] == 1:
                trail.append({"step": "stub"})
                return vertex
            return real(g, k, td, trail)

        monkeypatch.setattr(epkit.solver, "_bounded_tw_branch", fake)

    def test_needed_vertex_added_back(self, monkeypatch):
        g = odd_cycles(2)
        self.stub_first_deletion(monkeypatch, 0)
        cert = solve(g, 3)
        assert cert.trail[3] == {"step": "irrelevant", "vertex": 0}
        assert cert.kind == "gfvs"
        repair = next(t for t in cert.trail if t["step"] == "cover-repair")
        assert repair["added_back"] == [0]
        assert 0 in cert.outcome.vertices
        assert verify_certificate(g, cert) == (True, "")

    def test_harmless_deletion_needs_no_repair(self, monkeypatch):
        g = z2_graph(
            7,
            [(0, 1, 0), (1, 2, 0), (2, 0, 1),
             (3, 4, 0), (4, 5, 0), (5, 3, 1),
             (0, 6, 0)],
        )
        self.stub_first_deletion(monkeypatch, 6)
        cert = solve(g, 3)
        assert cert.trail[3] == {"step": "irrelevant", "vertex": 6}
        assert cert.kind == "gfvs"
        assert all(t["step"] != "cover-repair" for t in cert.trail)
        assert verify_certificate(g, cert) == (True, "")


class TestSolveRandomVerified:
    @pytest.mark.parametrize("group", [Cyclic(2), Cyclic(3), Symmetric(3)])
    def test_every_certificate_verifies(self, group):
        for seed in range(15):
            g = random_instance(8, 13, group, seed=seed)
            for k in (1, 2):
                cert = solve(g, k, DriverConfig(oracle_fallback=True))
                assert verify_certificate(g, cert) == (True, ""), (seed, k)

    def test_deterministic_output(self):
        g = random_instance(9, 16, Cyclic(3), seed=42)
        a = solve(g, 2, DriverConfig(oracle_fallback=True))
        b = solve(g, 2, DriverConfig(oracle_fallback=True))
        assert dump_json(certificate_to_json_dict(a)) == dump_json(
            certificate_to_json_dict(b)
        )

    def test_deterministic_on_expansion_fixture(self):
        g, eta = gated_core()
        a = solve(g, 2, DriverConfig(oracle_fallback=True), expansion=eta)
        b = solve(g, 2, DriverConfig(oracle_fallback=True), expansion=eta)
        assert dump_json(certificate_to_json_dict(a)) == dump_json(
            certificate_to_json_dict(b)
        )
