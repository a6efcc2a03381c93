"""Clique expansions, non-null S-path duality, and the expansion branch.

The two branch entry points mirror each other: `clique_branch_separation`
turns a large expansion into either a half-integral packing or a separation
whose far side holds all the non-null structure, and
`clique_branch_irrelevant` consumes such a separation (with a clean near
side) to name a deletable vertex.

The paper's expansion orders grow so fast that no concrete instance can
meet them, so the branch demands only the floor its own construction
consumes (`small_mode_floor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .cuts import find_irrelevant_vertex
from .errors import GuardExceeded, InputError, InternalInvariantError
from .graph import (
    FORWARD,
    REVERSE,
    LabeledGraph,
    Separation,
    Walk,
    _json_int,
    _json_int_list,
    _json_key,
    _one_key_per_id,
    blocks_and_cut_vertices,
    reach,
    step_table,
    validate_separation,
    walk_vertices,
)
from .groups import identity
from .labeling import (
    _extract_non_null_from_closed,
    find_non_null_cycle,
    is_clean,
    untangle,
)
from .oracle import (
    DEFAULT_GUARDS,
    OracleGuards,
    _path_value,
    _step_payloads,
    min_hitting_set,
    pack_sets,
    simple_paths,
)
from .treedec import PackingCertificate, verify_packing


def small_mode_floor(k: int) -> int:
    """Minimum per-sub-expansion order the construction itself consumes:
    survive a (3k-3)-vertex deletion and still leave one whole supernode,
    and keep at least two centers for the path duality."""
    return max(2, 3 * k - 2)


# Clique expansions ---------------------------------------------------------------

@dataclass(frozen=True)
class CliqueExpansion:
    """A K_ell model: disjoint trees joined pairwise by single arcs.

    supernodes: model vertex -> tree vertex set
    tree_edges: model vertex -> arc ids forming that tree
    edge_map:   (u, v) with u < v -> arc id joining the two trees
    centers:    model vertex -> chosen vertex of its tree
    """

    supernodes: dict[int, frozenset[int]]
    tree_edges: dict[int, tuple[int, ...]]
    edge_map: dict[tuple[int, int], int]
    centers: dict[int, int]

    @property
    def order(self) -> int:
        return len(self.supernodes)

    def union_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for nodes in self.supernodes.values():
            out |= nodes
        return frozenset(out)


def verify_expansion(g: LabeledGraph, eta: CliqueExpansion, ell: int) -> bool:
    """Pure predicate: trees disjoint and spanning, centers inside, every
    model pair joined by an arc with one endpoint in each tree."""
    model = sorted(eta.supernodes)
    if len(model) != ell or len(set(model)) != ell:
        return False
    if sorted(eta.tree_edges) != model or sorted(eta.centers) != model:
        return False
    seen: set[int] = set()
    for mv in model:
        nodes = eta.supernodes[mv]
        if not nodes or any(not g.has_vertex(v) for v in nodes):
            return False
        if seen & nodes:
            return False
        seen |= nodes
        arcs = eta.tree_edges[mv]
        if len(arcs) != len(nodes) - 1 or len(set(arcs)) != len(arcs):
            return False
        adj: dict[int, list[int]] = {v: [] for v in nodes}
        for arc_id in arcs:
            try:
                arc = g.arc(arc_id)
            except InputError:
                return False
            if arc.is_loop or arc.tail not in adj or arc.head not in adj:
                return False
            adj[arc.tail].append(arc.head)
            adj[arc.head].append(arc.tail)
        if reach(adj, [min(nodes)]) != nodes:
            return False
        if eta.centers[mv] not in nodes:
            return False
    expected = {(u, v) for u, v in combinations(model, 2)}
    if set(eta.edge_map) != expected:
        return False
    for (u, v), arc_id in eta.edge_map.items():
        try:
            arc = g.arc(arc_id)
        except InputError:
            return False
        in_u = {arc.tail, arc.head} & eta.supernodes[u]
        in_v = {arc.tail, arc.head} & eta.supernodes[v]
        if len(in_u) != 1 or len(in_v) != 1:
            return False
    return True


def expansion_to_json_dict(eta: CliqueExpansion) -> dict:
    return {
        "supernodes": {str(mv): sorted(vs) for mv, vs in eta.supernodes.items()},
        "tree_edges": {str(mv): list(arcs) for mv, arcs in eta.tree_edges.items()},
        "edge_map": {f"{u},{v}": arc_id for (u, v), arc_id in eta.edge_map.items()},
        "centers": {str(mv): c for mv, c in eta.centers.items()},
    }


def expansion_from_json_dict(doc: dict) -> CliqueExpansion:
    if not isinstance(doc, dict):
        raise InputError("expansion document must be an object")
    for key in ("supernodes", "tree_edges", "edge_map", "centers"):
        if key not in doc or not isinstance(doc[key], dict):
            raise InputError(f"expansion document needs object field '{key}'")
    supernodes = _one_key_per_id({
        _json_key(mv, "supernodes key"): frozenset(_json_int_list(vs, f"supernode {mv}"))
        for mv, vs in doc["supernodes"].items()
    }, doc["supernodes"], "'supernodes'")
    tree_edges = _one_key_per_id({
        _json_key(mv, "tree_edges key"): tuple(_json_int_list(a, f"tree_edges {mv}"))
        for mv, a in doc["tree_edges"].items()
    }, doc["tree_edges"], "'tree_edges'")
    edge_map: dict[tuple[int, int], int] = {}
    for key, arc_id in doc["edge_map"].items():
        ends = key.split(",") if isinstance(key, str) else ()
        if len(ends) != 2:
            raise InputError(f"edge_map key {key!r} is not 'u,v'")
        u, v = (_json_key(end, "edge_map key") for end in ends)
        edge_map[(min(u, v), max(u, v))] = _json_int(arc_id, f"edge_map {key}")
    _one_key_per_id(edge_map, doc["edge_map"], "'edge_map'")
    centers = _one_key_per_id({
        _json_key(mv, "centers key"): _json_int(c, f"center {mv}")
        for mv, c in doc["centers"].items()
    }, doc["centers"], "'centers'")
    return CliqueExpansion(supernodes, tree_edges, edge_map, centers)


# Non-null S-path duality -----------------------------------------------------------

@dataclass(frozen=True)
class SPathDualityResult:
    """Exactly one side is set: a packing of disjoint non-null S-paths, or
    a hitting set meeting every non-null S-path."""

    paths: Optional[tuple[Walk, ...]]
    hitting_set: Optional[tuple[int, ...]]

    def __post_init__(self):
        if (self.paths is None) == (self.hitting_set is None):
            raise InputError("result must carry exactly one side")

    @property
    def side(self) -> str:
        return "paths" if self.paths is not None else "hitting_set"


def enumerate_non_null_s_paths(
    g: LabeledGraph,
    s: Iterable[int],
    guards: OracleGuards = DEFAULT_GUARDS,
    stop_at: Optional[int] = None,
) -> list[Walk]:
    """Every non-null S-path once, traversed from its smaller endpoint.

    Paths are arc sequences: parallel arcs give distinct paths. Interior
    vertices stay outside S, so the family is finite and canonical.
    `stop_at` ends the search once that many paths are found, which are
    then the family's first ones in its order. The vertex guard still
    applies; the path guard fires only if `stop_at` exceeds it.
    """
    s_set = frozenset(s)
    for v in s_set:
        if not g.has_vertex(v):
            raise InputError(f"S names vertex {v} not in the graph")
    if g.n > guards.max_vertices:
        raise GuardExceeded(
            f"S-path search limited to {guards.max_vertices} vertices, got {g.n}"
        )
    spec = g.group
    table = step_table(g)
    payload = _step_payloads(g, table)
    e = identity(spec).payload
    out: list[Walk] = []
    for start in sorted(s_set):

        def record(end: int, steps: tuple[tuple[int, int], ...]) -> bool:
            if end > start and _path_value(spec, payload, steps) != e:
                out.append(Walk(steps))
                if len(out) > guards.max_cycles:
                    raise GuardExceeded(
                        f"more than {guards.max_cycles} non-null S-paths"
                    )
            return stop_at is not None and len(out) >= stop_at

        if simple_paths(table, start, s_set, (), record):
            break
    return out


def non_null_s_paths_or_hitting_set(
    g: LabeledGraph,
    s: Iterable[int],
    k: int,
    guards: OracleGuards = DEFAULT_GUARDS,
) -> SPathDualityResult:
    """Either k vertex-disjoint non-null S-paths or a hitting set of size
    at most 2k-2. The hitting set is an exact minimum; when fewer than k
    disjoint paths exist, a hitting set of at most twice the packing size
    always does, so the depth cap cannot be the reason for missing one.

    At k = 1 the first non-null S-path fixes the answer (the empty hitting
    set when there is none), so the search stops there and answers however
    many paths the graph has. k >= 2 enumerates every path and raises
    GuardExceeded past `guards.max_cycles` of them. Both raise it past
    `guards.max_vertices` vertices."""
    if k < 1:
        raise InputError("k must be positive")
    s_set = frozenset(s)
    paths = enumerate_non_null_s_paths(
        g, s_set, guards, stop_at=1 if k == 1 else None
    )
    vertex_sets = [frozenset(walk_vertices(g, p)) for p in paths]
    chosen = pack_sets(vertex_sets, 1, k)
    if len(chosen) >= k:
        return SPathDualityResult(
            paths=tuple(paths[i] for i in chosen[:k]), hitting_set=None
        )
    hitting = min_hitting_set(vertex_sets, 2 * k - 2)
    if hitting is None:
        raise InternalInvariantError(
            "no hitting set within the guaranteed 2k-2 bound"
        )
    return SPathDualityResult(paths=None, hitting_set=hitting)


# The expansion branch ---------------------------------------------------------------

def _restrict_expansion(eta: CliqueExpansion, keep: list[int]) -> CliqueExpansion:
    keep_set = set(keep)
    return CliqueExpansion(
        supernodes={mv: eta.supernodes[mv] for mv in keep},
        tree_edges={mv: eta.tree_edges[mv] for mv in keep},
        edge_map={
            pair: arc_id
            for pair, arc_id in eta.edge_map.items()
            if pair[0] in keep_set and pair[1] in keep_set
        },
        centers={mv: eta.centers[mv] for mv in keep},
    )


def _tree_path_steps(
    g: LabeledGraph, arc_ids: Iterable[int], start: int, goal: int
) -> tuple[tuple[int, int], ...]:
    """Steps from start to goal using only the given (tree) arcs: the one
    simple path between them. The search recurses once per step, and the
    caller's graph has passed the S-path duality's 14-vertex guard."""
    if start == goal:
        return ()
    table: dict[int, list[tuple[int, tuple[int, int]]]] = {start: []}
    for arc_id in arc_ids:
        arc = g.arc(arc_id)
        table.setdefault(arc.tail, []).append((arc.head, (arc.id, FORWARD)))
        table.setdefault(arc.head, []).append((arc.tail, (arc.id, REVERSE)))
    found: list[tuple[tuple[int, int], ...]] = []
    # emit keeps the first path to goal and stops the search there
    if not simple_paths(
        table, start, {goal}, (), lambda _, steps: found.append(steps) or True
    ):
        raise InternalInvariantError("tree arcs do not connect the endpoints")
    return found[0]


def _close_path_through_trees(
    g: LabeledGraph, eta: CliqueExpansion, path: Walk
) -> Walk:
    """The path's endpoints are centers; close it back through the two
    supernode trees and their connecting arc."""
    seq = walk_vertices(g, path)
    owner = {center: mv for mv, center in eta.centers.items()}
    a, b = owner[seq[0]], owner[seq[-1]]
    arc = g.arc(eta.edge_map[(min(a, b), max(a, b))])
    if arc.tail in eta.supernodes[b]:
        v_b, v_a = arc.tail, arc.head
        cross = (arc.id, FORWARD)
    else:
        v_b, v_a = arc.head, arc.tail
        cross = (arc.id, REVERSE)
    back = (
        _tree_path_steps(g, eta.tree_edges[b], seq[-1], v_b)
        + (cross,)
        + _tree_path_steps(g, eta.tree_edges[a], v_a, seq[0])
    )
    return Walk(path.steps + back)


def clique_branch_separation(
    g: LabeledGraph,
    k: int,
    eta_star: CliqueExpansion,
) -> PackingCertificate | Separation | None:
    """Either a half-integral k-packing of non-null cycles, or a separation
    (A, B) with G[A - B] clean, |A n B| <= 3k, and every supernode of
    eta_star disjoint from A n B on the A side; None when the central block
    of the hitting-set case is not clean and k > 1, a case this branch
    does not settle.

    The expansion splits into k sub-expansions. All non-clean: one cycle
    each. Otherwise a clean one is untangled and its centers feed the
    S-path duality; disjoint paths close into half-integral cycles through
    the trees, and a hitting set X localizes all non-null structure behind
    X plus at most k-1 cut vertices of the central block.
    """
    if k < 1:
        raise InputError("k must be positive")
    ell = eta_star.order
    if not verify_expansion(g, eta_star, ell):
        raise InputError("expansion witness does not verify")
    if ell // k < small_mode_floor(k):
        raise InputError(
            f"precondition failed: expansion order {ell} gives sub-expansions "
            f"of order {ell // k} < {small_mode_floor(k)}"
        )

    model = sorted(eta_star.supernodes)
    ell_prime = ell // k
    # remainder supernodes are discarded, lowest model indices kept
    subs = [
        _restrict_expansion(eta_star, model[i * ell_prime : (i + 1) * ell_prime])
        for i in range(k)
    ]
    unions = [sub.union_vertices() for sub in subs]
    witnesses = [find_non_null_cycle(g, u) for u in unions]
    if all(w is not None for w in witnesses):
        cert = PackingCertificate(tuple(witnesses), "integral")
        if not verify_packing(g, cert):
            raise InternalInvariantError("sub-expansion packing fails verification")
        return cert
    clean_idx = next(i for i, w in enumerate(witnesses) if w is None)
    eta = subs[clean_idx]
    area = unions[clean_idx]
    g2 = untangle(g, area)
    s_set = frozenset(eta.centers.values())

    duality = non_null_s_paths_or_hitting_set(g2, s_set, k)
    if duality.paths is not None:
        cycles = []
        for path in duality.paths:
            closed = _close_path_through_trees(g2, eta, path)
            cycles.append(_extract_non_null_from_closed(g2, closed))
        cert = PackingCertificate(tuple(cycles), "half-integral")
        if not verify_packing(g, cert):
            raise InternalInvariantError("closed-walk packing fails verification")
        return cert

    x_set = frozenset(duality.hitting_set)
    deleted = g2.delete_vertices(x_set)
    surviving = [
        mv for mv in sorted(eta.supernodes) if not (eta.supernodes[mv] & x_set)
    ]
    blocks, cut_vertices = blocks_and_cut_vertices(deleted)
    central = [
        blk
        for blk in blocks
        if all(blk & eta.supernodes[mv] for mv in surviving)
    ]
    if len(central) != 1:
        raise InternalInvariantError(
            f"{len(central)} blocks meet every surviving supernode, wanted 1"
        )
    block = central[0]
    if not is_clean(deleted, block):
        # the duality premises do not force this block clean (the pairwise
        # cycle-through-both claim behind that step fails); fall back
        if k == 1:
            witness = find_non_null_cycle(deleted, block)
            cert = PackingCertificate((witness,), "integral")
            if not verify_packing(g, cert):
                raise InternalInvariantError("block witness fails verification")
            return cert
        return None

    pendant_roots = sorted(cut_vertices & block)
    non_clean: list[tuple[int, frozenset[int]]] = []
    deleted_adj = deleted.simple_adjacency()
    for z in pendant_roots:
        comp = reach(deleted_adj, [z], block - {z})
        if not is_clean(deleted, comp):
            non_clean.append((z, comp))
    if len(non_clean) >= k:
        cycles = []
        for _, comp in non_clean[:k]:
            cycles.append(find_non_null_cycle(deleted, comp))
        cert = PackingCertificate(tuple(cycles), "integral")
        if not verify_packing(g, cert):
            raise InternalInvariantError("pendant packing fails verification")
        return cert

    x_prime = frozenset(x_set | {z for z, _ in non_clean})
    if len(x_prime) > 3 * k:
        raise InternalInvariantError(
            f"separator {len(x_prime)} exceeds the 3k bound"
        )
    free = [
        mv for mv in sorted(eta.supernodes) if not (eta.supernodes[mv] & x_prime)
    ]
    if not free:
        raise InternalInvariantError("no supernode survives the separator")
    component = reach(g.simple_adjacency(), [eta.centers[free[0]]], x_prime)
    if not is_clean(g, component):
        raise InternalInvariantError("component behind the separator is not clean")
    a = component | x_prime
    b = x_prime | (frozenset(g.vertices) - component)
    sep = Separation(frozenset(a), frozenset(b))
    validate_separation(g, sep)
    for mv, nodes in sorted(eta_star.supernodes.items()):
        if nodes & x_prime:
            continue
        if not nodes <= sep.a - sep.b:
            raise InternalInvariantError(
                f"supernode {mv} avoids the separator but is not on the A side"
            )
    return sep


def clique_branch_irrelevant(
    g: LabeledGraph,
    k: int,
    eta: CliqueExpansion,
    sep: Separation,
    z: Optional[Iterable[int]] = None,
) -> int:
    """A vertex whose deletion preserves both certificate sides, given a
    clean near side holding the whole expansion.

    The expansion's centers are the default well-linked set; `z` accepts
    any other set the caller can justify."""
    if k < 1:
        raise InputError("k must be positive")
    ell = eta.order
    if not verify_expansion(g, eta, ell):
        raise InputError("expansion witness does not verify")
    boundary = sep.boundary
    if not 1 < len(boundary) <= 3 * k:
        raise InputError(
            f"precondition failed: separation order {len(boundary)} "
            f"must lie in (1, {3 * k}]"
        )
    if not eta.union_vertices() <= sep.a - sep.b:
        raise InputError(
            "precondition failed: expansion must lie strictly inside the near side"
        )
    z_set = frozenset(z) if z is not None else frozenset(eta.centers.values())
    return find_irrelevant_vertex(g, sep, z_set, len(boundary), k)
