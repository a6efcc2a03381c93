"""The packing-or-cover driver.

Control flow: `_solve` runs one level, and when that level names an
irrelevant vertex v, one more level on G - v. A level strips arcs that lie
on no non-null cycle, takes a tree decomposition, measures its width and
routes once. Above the threshold, a supplied clique-expansion witness runs
the expansion branch, which yields a packing, an irrelevant vertex, or a
separation to recurse behind; where it cannot settle its central block, the
level routes on as if it had no witness. When enabled, the exhaustive
oracle answers above the threshold at k >= 2; the trail marks it `block`
after the expansion branch and `wall` otherwise. Every other level goes to
the bounded-treewidth dynamic program at whatever width it has: it returns
k disjoint non-null cycles or a cover of at most (k-1)(w+1) vertices, so
the threshold only decides which branch runs.

Cover certificates are re-verified at every lift. When the vertex deleted
as irrelevant turns out to be needed by the cover (the equivalence
guarantee is for the predicate, not for any particular witness set), it is
added back; the trail records the repair.
"""

from dataclasses import dataclass
from typing import Optional

from .certificates import Certificate
from .errors import InputError, InternalInvariantError
from .graph import LabeledGraph, Separation, blocks_and_cut_vertices
from .groups import identity, is_identity
from .labeling import (
    GfvsCertificate,
    PotentialMap,
    find_non_null_cycle,
    is_clean,
    verify_gfvs,
)
from .oracle import _max_packing, _min_gfvs, enumerate_non_null_cycles
from .packing import (
    CliqueExpansion,
    _restrict_expansion,
    clique_branch_irrelevant,
    clique_branch_separation,
    verify_expansion,
)
from .treedec import (
    PackingCertificate,
    TreeDecomposition,
    packing_or_cover_bounded_tw,
    tree_decomposition,
    validate_tree_decomposition,
    verify_packing,
)


# the largest threshold a trail integer can hold in 63 bits; at this value
# the dynamic program answers at every level
_MAX_TW_THRESHOLD = 2**63 - 1


@dataclass(frozen=True)
class DriverConfig:
    tw_threshold: int = 4
    oracle_fallback: bool = False

    def __post_init__(self):
        t = self.tw_threshold
        # a bool or a float would reach the trail as it is
        if type(t) is not int or not 1 <= t <= _MAX_TW_THRESHOLD:
            raise InputError(f"tw_threshold must be an integer in [1, {_MAX_TW_THRESHOLD}]")


def strip_null_arcs(g: LabeledGraph) -> LabeledGraph:
    """Remove every arc that lies on no non-null cycle.

    A loop is a cycle on its own and lies on no other, so it stays exactly
    when its label is not the identity. Any other arc stays exactly when
    its biconnected block is not clean:
    - every cycle lies inside one block, so an arc of a clean block lies
      on no non-null cycle;
    - in a 2-connected block with a non-null cycle C, an arc e and C span
      a theta subgraph (e may be an arc of C, or a chord of it);
    - two of the theta's three cycles contain e, and by the theta property
      of gain graphs (if two cycles of a theta are null, so is the third)
      they cannot both be null, since the third cycle is C.
    The dirty blocks come from one potential map over the non-loop arcs.
    An arc that fails to relate closes a non-null cycle with arcs the map
    holds, and that cycle lies in the arc's block, so the block is dirty.
    An arc that relates joins the map, so the map stays the potentials of
    a clean subgraph, and a block all of whose arcs relate is clean.
    Each arc is seen once, however many blocks share a cut vertex, and the
    blocks are found only when some arc conflicts. Removing arcs that lie
    on no non-null cycle leaves every non-null cycle intact, so one pass is
    the fixpoint. The result keeps the arc order and the vertex set, and is
    g itself when nothing is removed.
    """
    pots = PotentialMap(identity(g.group))
    conflicts = [
        a for a in g.arcs if not a.is_loop and not pots.relate(a.tail, a.head, a.label)
    ]
    dirty_at: dict[int, set[int]] = {}
    if conflicts:
        blocks = blocks_and_cut_vertices(g)[0]
        blocks_at: dict[int, list[int]] = {}
        for i, block in enumerate(blocks):
            for v in block:
                blocks_at.setdefault(v, []).append(i)
        dirty = set()
        for a in conflicts:
            # the one block holding both ends, searched from the end in fewer
            u, v = a.tail, a.head
            if len(blocks_at[u]) > len(blocks_at[v]):
                u, v = v, u
            dirty.add(next(i for i in blocks_at[u] if v in blocks[i]))
        for i in dirty:
            for v in blocks[i]:
                dirty_at.setdefault(v, set()).add(i)
    drop = []
    for a in g.arcs:
        if a.is_loop:
            if is_identity(a.label):
                drop.append(a.id)
        elif not dirty_at.get(a.tail, set()) & dirty_at.get(a.head, set()):
            drop.append(a.id)
    return g.delete_arcs(drop) if drop else g


def _oracle_fallback(
    g: LabeledGraph, k: int, reason: str, trail: list[dict]
) -> PackingCertificate | GfvsCertificate:
    trail.append({"step": "oracle-fallback", "fallback": True, "reason": reason})
    non_null = enumerate_non_null_cycles(g)
    cycles = _max_packing(g, non_null, capacity=2, stop_at=k)
    if len(cycles) >= k:
        cert = PackingCertificate(tuple(cycles[:k]), "half-integral")
        if not verify_packing(g, cert):
            raise InternalInvariantError("oracle packing fails verification")
        return cert
    return GfvsCertificate(tuple(_min_gfvs(g, non_null)), True)


def _restrict_to_free_supernodes(
    eta: CliqueExpansion, boundary: frozenset[int]
) -> Optional[CliqueExpansion]:
    keep = [mv for mv in sorted(eta.supernodes) if not (eta.supernodes[mv] & boundary)]
    if len(keep) < 2:
        return None
    return _restrict_expansion(eta, keep)


def solve(
    g: LabeledGraph,
    k: int,
    cfg: DriverConfig = DriverConfig(),
    expansion: Optional[CliqueExpansion] = None,
    td: Optional[TreeDecomposition] = None,
) -> Certificate:
    """A verified half-integral k-packing of non-null cycles, or a verified
    cover meeting every non-null cycle.

    expansion and td are optional caller-supplied witnesses for the input
    graph; they are re-validated here and not forwarded into recursions.
    """
    if k < 1:
        raise InputError("k must be positive")
    outcome, trail = _solve(g, k, cfg, expansion, td)
    if isinstance(outcome, PackingCertificate):
        if outcome.k != k or not verify_packing(g, outcome):
            raise InternalInvariantError("final packing fails verification")
    else:
        if not verify_gfvs(g, outcome.vertices).verified:
            raise InternalInvariantError("final cover fails verification")
    return Certificate(k=k, outcome=outcome, trail=trail)


def _solve(
    g: LabeledGraph,
    k: int,
    cfg: DriverConfig,
    expansion: Optional[CliqueExpansion],
    td: Optional[TreeDecomposition],
) -> tuple[PackingCertificate | GfvsCertificate, tuple[dict, ...]]:
    trail: list[dict] = []
    outcome = _level(g, k, cfg, expansion, td, trail)
    vertex = None
    if isinstance(outcome, int):
        # an irrelevant vertex; the level on g - v has no witness, so it
        # answers with a certificate
        vertex = outcome
        trail.append({"step": "irrelevant", "vertex": vertex})
        outcome = _level(g.delete_vertices({vertex}), k, cfg, None, None, trail)
    if isinstance(outcome, GfvsCertificate):
        cover = frozenset(outcome.vertices)
        if vertex is not None and not verify_gfvs(g, cover).verified:
            cover |= {vertex}
            trail.append({"step": "cover-repair", "added_back": [vertex]})
        outcome = GfvsCertificate(tuple(sorted(cover)), True)
    return outcome, tuple(trail)


def _level(
    g: LabeledGraph,
    k: int,
    cfg: DriverConfig,
    expansion: Optional[CliqueExpansion],
    td: Optional[TreeDecomposition],
    trail: list[dict],
) -> PackingCertificate | GfvsCertificate | int:
    """Strip g, measure the width and route: a certificate, or an
    irrelevant vertex (int) from the expansion branch."""
    stripped = strip_null_arcs(g)
    trail.append(
        {
            "step": "strip",
            "removed": sorted(
                set(a.id for a in g.arcs) - set(a.id for a in stripped.arcs)
            ),
        }
    )
    # the strip keeps an arc only if it lies on a non-null cycle, so the
    # stripped graph is clean exactly when it has no arcs
    if not stripped.arcs:
        trail.append({"step": "clean", "cover": []})
        return GfvsCertificate((), True)

    if td is None:
        td = tree_decomposition(stripped, "heuristic")
    else:
        validate_tree_decomposition(stripped, td)
    trail.append(
        {"step": "treewidth", "width": td.width, "threshold": cfg.tw_threshold}
    )
    above = td.width > cfg.tw_threshold
    if above and expansion is not None:
        result = _expansion_branch(stripped, k, cfg, expansion, trail)
        if result is not None:
            return result
    # the clique branch settles every central block at k = 1, so a block
    # it leaves unsettled falls back here only at k >= 2
    if above and k > 1 and cfg.oracle_fallback:
        reason = "wall" if expansion is None else "block"
        return _oracle_fallback(stripped, k, reason, trail)
    return _bounded_tw_branch(stripped, k, td, trail)


def _bounded_tw_branch(
    g: LabeledGraph, k: int, td: TreeDecomposition, trail: list[dict]
) -> PackingCertificate | GfvsCertificate:
    result = packing_or_cover_bounded_tw(g, k, td)
    width = td.width
    if isinstance(result, PackingCertificate):
        trail.append({"step": "bounded-treewidth", "result": "packing", "width": width})
    else:
        trail.append(
            {
                "step": "bounded-treewidth",
                "result": "cover",
                "width": width,
                "cover_size": len(result.vertices),
                "bound": (k - 1) * (width + 1),
            }
        )
    return result


def _expansion_branch(
    g: LabeledGraph,
    k: int,
    cfg: DriverConfig,
    eta: CliqueExpansion,
    trail: list[dict],
) -> PackingCertificate | GfvsCertificate | int | None:
    """Run the clique branch on a supplied expansion witness. Returns a
    certificate, possibly from recursing behind a separation, an
    irrelevant vertex (int), or None where the branch cannot settle its
    central block."""
    if not verify_expansion(g, eta, eta.order):
        raise InputError(
            "supplied expansion does not verify against the stripped graph"
        )
    trail.append({"step": "expansion", "source": "witness", "order": eta.order})
    result = clique_branch_separation(g, k, eta)
    if result is None:
        return None
    if isinstance(result, PackingCertificate):
        trail.append({"step": "clique-branch", "result": "packing"})
        return result
    trail.append(
        {
            "step": "clique-branch",
            "result": "separation",
            "boundary": sorted(result.boundary),
        }
    )

    if is_clean(g, result.a) and result.order > 1:
        free = _restrict_to_free_supernodes(eta, result.boundary)
        if free is not None:
            try:
                return clique_branch_irrelevant(g, k, free, result)
            except InputError as exc:
                trail.append({"step": "irrelevant-unavailable", "reason": str(exc)})
    return _separation_step(g, k, cfg, result, trail)


def _separation_step(
    g: LabeledGraph,
    k: int,
    cfg: DriverConfig,
    sep: Separation,
    trail: list[dict],
) -> PackingCertificate | GfvsCertificate:
    """Recurse behind a separation whose near side minus the boundary is
    clean, then lift the sub-certificate."""
    boundary = sep.boundary
    cycle = find_non_null_cycle(g, sep.a)
    if cycle is not None:
        if k == 1:
            cert = PackingCertificate((cycle,), "half-integral")
            if not verify_packing(g, cert):
                raise InternalInvariantError("near-side cycle fails verification")
            trail.append({"step": "separation-recurse", "side": "near-cycle", "k": k})
            return cert
        sub_graph = g.induced_subgraph(sep.b - sep.a)
        sub_outcome, sub_trail = _solve(sub_graph, k - 1, cfg, None, None)
        trail.append(
            {
                "step": "separation-recurse",
                "side": "far",
                "k": k - 1,
                "vertices": sorted(sep.b - sep.a),
                "trail": list(sub_trail),
            }
        )
        if isinstance(sub_outcome, PackingCertificate):
            cert = PackingCertificate(
                sub_outcome.cycles + (cycle,), "half-integral"
            )
            if not verify_packing(g, cert):
                raise InternalInvariantError("merged packing fails verification")
            return cert
        cover = frozenset(sub_outcome.vertices) | boundary
        if not verify_gfvs(g, cover).verified:
            raise InternalInvariantError("merged cover fails verification")
        return GfvsCertificate(tuple(sorted(cover)), True)

    # near side clean: everything non-null lives in G[B], and any cycle
    # leaving B would need two boundary vertices it cannot reuse
    if not sep.a - sep.b:
        raise InternalInvariantError("separation has an empty near side")
    sub_graph = g.induced_subgraph(sep.b)
    sub_outcome, sub_trail = _solve(sub_graph, k, cfg, None, None)
    trail.append(
        {
            "step": "separation-recurse",
            "side": "behind",
            "k": k,
            "vertices": sorted(sep.b),
            "trail": list(sub_trail),
        }
    )
    if isinstance(sub_outcome, PackingCertificate):
        if not verify_packing(g, sub_outcome):
            raise InternalInvariantError("lifted packing fails verification")
        return sub_outcome
    cover = frozenset(sub_outcome.vertices)
    if not verify_gfvs(g, cover).verified:
        cover = cover | boundary
        if not verify_gfvs(g, cover).verified:
            raise InternalInvariantError("lifted cover fails verification")
    return GfvsCertificate(tuple(sorted(cover)), True)
