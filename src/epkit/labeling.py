"""Consistent labelings, clean graphs, and shifting (untangling).

A labeling assigns a group element to every vertex of a connected piece. It
is consistent when every arc (u, v) with label x satisfies
lam(v) = lam(u) * x. A graph admitting a consistent labeling has no cycle
with non-identity value; we call such a graph clean. When the search fails,
it returns a witness cycle whose value is not the identity.

Shifting relabels arcs by lam(u) * x * lam(v)^-1 without changing the value
of any closed walk. Shifting around a clean vertex set A makes every arc
inside A carry the identity label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError, InternalInvariantError
from .graph import (
    FORWARD,
    REVERSE,
    Arc,
    LabeledGraph,
    Walk,
    is_non_null_cycle,
    walk_value,
)
from .groups import GroupElement, identity, inverse, is_identity, multiply


@dataclass(frozen=True)
class CleanResult:
    """Either a consistent labeling (clean=True) or a non-null cycle."""

    clean: bool
    labeling: Optional[dict[int, GroupElement]] = None
    witness: Optional[Walk] = None


@dataclass(frozen=True)
class GfvsCertificate:
    """A claimed group feedback vertex set together with its verdict.
    Truthiness follows the verdict."""

    vertices: tuple[int, ...]
    verified: bool

    def __bool__(self) -> bool:
        return self.verified


def _extract_non_null_from_closed(g: LabeledGraph, walk: Walk) -> Walk:
    """Split a closed non-null walk into a simple non-null cycle.

    Finds the first repeated vertex; the walk splits into the loop between
    the repeats and the remainder. At least one part is non-null because
    values multiply. Recurses on that part.
    """
    from .graph import is_cycle, walk_vertices

    if is_cycle(g, walk):
        return walk
    seq = walk_vertices(g, walk)
    first_at: dict[int, int] = {}
    split = None
    for i, v in enumerate(seq):
        if v in first_at and not (i == len(seq) - 1 and first_at[v] == 0):
            split = (first_at[v], i)
            break
        if v not in first_at:
            first_at[v] = i
    if split is None:
        raise InternalInvariantError("closed walk with no repeat is not a cycle")
    i, j = split
    loop = Walk(walk.steps[i:j])
    rest = Walk(walk.steps[:i] + walk.steps[j:])
    if loop.steps and not is_identity(walk_value(g, loop)):
        return _extract_non_null_from_closed(g, loop)
    if not rest.steps:
        raise InternalInvariantError("non-null walk decomposed into null parts")
    # rest is closed and its value is conjugate to the whole walk's value
    # times the (identity) loop value, hence still non-null.
    return _extract_non_null_from_closed(g, rest)


def find_consistent_labeling(g: LabeledGraph) -> CleanResult:
    """BFS labeling per component; on conflict, returns a witness cycle.

    The witness for a violated arc a = (u, v) is the tree path from v back
    to u followed by a itself; its value is lam(v)^-1 * lam(u) * x, which is
    non-identity exactly when the arc is violated.
    """
    labeling: dict[int, GroupElement] = {}
    # parent step per vertex, to rebuild tree walks
    parent: dict[int, Optional[tuple[int, int, int]]] = {}  # v -> (u, arc_id, dir)
    e = identity(g.group)

    for root in g.vertices:
        if root in labeling:
            continue
        labeling[root] = e
        parent[root] = None
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for arc in g.incident(u):
                # orient the traversal out of u
                if arc.tail == u:
                    w, direction, lab = arc.head, FORWARD, arc.label
                else:
                    w, direction, lab = arc.tail, REVERSE, inverse(arc.label)
                target = multiply(labeling[u], lab)
                if w not in labeling:
                    labeling[w] = target
                    parent[w] = (u, arc.id, direction)
                    queue.append(w)
                elif labeling[w] != target:
                    # covers non-identity self-loops too: w == u there
                    witness = _witness_for_violation(g, parent, u, w, arc.id, direction)
                    return CleanResult(clean=False, witness=witness)
    return CleanResult(clean=True, labeling=labeling)


def _tree_walk_to_root(parent, v: int) -> list[tuple[int, int]]:
    """Steps from v up to its BFS root, each step directed toward the root."""
    steps = []
    while parent[v] is not None:
        u, arc_id, direction = parent[v]
        steps.append((arc_id, -direction))
        v = u
    return steps


def _witness_for_violation(g, parent, u: int, w: int, arc_id: int, direction: int) -> Walk:
    """Closed walk: root -> u, the violated arc to w, then w -> root."""
    up_u = _tree_walk_to_root(parent, u)
    down_u = [(aid, -d) for (aid, d) in reversed(up_u)]
    up_w = _tree_walk_to_root(parent, w)
    closed = Walk(tuple(down_u) + ((arc_id, direction),) + tuple(up_w))
    if is_identity(walk_value(g, closed)):
        raise InternalInvariantError("violation witness has identity value")
    witness = _extract_non_null_from_closed(g, closed)
    if not is_non_null_cycle(g, witness):
        raise InternalInvariantError("witness extraction failed")
    return witness


def is_clean(g: LabeledGraph, s: Optional[Iterable[int]] = None) -> bool:
    """Whether G[s] (the whole graph when s is None) has no non-null cycle.

    For a subset, the labeling BFS runs over g's incidence lists and skips
    arcs leaving s, so no subgraph is built. It also skips the arc that
    labeled each vertex, which holds by construction, and checks an arc
    (u, v, x) as lam(v) == lam(u) * x, so only labeling against an arc's
    orientation needs an inverse."""
    if s is None:
        return find_consistent_labeling(g).clean
    keep = set(s)
    bad = [v for v in keep if not g.has_vertex(v)]
    if bad:
        raise InputError(f"vertices not in graph: {sorted(bad)}")
    labeling: dict[int, GroupElement] = {}
    via: dict[int, Optional[Arc]] = {}
    e = identity(g.group)
    for root in keep:
        if root in labeling:
            continue
        labeling[root] = e
        via[root] = None
        queue = [root]
        for u in queue:
            lab_u = labeling[u]
            for arc in g.incident(u):
                forward = arc.tail == u
                w = arc.head if forward else arc.tail
                if w not in keep or arc is via[u]:
                    continue
                if w not in labeling:
                    labeling[w] = multiply(lab_u, arc.label if forward else inverse(arc.label))
                    via[w] = arc
                    queue.append(w)
                elif forward:
                    if labeling[w] != multiply(lab_u, arc.label):
                        return False
                elif lab_u != multiply(labeling[w], arc.label):
                    return False
    return True


def find_non_null_cycle(g: LabeledGraph) -> Optional[Walk]:
    """A non-null cycle if one exists, else None. Linear-time certificate."""
    result = find_consistent_labeling(g)
    return None if result.clean else result.witness


def shift(g: LabeledGraph, gamma: dict[int, GroupElement]) -> LabeledGraph:
    """Relabel every arc (u, v, x) to gamma(u) * x * gamma(v)^-1.

    Vertices absent from gamma keep the identity shift. Closed walk values
    are conjugated, so null cycles stay null and non-null stay non-null.
    """
    e = identity(g.group)
    new_labels = {}
    for arc in g.arcs:
        gu = gamma.get(arc.tail, e)
        gv = gamma.get(arc.head, e)
        new_labels[arc.id] = multiply(multiply(gu, arc.label), inverse(gv))
    return g.with_labels(new_labels)


def untangle(g: LabeledGraph, area: Iterable[int]) -> LabeledGraph:
    """Shift so that every arc with both ends inside `area` carries the
    identity. Requires the induced subgraph on `area` to be clean."""
    area_set = set(area)
    sub = g.induced_subgraph(area_set)
    result = find_consistent_labeling(sub)
    if not result.clean:
        raise InputError("cannot untangle: the area induces a non-null cycle")
    assert result.labeling is not None
    # for an arc (u, v, x) inside the area, x = lam(u)^-1 * lam(v), so
    # shifting by lam itself cancels it
    shifted = shift(g, result.labeling)
    for arc in shifted.arcs:
        if arc.tail in area_set and arc.head in area_set and not is_identity(arc.label):
            raise InternalInvariantError("untangling left a labeled arc inside the area")
    return shifted


def verify_gfvs(g: LabeledGraph, vertices: Iterable[int]) -> GfvsCertificate:
    """Certificate whose verdict says whether deleting the set leaves a
    clean graph."""
    drop = set(vertices)
    for v in drop:
        if not g.has_vertex(v):
            raise InputError(f"gfvs names vertex {v} not in the graph")
    verdict = is_clean(g.delete_vertices(drop))
    return GfvsCertificate(tuple(sorted(drop)), verdict)

