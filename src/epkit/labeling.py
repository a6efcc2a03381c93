"""Consistent labelings, clean graphs, and shifting (untangling).

A labeling assigns a group element to every vertex of a connected piece. It
is consistent when every arc (u, v) with label x satisfies
lam(v) = lam(u) * x. A graph admitting a consistent labeling has no cycle
with non-identity value; we call such a graph clean. When the search fails,
it returns a witness cycle whose value is not the identity.

Shifting relabels arcs by lam(u) * x * lam(v)^-1 without changing the value
of any closed walk. Shifting around a clean vertex set A makes every arc
inside A carry the identity label.

One-shot checks label a vertex set once: `find_consistent_labeling(g, s)`
is the one breadth-first search, and `is_clean`, `find_non_null_cycle`,
`untangle` and `verify_gfvs` read it over g's own incidence lists, so no
induced subgraph is built. Incremental checks, which grow or merge a
labeling as arcs arrive (the strip and the bounded-treewidth sweep), keep
it in a PotentialMap instead of starting over.
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
    is_cycle,
    is_non_null_cycle,
    walk_value,
    walk_vertices,
)
from .groups import GroupElement, identity, inverse, is_identity, multiply


@dataclass(frozen=True)
class CleanResult:
    """Either a consistent labeling (clean=True) or a non-null cycle."""

    clean: bool
    labeling: Optional[dict[int, GroupElement]] = None
    witness: Optional[Walk] = None


class PotentialMap:
    """Potentials of a clean subgraph, grown one arc at a time.

    Each vertex held has a component and a potential p, with
    p(head) = p(tail) * label on every arc related so far; a labeled graph
    has such potentials exactly when it is clean (Zaslavsky, Biased graphs
    I, JCTB 1989). Left-multiplying every potential of one component by the
    same element keeps all its equations, because labels always multiply on
    the right. So `relate` joins two components by relabelling the smaller,
    and inside one component it is a single comparison; the side stays
    fixed, so non-abelian groups need nothing more. A relation that fails
    leaves the map unchanged, so the map always holds the potentials of the
    clean subgraph formed by the arcs that related.

    A component is the list of its members, shared by every member's entry
    in `comp`; its first member never changes and names it.
    """

    __slots__ = ("identity", "comp", "pot")

    def __init__(self, identity_element: GroupElement):
        self.identity = identity_element
        self.comp: dict[int, list[int]] = {}
        self.pot: dict[int, GroupElement] = {}

    def relate(self, u: int, v: int, x: GroupElement) -> bool:
        """Require p(v) = p(u) * x: the arc (u, v) labeled x. False when the
        arcs related so far close a non-null cycle with it."""
        if u == v:
            return is_identity(x)
        comp, pot = self.comp, self.pot
        cu = comp.get(u)
        cv = comp.get(v)
        if cu is None:
            if cv is None:
                members = [u, v]
                comp[u] = comp[v] = members
                pot[u] = self.identity
                pot[v] = x
            else:
                cv.append(u)
                comp[u] = cv
                pot[u] = multiply(pot[v], inverse(x))
        elif cv is None:
            cu.append(v)
            comp[v] = cu
            pot[v] = multiply(pot[u], x)
        elif cu is cv:
            return pot[v] == multiply(pot[u], x)
        elif len(cu) >= len(cv):
            # s * p(v) = p(u) * x
            self._move(cv, cu, multiply(multiply(pot[u], x), inverse(pot[v])))
        else:
            # s * p(u) * x = p(v)
            self._move(cu, cv, multiply(pot[v], inverse(multiply(pot[u], x))))
        return True

    def _move(self, src: list[int], dst: list[int], s: GroupElement) -> None:
        comp, pot = self.comp, self.pot
        for w in src:
            comp[w] = dst
            pot[w] = multiply(s, pot[w])
        dst.extend(src)

    def relate_induced(
        self, g: LabeledGraph, keep: set[int], held: frozenset[int] = frozenset()
    ) -> bool:
        """Relate every arc of g with both ends in keep, except those with
        both ends in held (arcs the caller knows the map holds). False at
        the first conflict. Only the incidences of keep - held are read."""
        fresh = keep - held
        for u in fresh:
            for arc in g.incident(u):
                tail, head = arc.tail, arc.head
                w = head if tail == u else tail
                # an arc between two fresh vertices is related from its tail
                if w in keep and (tail == u or w not in fresh):
                    if not self.relate(tail, head, arc.label):
                        return False
        return True

    def absorb(self, other: "PotentialMap") -> bool:
        """Relate everything other holds, and take over its components;
        other must not be used afterwards. False at the first conflict,
        with the merge left partly done.

        A component that shares no vertex is copied as it stands. Otherwise
        its private vertices enter the component of one shared vertex s,
        shifted into s's frame, and then s is related to each other shared
        vertex."""
        comp, pot, opot = self.comp, self.pot, other.pot
        for r, members in other.comp.items():
            if members[0] != r:
                continue
            shared = [w for w in members if w in comp]
            if not shared:
                for w in members:
                    comp[w] = members
                    pot[w] = opot[w]
                continue
            s = shared[0]
            back = inverse(opot[s])
            shift = multiply(pot[s], back)
            mine = comp[s]
            for w in members:
                if w not in comp:
                    comp[w] = mine
                    mine.append(w)
                    pot[w] = multiply(shift, opot[w])
            for w in shared[1:]:
                if not self.relate(s, w, multiply(back, opot[w])):
                    return False
        return True


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


def find_consistent_labeling(
    g: LabeledGraph, s: Optional[Iterable[int]] = None
) -> CleanResult:
    """Label G[s] (the whole graph when s is None) by a BFS per component;
    on a conflict, return a witness cycle instead.

    The BFS walks g's incidence lists and skips arcs leaving s, so no
    subgraph is built. It skips the arc that labeled each vertex, which
    holds by construction, and checks an arc (u, v, x) as
    lam(v) == lam(u) * x, so only labeling against an arc's orientation
    needs an inverse. Roots are taken in ascending order, so the labeling
    and the witness are the ones the search gives on g.induced_subgraph(s).

    The witness for a violated arc a = (u, v) is the tree path from v back
    to u followed by a itself; its value is lam(v)^-1 * lam(u) * x, which is
    non-identity exactly when the arc is violated.
    """
    if s is None:
        keep = set(g.vertices)
        roots: Iterable[int] = g.vertices
    else:
        keep = set(s)
        bad = [v for v in keep if not g.has_vertex(v)]
        if bad:
            raise InputError(f"vertices not in graph: {sorted(bad)}")
        roots = sorted(keep)
    labeling: dict[int, GroupElement] = {}
    # the arc that labeled each vertex, to rebuild tree walks
    via: dict[int, Optional[Arc]] = {}
    e = identity(g.group)
    for root in roots:
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
                elif (
                    labeling[w] != multiply(lab_u, arc.label)
                    if forward
                    else lab_u != multiply(labeling[w], arc.label)
                ):
                    # covers non-identity self-loops too: w == u there
                    direction = FORWARD if forward else REVERSE
                    witness = _witness_for_violation(g, via, u, w, arc.id, direction)
                    return CleanResult(clean=False, witness=witness)
    return CleanResult(clean=True, labeling=labeling)


def _witness_for_violation(g, via, u: int, w: int, arc_id: int, direction: int) -> Walk:
    """The cycle the violated arc closes in the BFS tree: c -> u, the arc
    to w, then w -> c, where c is the lowest common ancestor of u and w.
    The closed walk root -> u, arc, w -> root has the same value up to
    conjugation, so the cycle is non-null."""

    def up(v: int) -> tuple[tuple[int, int], int]:
        # the step from v toward the root, and the vertex it reaches
        arc = via[v]
        if arc.tail == v:
            return (arc.id, FORWARD), arc.head
        return (arc.id, REVERSE), arc.tail

    # u's root path: each vertex, with the number of steps from u to it
    depth = {u: 0}
    up_u = []
    v = u
    while via[v] is not None:
        step, v = up(v)
        up_u.append(step)
        depth[v] = len(up_u)
    up_w = []
    v = w
    while v not in depth:
        step, v = up(v)
        up_w.append(step)
    down_u = [(aid, -d) for (aid, d) in reversed(up_u[: depth[v]])]
    witness = Walk(tuple(down_u) + ((arc_id, direction),) + tuple(up_w))
    if not is_non_null_cycle(g, witness):
        raise InternalInvariantError("violation witness is not a non-null cycle")
    return witness


def is_clean(g: LabeledGraph, s: Optional[Iterable[int]] = None) -> bool:
    """Whether G[s] (the whole graph when s is None) has no non-null cycle."""
    return find_consistent_labeling(g, s).clean


def find_non_null_cycle(g: LabeledGraph, s: Optional[Iterable[int]] = None) -> Optional[Walk]:
    """A non-null cycle of G[s] (the whole graph when s is None) if one
    exists, else None. Linear-time certificate."""
    return find_consistent_labeling(g, s).witness


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
    result = find_consistent_labeling(g, area_set)
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
    verdict = is_clean(g, [v for v in g.vertices if v not in drop])
    return GfvsCertificate(tuple(sorted(drop)), verdict)

