"""Group-labeled graphs and walks.

A labeled graph is an undirected multigraph whose arcs carry one orientation
and one group label. Traversing an arc against its orientation contributes the
inverse label. Walks are sequences of (arc id, direction) steps; direction 1
follows tail to head, -1 the reverse.

Vertex ids are integers. Induced subgraphs keep the original vertex and arc
ids so certificates computed on subgraphs remain meaningful for the host
graph.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import InputError
from .groups import (
    GroupElement,
    GroupSpec,
    _inv,
    _mul,
    format_element,
    identity,
    is_identity,
    make_element,
    parse_element,
    spec_from_json,
    spec_to_json,
    validate_spec,
)

FORWARD = 1
REVERSE = -1


@dataclass(frozen=True, slots=True)
class Arc:
    id: int
    tail: int
    head: int
    label: GroupElement

    def other(self, v: int) -> int:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise InputError(f"vertex {v} is not an endpoint of arc {self.id}")

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


class LabeledGraph:
    def __init__(self, group: GroupSpec, vertices: Iterable[int], arcs: Iterable[Arc]):
        validate_spec(group)
        self.group = group
        self.vertices: tuple[int, ...] = tuple(sorted(set(vertices)))
        self._vertex_set = frozenset(self.vertices)
        self.arcs: tuple[Arc, ...] = tuple(arcs)
        self._by_id: dict[int, Arc] = {}
        for arc in self.arcs:
            if arc.id in self._by_id:
                raise InputError(f"duplicate arc id {arc.id}")
            if arc.tail not in self._vertex_set or arc.head not in self._vertex_set:
                raise InputError(f"arc {arc.id} has an endpoint outside the vertex set")
            if arc.label.spec != group:
                raise InputError(f"arc {arc.id} label group differs from the graph group")
            self._by_id[arc.id] = arc
        incident: dict[int, list[Arc]] = {v: [] for v in self.vertices}
        for arc in self.arcs:
            incident[arc.tail].append(arc)
            if not arc.is_loop:
                incident[arc.head].append(arc)
        self._incident = {v: tuple(lst) for v, lst in incident.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def has_vertex(self, v: int) -> bool:
        return v in self._vertex_set

    def arc(self, arc_id: int) -> Arc:
        try:
            return self._by_id[arc_id]
        except KeyError:
            raise InputError(f"no arc with id {arc_id}") from None

    def incident(self, v: int) -> tuple[Arc, ...]:
        """Arcs touching v, loops included once."""
        try:
            return self._incident[v]
        except KeyError:
            raise InputError(f"no vertex {v}") from None

    def simple_adjacency(self) -> dict[int, tuple[int, ...]]:
        """Loop-free, multiplicity-collapsed adjacency, neighbors sorted;
        built in one pass over the arcs."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a in self.arcs:
            if a.tail != a.head:
                adj[a.tail].add(a.head)
                adj[a.head].add(a.tail)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def induced_subgraph(self, keep: Iterable[int]) -> "LabeledGraph":
        keep_set = set(keep)
        bad = keep_set - self._vertex_set
        if bad:
            raise InputError(f"vertices not in graph: {sorted(bad)}")
        arcs = [a for a in self.arcs if a.tail in keep_set and a.head in keep_set]
        return LabeledGraph(self.group, keep_set, arcs)

    def delete_vertices(self, drop: Iterable[int]) -> "LabeledGraph":
        drop_set = set(drop)
        return self.induced_subgraph(self._vertex_set - drop_set)

    def delete_arcs(self, arc_ids: Iterable[int]) -> "LabeledGraph":
        drop = set(arc_ids)
        return LabeledGraph(self.group, self.vertices, [a for a in self.arcs if a.id not in drop])

    def with_labels(self, labels: dict[int, GroupElement]) -> "LabeledGraph":
        arcs = [
            Arc(a.id, a.tail, a.head, labels.get(a.id, a.label)) for a in self.arcs
        ]
        return LabeledGraph(self.group, self.vertices, arcs)

    def connected_components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        adj = self.simple_adjacency()
        for start in self.vertices:
            if start not in seen:
                comp = reach(adj, [start])
                seen |= comp
                comps.append(comp)
        return comps

    def __repr__(self) -> str:  # pragma: no cover
        return f"LabeledGraph(n={self.n}, m={self.m}, group={self.group!r})"


def reach(
    adj: Mapping[int, Iterable[int]],
    start: Iterable[int],
    removed: AbstractSet[int] = frozenset(),
) -> frozenset[int]:
    """The vertices reachable from `start` in the adjacency `adj` without
    entering `removed`; start vertices in `removed` are dropped."""
    seen = {v for v in start if v not in removed}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


# Walks ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Walk:
    """A traversal as (arc id, direction) steps. Empty walks are not allowed
    where a cycle is expected; a one-step walk on a loop arc is a cycle."""

    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)


def step_endpoints(g: LabeledGraph, step: tuple[int, int]) -> tuple[int, int]:
    arc_id, direction = step
    arc = g.arc(arc_id)
    if direction == FORWARD:
        return arc.tail, arc.head
    if direction == REVERSE:
        return arc.head, arc.tail
    raise InputError(f"bad step direction {direction}")


def walk_vertices(g: LabeledGraph, walk: Walk) -> list[int]:
    """Vertex sequence visited, length len(walk) + 1."""
    if not walk.steps:
        raise InputError("empty walk has no vertex sequence")
    seq: list[int] = []
    for i, step in enumerate(walk.steps):
        u, w = step_endpoints(g, step)
        if i == 0:
            seq.append(u)
        elif seq[-1] != u:
            raise InputError(f"walk breaks at step {i}: expected {seq[-1]}, arc starts at {u}")
        seq.append(w)
    return seq


# vertex -> its (other end, (arc id, direction)) steps; see `step_table`
StepTable = dict[int, tuple[tuple[int, tuple[int, int]], ...]]


def step_table(g: LabeledGraph) -> StepTable:
    """Each vertex's steps onto another vertex, as (other end, (arc id,
    direction)) pairs in `g.incident` order; loops are left out. A search
    that reads this table rather than the arcs shares one step tuple per
    arc and direction."""
    table = {}
    for v in g.vertices:
        table[v] = tuple(
            (arc.head, (arc.id, FORWARD)) if arc.tail == v else (arc.tail, (arc.id, REVERSE))
            for arc in g.incident(v)
            if arc.tail != arc.head
        )
    return table


def walk_value(g: LabeledGraph, walk: Walk) -> GroupElement:
    spec = g.group
    value = identity(spec).payload
    for arc_id, direction in walk.steps:
        label = g.arc(arc_id).label.payload
        if direction == REVERSE:
            label = _inv(spec, label)
        elif direction != FORWARD:
            raise InputError(f"bad step direction {direction}")
        value = _mul(spec, value, label)
    return GroupElement(spec, value)


def is_cycle(g: LabeledGraph, walk: Walk) -> bool:
    """True for a simple cycle: closed, vertices distinct apart from the
    closure, length >= 1, and a length-2 cycle uses two distinct arcs."""
    if not walk.steps:
        return False
    seq = walk_vertices(g, walk)
    if seq[0] != seq[-1]:
        return False
    interior = seq[:-1]
    if len(set(interior)) != len(interior):
        return False
    if len(walk.steps) == 1:
        return g.arc(walk.steps[0][0]).is_loop
    if len(walk.steps) == 2:
        return walk.steps[0][0] != walk.steps[1][0]
    return True


def is_non_null_cycle(g: LabeledGraph, walk: Walk) -> bool:
    return is_cycle(g, walk) and not is_identity(walk_value(g, walk))


def _canonical_key(seq: list[int], arcs: list[int]) -> tuple:
    """Canonical form of the simple cycle that leaves seq[i] by the arc
    arcs[i], for each i; the caller vouches that it is a simple cycle. The
    form is invariant under rotation and reversal: the lexicographically
    least (vertex, arc id) pair sequence over the 2L rotations of both
    traversal directions.

    The vertices of a simple cycle are distinct, so every least candidate
    starts at the least vertex m, which each direction passes exactly once.
    Two rotations start at m: the walk's own order read from m, and the
    reverse order read from m, in which each vertex pairs with the arc that
    entered it. They differ already in their first pair, whose arc is the
    one that leaves m, arcs[r], or the one that enters it, arcs[r-1]; a
    loop is the one case where these are equal, and its two rotations are
    equal too. So only the smaller rotation is built, in O(L)."""
    r = seq.index(min(seq))
    if arcs[r] <= arcs[r - 1]:
        return tuple(zip(seq[r:] + seq[:r], arcs[r:] + arcs[:r]))
    # seq[r], seq[r-1], ..., seq[r+1] with arcs[r-1], arcs[r-2], ..., arcs[r]
    return tuple(zip(seq[r::-1] + seq[:r:-1], arcs[r - 1::-1] + arcs[:r - 1:-1]))


# Separations ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Separation:
    a: frozenset[int]
    b: frozenset[int]

    @property
    def boundary(self) -> frozenset[int]:
        return self.a & self.b

    @property
    def order(self) -> int:
        return len(self.a & self.b)


def validate_separation(g: LabeledGraph, sep: Separation) -> None:
    if sep.a | sep.b != frozenset(g.vertices):
        raise InputError("separation sides do not cover the vertex set")
    a_only = sep.a - sep.b
    b_only = sep.b - sep.a
    for arc in g.arcs:
        ends = {arc.tail, arc.head}
        if ends & a_only and ends & b_only:
            raise InputError(
                f"arc {arc.id} crosses between the private sides of the separation"
            )


# Blocks ---------------------------------------------------------------------

def blocks_and_cut_vertices(g: LabeledGraph) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Biconnected components (as vertex sets) and articulation points of the
    underlying simple graph. Loops are ignored; isolated vertices appear in no
    block.

    One iterative Hopcroft-Tarjan DFS, so deep graphs cannot hit the
    recursion limit. When the DFS leaves u and low[u] >= disc[parent], the
    parent separates u's subtree: the block is the parent plus the vertices
    pushed since u. The cut vertices are those in two or more blocks."""
    adj = g.simple_adjacency()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[frozenset[int]] = []
    for root in g.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        pushed = [root]
        path = [(root, iter(adj[root]))]
        while path:
            u, pending = path[-1]
            for w in pending:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    pushed.append(w)
                    path.append((w, iter(adj[w])))
                    break
                low[u] = min(low[u], disc[w])
            else:
                path.pop()
                if not path:
                    continue
                parent = path[-1][0]
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    block = {parent}
                    while u not in block:
                        block.add(pushed.pop())
                    blocks.append(frozenset(block))
    blocks.sort(key=lambda b: sorted(b))
    seen: set[int] = set()
    cuts: set[int] = set()
    for block in blocks:
        cuts |= seen & block
        seen |= block
    return blocks, frozenset(cuts)


# JSON -----------------------------------------------------------------------

def graph_to_json_dict(g: LabeledGraph) -> dict:
    data: dict = {
        "group": spec_to_json(g.group),
        "n": g.n,
        "arcs": [[a.tail, a.head, format_element(a.label)] for a in g.arcs],
    }
    dense = g.vertices == tuple(range(g.n))
    if not dense:
        data["vertices"] = list(g.vertices)
    arc_ids = [a.id for a in g.arcs]
    if arc_ids != list(range(len(arc_ids))):
        data["arc_ids"] = arc_ids
    return data


def _json_int(value: object, what: str) -> int:
    """value itself when it is a JSON integer. A bool, a float or a string
    is not one, though int() would accept each of them."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _json_int_list(value: object, what: str) -> list[int]:
    """value itself when it is a list of JSON integers."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return [_json_int(v, f"{what} entry") for v in value]


def _json_key(key: object, what: str) -> int:
    """An object key (always a string in JSON) read as a decimal integer."""
    if not isinstance(key, str) or re.fullmatch(r"-?[0-9]+", key) is None:
        raise InputError(f"{what} {key!r} is not a decimal integer string")
    return int(key)


def _one_key_per_id(read: dict, source: dict, what: str) -> dict:
    """`read`, a dict built with one entry per key of the JSON object
    `source`, when no two of those keys name the same id. Keys such as
    "1" and "01" do, and the later one would silently win."""
    if len(read) != len(source):
        raise InputError(f"{what} names one id under two keys")
    return read


def graph_from_json_dict(data: object) -> LabeledGraph:
    if not isinstance(data, dict):
        raise InputError("graph JSON must be an object")
    try:
        group = spec_from_json(data["group"])
        raw_arcs = data["arcs"]
    except KeyError as missing:
        raise InputError(f"graph JSON missing key {missing}") from None
    if "vertices" in data:
        vertices = _json_int_list(data["vertices"], "graph JSON vertices")
        if len(set(vertices)) != len(vertices):
            raise InputError("graph JSON vertices repeat an id")
        if "n" in data and _json_int(data["n"], "graph JSON n") != len(vertices):
            raise InputError("graph JSON n differs from the length of vertices")
    else:
        n = _json_int(data.get("n", 0), "graph JSON n")
        if n < 0:
            raise InputError(f"graph JSON n must be non-negative, got {n}")
        vertices = list(range(n))
    vertex_set = set(vertices)
    if not isinstance(raw_arcs, list):
        raise InputError("graph JSON arcs must be a list")
    arc_ids = data.get("arc_ids")
    if arc_ids is not None:
        arc_ids = _json_int_list(arc_ids, "graph JSON arc_ids")
        if len(arc_ids) != len(raw_arcs):
            raise InputError("arc_ids length differs from arcs length")
    arcs = []
    # arcs with one label text share one element object
    labels: dict[str, GroupElement] = {}
    for i, entry in enumerate(raw_arcs):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InputError(f"arc entry {i} must be [tail, head, label]")
        tail = _json_int(entry[0], f"arc entry {i} tail")
        head = _json_int(entry[1], f"arc entry {i} head")
        label_text = entry[2]
        if tail not in vertex_set or head not in vertex_set:
            raise InputError(f"arc entry {i} references an unknown vertex")
        if not isinstance(label_text, str):
            raise InputError(f"arc entry {i} label must be a string")
        label = labels.get(label_text)
        if label is None:
            label = labels[label_text] = parse_element(group, label_text)
        arc_id = arc_ids[i] if arc_ids is not None else i
        arcs.append(Arc(arc_id, tail, head, label))
    return LabeledGraph(group, vertices, arcs)


def load_graph(path: str) -> LabeledGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from None
    return graph_from_json_dict(data)


def dump_json(data: object) -> str:
    """Deterministic JSON used for every artifact the package writes."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# Construction helper --------------------------------------------------------

def build_graph(
    group: GroupSpec,
    n_or_vertices: int | Sequence[int],
    arc_triples: Iterable[tuple[int, int, object]],
) -> LabeledGraph:
    """Convenience constructor; labels may be raw payloads or elements."""
    if isinstance(n_or_vertices, int):
        vertices: Iterable[int] = range(n_or_vertices)
    else:
        vertices = n_or_vertices
    arcs = []
    for i, (tail, head, label) in enumerate(arc_triples):
        if not isinstance(label, GroupElement):
            label = make_element(group, label)
        arcs.append(Arc(i, tail, head, label))
    return LabeledGraph(group, vertices, arcs)
