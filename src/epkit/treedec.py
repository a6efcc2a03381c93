"""Tree decompositions and the bounded-treewidth packing-or-cover routine.

Min-fill builds every decomposition; none needs to be optimal. The min-fill
order (Bodlaender & Koster, Treewidth computations I: upper bounds, 2010)
eliminates a vertex of least fill-in at each step, ties going to the lowest
vertex id. It keeps, for every vertex v, the number tri(v) of edges inside
N(v), so fill(v) = C(deg v, 2) - tri(v); the initial counts take one N(u) &
N(v) per edge. Eliminating v first adds each missing edge ab inside N(v): one
N(a) & N(b) gives the common neighbours, and a, b gain that many edges inside
their neighbourhoods while each common neighbour gains ab. Then v goes, and
each of its neighbours loses the deg(v) - 1 edges from v to the now complete
N(v). A lazy heap of (fill, vertex) entries gets a new entry only for a
vertex whose fill changed. The counts are exact, so the popped (fill, lowest
id) minimum, and with it the order, is the one a full rescan would choose.
The pass records each vertex's neighbourhood as it is eliminated, and those
records are the bags of the decomposition.

Validation is linear in the size of the decomposition plus the graph: the
tree shape is checked by one walk down from the root, arcs by intersecting
per-vertex node sets, and each vertex's subtree by counting its topmost
nodes.

The bounded-treewidth routine asks, in one post-order sweep, whether each
node's live subtree induces a clean graph. A graph is clean exactly when it
has vertex potentials with label = p(tail)^-1 * p(head) on every arc
(Zaslavsky 1989), so each node merges its children's potential maps, small
into large, and relates only the arcs inside its own bag: by the
connectivity of bags, every other arc of its subtree lies inside one
child's subtree. Maps are not purged when vertices are deleted; a stale map
holds more arcs than the live graph, so its "clean" is exact, and its
conflict is confirmed on the live subtree before the node is chosen.
A conflict in a map over live vertices only needs no confirmation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .errors import InputError, InternalInvariantError
from .graph import (
    LabeledGraph,
    Walk,
    _json_int,
    _json_int_list,
    _json_key,
    is_non_null_cycle,
    walk_vertices,
)
from .groups import identity
from .labeling import (
    GfvsCertificate,
    PotentialMap,
    find_consistent_labeling,
    find_non_null_cycle,
    verify_gfvs,
)

EXACT_VERTEX_CAP = 20  # read by bench/run.py's traced report; nothing in epkit uses it


@dataclass
class TreeDecomposition:
    """Rooted decomposition: the root is the unique node with parent None."""

    nodes: tuple[int, ...]
    parent: dict[int, Optional[int]]
    bags: dict[int, frozenset[int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1

    @property
    def root(self) -> int:
        roots = [n for n in self.nodes if self.parent.get(n) is None]
        if len(roots) != 1:
            raise InputError(f"decomposition has {len(roots)} roots, wanted 1")
        return roots[0]

    def children(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {n: [] for n in self.nodes}
        for n in self.nodes:
            p = self.parent.get(n)
            if p is not None:
                out[p].append(n)
        return {n: tuple(sorted(cs)) for n, cs in out.items()}

    def post_order(self, kids: Optional[dict[int, tuple[int, ...]]] = None) -> list[int]:
        """Children before parents, siblings in id order; `kids` is
        `self.children()`, passed in by callers that already hold it."""
        if kids is None:
            kids = self.children()
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            stack.append((node, True))
            for c in reversed(kids[node]):
                stack.append((c, False))
        return order


def validate_tree_decomposition(g: LabeledGraph, td: TreeDecomposition) -> None:
    """Raise InputError unless td is a rooted tree decomposition of g."""
    _checked_children(g, td)


def _checked_children(
    g: LabeledGraph, td: TreeDecomposition
) -> dict[int, tuple[int, ...]]:
    """Validate td against g and return its child lists."""
    if not td.nodes:
        raise InputError("decomposition has no nodes")
    if len(set(td.nodes)) != len(td.nodes):
        raise InputError("duplicate decomposition nodes")
    node_set = set(td.nodes)
    if set(td.parent) != node_set or set(td.bags) != node_set:
        raise InputError("parent map and bags must cover exactly the nodes")
    root = td.root  # raises unless unique
    for n in td.nodes:
        p = td.parent[n]
        if p is not None and p not in node_set:
            raise InputError(f"parent link leaves the node set at {p}")
    # parent links form a tree exactly when every node is reached walking
    # down from the root; the nodes missed sit on parent cycles
    kids = td.children()
    reached = 1
    stack = [root]
    while stack:
        n = stack.pop()
        reached += len(kids[n])
        stack.extend(kids[n])
    if reached != len(td.nodes):
        raise InputError("parent links contain a cycle")
    vertex_set = set(g.vertices)
    for n, bag in td.bags.items():
        if not bag <= vertex_set:
            raise InputError(f"bag of node {n} contains unknown vertices")
    where: dict[int, set[int]] = {v: set() for v in g.vertices}
    for n, bag in td.bags.items():
        for v in bag:
            where[v].add(n)
    for v in g.vertices:
        if not where[v]:
            raise InputError(f"vertex {v} appears in no bag")
    for a in g.arcs:
        if where[a.tail].isdisjoint(where[a.head]):
            raise InputError(f"arc {a.id} has no bag containing both endpoints")
    # in a tree, the nodes holding v are connected exactly when one of them
    # has a parent that does not hold v (or no parent at all)
    tops: dict[int, int] = dict.fromkeys(g.vertices, 0)
    for n, bag in td.bags.items():
        p = td.parent[n]
        above = td.bags[p] if p is not None else frozenset()
        for v in bag - above:
            tops[v] += 1
    for v in g.vertices:
        if tops[v] != 1:
            raise InputError(f"bags containing vertex {v} are not connected")
    return kids


def td_from_json_dict(doc: dict) -> TreeDecomposition:
    if not isinstance(doc, dict):
        raise InputError("decomposition document must be an object")
    for key in ("nodes", "parent", "bags"):
        if key not in doc:
            raise InputError(f"decomposition document missing '{key}'")
    nodes = _json_int_list(doc["nodes"], "'nodes'")
    for key in ("parent", "bags"):
        if not isinstance(doc[key], dict):
            raise InputError(f"'{key}' must be an object keyed by node id")
    parent: dict[int, Optional[int]] = {
        _json_key(key, "node key"): None if p is None else _json_int(p, "parent entry")
        for key, p in doc["parent"].items()
    }
    bags: dict[int, frozenset[int]] = {
        _json_key(key, "node key"): frozenset(_json_int_list(bag, f"bag {key}"))
        for key, bag in doc["bags"].items()
    }
    return TreeDecomposition(tuple(nodes), parent, bags)


# Elimination machinery ---------------------------------------------------------

def _min_fill_order(adj: dict[int, set[int]]) -> list[tuple[int, set[int]]]:
    """The min-fill elimination: each vertex in order with its neighbourhood
    in the filled graph at the moment it is eliminated."""
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
    elimination: list[tuple[int, set[int]]] = []
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


def _decomposition(elimination: list[tuple[int, set[int]]]) -> TreeDecomposition:
    """Node i holds the i-th eliminated vertex with its neighbourhood; its
    parent is the node of the first of those neighbours eliminated after it."""
    if not elimination:
        return TreeDecomposition((0,), {0: None}, {0: frozenset()})
    position = {v: i for i, (v, _) in enumerate(elimination)}
    last = len(elimination) - 1
    bags: dict[int, frozenset[int]] = {}
    parent: dict[int, Optional[int]] = {}
    for idx, (v, ns) in enumerate(elimination):
        bags[idx] = frozenset(ns | {v})
        if ns:
            parent[idx] = min(position[u] for u in ns)
        elif idx < last:
            # component exhausted; chain onto the next node to keep one tree
            parent[idx] = idx + 1
        else:
            parent[idx] = None
    return TreeDecomposition(tuple(range(len(elimination))), parent, bags)


def tree_decomposition(g: LabeledGraph, mode: str = "heuristic") -> TreeDecomposition:
    """The min-fill tree decomposition of g, at any size; `mode` is the one
    mode, "heuristic", kept for callers that pass it."""
    if mode != "heuristic":
        raise InputError(f"unknown decomposition mode {mode!r}")
    adj = {v: set(ns) for v, ns in g.simple_adjacency().items()}
    return _decomposition(_min_fill_order(adj))


# Packing or cover ----------------------------------------------------------------

@dataclass(frozen=True)
class PackingCertificate:
    """A family of non-null cycles; integral means pairwise vertex-disjoint,
    half-integral allows every vertex on at most two of them."""

    cycles: tuple[Walk, ...]
    integrality: str

    def __post_init__(self):
        if self.integrality not in ("integral", "half-integral"):
            raise InputError(f"unknown integrality {self.integrality!r}")

    @property
    def k(self) -> int:
        return len(self.cycles)


def verify_packing(g: LabeledGraph, cert: PackingCertificate) -> bool:
    seen_forms = set()
    usage: dict[int, int] = {}
    for walk in cert.cycles:
        if not is_non_null_cycle(g, walk):
            return False
        form = tuple(sorted(arc_id for arc_id, _ in walk.steps))
        if form in seen_forms:
            return False
        seen_forms.add(form)
        for v in set(walk_vertices(g, walk)[:-1]):
            usage[v] = usage.get(v, 0) + 1
    cap = 1 if cert.integrality == "integral" else 2
    return all(count <= cap for count in usage.values())


def packing_or_cover_bounded_tw(
    g: LabeledGraph, k: int, td: TreeDecomposition
) -> PackingCertificate | GfvsCertificate:
    """Either k vertex-disjoint non-null cycles or a gfvs of size at most
    (k-1)(w+1), w the decomposition width.

    Unrolled induction: while budget remains, take the lowest decomposition
    node whose live subtree-vertex set induces a non-null cycle, keep that
    cycle, add the node's live bag to the cover, and delete the subtree
    vertices. A non-null cycle avoiding the bag would sit inside a single
    child subtree (contradicting lowest) or survive the deletion, so the
    final clean graph certifies the cover; the kept cycles are pairwise
    disjoint by construction, so surviving all k-1 rounds yields a packing.

    One post-order sweep picks the same nodes as restarting the scan after
    every round would. Deleting vertices cannot make a clean subtree
    unclean, so every node before the last chosen one stays clean, and the
    chosen node's subtree is empty afterwards.

    A node is checked with potential maps (`labeling.PotentialMap`) merged
    up the sweep, not by labeling its subtree again. The node reuses its
    largest child's vertex set and map, merges the other children's into
    them (small into large), and relates the arcs inside its live bag.
    These are all the arcs its subtree adds: if an arc has an end u outside
    the node's bag while both ends lie in the subtree, the bags holding u
    form a connected subtree that meets the node's subtree but not the
    node, so they lie inside one child's subtree; the bag holding both ends
    is one of them, so both ends lie in that child's subtree. Arcs inside
    the reused child's bag are in its map already and are skipped.

    Deletions are not purged from pending sets and maps. A map built before
    a deletion holds a superset of the live subtree's arcs, so when it
    relates without conflict the live subtree is clean. A map's vertices
    all lie in its node's set, so when that set holds no deleted vertex the
    map holds only live arcs and a conflict is a non-null closed walk in
    the live subtree. A conflict labels the live subtree once, which gives
    the node's cycle; only a map that held a deleted vertex can raise a
    false alarm, and then only that node's map is rebuilt, from its live
    subtree.
    """
    if k < 1:
        raise InputError("k must be positive")
    kids = _checked_children(g, td)
    w = td.width
    e = identity(g.group)

    live = set(g.vertices)
    cover: set[int] = set()
    cycles: list[Walk] = []
    # (subtree vertex set, potentials, bag) of each swept node whose parent
    # is not swept yet; chosen nodes leave no entry
    pending: dict[int, tuple[set[int], PotentialMap, frozenset[int]]] = {}
    sweep = td.post_order(kids) if k > 1 else []
    for node in sweep:
        parts = [pending.pop(c) for c in kids[node] if c in pending]
        parts.sort(key=lambda part: len(part[0]))
        subtree, pots, held = parts.pop() if parts else (set(), PotentialMap(e), frozenset())
        clean = True
        for vertices, other, _ in parts:
            subtree |= vertices
            clean = clean and pots.absorb(other)
        bag = td.bags[node] & live
        subtree |= bag
        # arcs inside the reused child's bag are in its map already
        if not (clean and pots.relate_induced(g, bag, held)):
            before = len(subtree)
            subtree &= live
            # a map over live vertices only holds live arcs, so its
            # conflict is real; one that held a deleted vertex may not be
            cycle = find_non_null_cycle(g, subtree)
            if cycle is not None:
                cycles.append(cycle)
                cover |= bag
                live -= subtree
                if len(cycles) == k - 1:
                    break
                continue
            if len(subtree) == before:
                raise InternalInvariantError("potentials conflict on a clean subtree")
            pots = PotentialMap(e)
            if not pots.relate_induced(g, subtree):
                raise InternalInvariantError("clean subtree has no potentials")
        pending[node] = (subtree, pots, td.bags[node])

    final = find_consistent_labeling(g, live)
    if final.clean:
        cert = GfvsCertificate(tuple(sorted(cover)), True)
        if len(cover) > (k - 1) * (w + 1):
            raise InternalInvariantError(
                f"cover {len(cover)} exceeds ({k}-1)({w}+1)"
            )
        if not verify_gfvs(g, cert.vertices).verified:
            raise InternalInvariantError("constructed cover fails verification")
        return cert
    if len(cycles) != k - 1:
        raise InternalInvariantError("graph is not clean but every subtree is")
    cycles.append(final.witness)
    cert = PackingCertificate(tuple(cycles), "integral")
    if not verify_packing(g, cert):
        raise InternalInvariantError("constructed packing fails verification")
    return cert
