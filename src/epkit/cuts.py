"""Separators, well-linked sets, treewidth reduction, and the irrelevant-vertex
machinery.

Everything in this module works on the undirected simple view of a graph;
labels play no role. Vertex cuts are computed by unit-capacity flow on the
split digraph (v_in -> v_out), with breadth-first augmentation in ascending
vertex order so enumeration results are reproducible run to run.

The treewidth reduction and the irrelevant-vertex search gate Z at the
sizes their own arguments consume, |Z| >= 2t+1 and |Z| >= 2p+1. The
paper's stronger gates (|Z| >= 7t, and |Z| > 2^p * p^(6p)) would only
refuse more inputs: the marking never reads them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError, InternalInvariantError
from .graph import LabeledGraph, Separation, reach, validate_separation
from .labeling import is_clean

Adjacency = dict[int, tuple[int, ...]]


# Flow ------------------------------------------------------------------------

_SOURCE = ("s", -1)
_SINK = ("t", -1)


class _SplitNetwork:
    """The split digraph of an adjacency for unit vertex capacities: v_in ->
    v_out per vertex and u_out -> w_in per edge, plus a source and a sink.

    A path enters at x_in and leaves at y_out, so it consumes its endpoints
    and a vertex in both sets counts as a zero-length path. A vertex in
    `uncuttable` gets capacity `big` instead of 1, so no min cut contains
    it: separator problems pass their sources and sinks there.

    The arcs from the source to `sources` and from `sinks` to the sink are
    built closed. A flow is three steps: `open` the terminals of one flow,
    `augment` on it, and `restore` to put back every capacity those steps
    changed, so one network serves many terminal pairs.
    """

    def __init__(
        self,
        adj: Adjacency,
        sources: Iterable[int],
        sinks: Iterable[int],
        uncuttable: frozenset[int],
    ):
        self.big = big = len(adj) + 2
        cap: dict[tuple, dict[tuple, int]] = {_SOURCE: {}, _SINK: {}}

        def add_arc(a, b, c):
            cap.setdefault(a, {})[b] = cap.setdefault(a, {}).get(b, 0) + c
            cap.setdefault(b, {}).setdefault(a, 0)

        for v in sorted(adj):
            add_arc(("in", v), ("out", v), big if v in uncuttable else 1)
        for v in sorted(adj):
            for w in adj[v]:
                add_arc(("out", v), ("in", w), big)
        for x in sorted(sources):
            add_arc(_SOURCE, ("in", x), 0)
        for y in sorted(sinks):
            add_arc(("out", y), _SINK, 0)
        self.cap = cap
        # augmenting changes capacities, never the keys, so each node's
        # successors are sorted once per network
        self.successors = {node: sorted(out) for node, out in cap.items()}
        # each changed node's capacities as built, for `restore`
        self.saved: dict[tuple, dict[tuple, int]] = {}

    def _save(self, node: tuple) -> None:
        if node not in self.saved:
            self.saved[node] = dict(self.cap[node])

    def open(self, sources: Iterable[int], sinks: Iterable[int]) -> None:
        """Open the source arcs of `sources` and the sink arcs of `sinks`,
        which must be among the terminals the network was built with."""
        self._save(_SOURCE)
        for x in sources:
            self.cap[_SOURCE][("in", x)] = self.big
        for y in sinks:
            node = ("out", y)
            self._save(node)
            self.cap[node][_SINK] = self.big

    def restore(self) -> None:
        """Put back every capacity changed since the network was built or
        last restored."""
        self.cap.update(self.saved)
        self.saved = {}

    def _bfs_augment(self) -> int:
        cap, successors = self.cap, self.successors
        parent: dict[tuple, tuple] = {_SOURCE: _SOURCE}
        queue = [_SOURCE]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for nxt in successors[node]:
                if nxt not in parent and cap[node][nxt] > 0:
                    parent[nxt] = node
                    if nxt == _SINK:
                        bottleneck = self.big
                        walk = nxt
                        while walk != _SOURCE:
                            prev = parent[walk]
                            bottleneck = min(bottleneck, cap[prev][walk])
                            walk = prev
                        walk = nxt
                        while walk != _SOURCE:
                            prev = parent[walk]
                            self._save(prev)
                            self._save(walk)
                            cap[prev][walk] -= bottleneck
                            cap[walk][prev] += bottleneck
                            walk = prev
                        return bottleneck
                    queue.append(nxt)
        return 0

    def augment(self, limit: Optional[int] = None) -> int:
        """The value of a max flow from the open sources to the open sinks,
        by shortest augmenting paths. `limit` stops once the value exceeds
        it; the value is then only a lower bound."""
        value = 0
        while limit is None or value <= limit:
            pushed = self._bfs_augment()
            if pushed == 0:
                break
            value += pushed
        return value

    def sink_coreach(self) -> frozenset:
        """The nodes that can still reach the sink in the residual digraph;
        read after an `augment` that ran to a max flow."""
        rev: dict[tuple, list] = {node: [] for node in self.cap}
        for a, out in self.cap.items():
            for b, c in out.items():
                if c > 0:
                    rev[b].append(a)
        return reach(rev, [_SINK])


def max_disjoint_paths(g: LabeledGraph, a: Iterable[int], b: Iterable[int]) -> int:
    """Maximum number of fully vertex-disjoint paths between two vertex sets
    (shared vertices count as zero-length paths)."""
    a_set, b_set = frozenset(a), frozenset(b)
    for v in a_set | b_set:
        if not g.has_vertex(v):
            raise InputError(f"no vertex {v}")
    if not a_set or not b_set:
        return 0
    net = _SplitNetwork(g.simple_adjacency(), a_set, b_set, frozenset())
    net.open(a_set, b_set)
    return net.augment()


# Important separators ---------------------------------------------------------

@dataclass(frozen=True)
class ImportantSeparator:
    separator: frozenset[int]
    reach: frozenset[int]


class ImportantSeparatorEnumeration:
    """Sequence of important separators plus an inseparability report.

    inseparable is true when some X-Y path cannot be cut by vertices outside
    X and Y (then no separator of any size exists and the list is empty).
    """

    def __init__(self, separators: list[ImportantSeparator], inseparable: bool):
        self.separators = separators
        self.inseparable = inseparable

    def __iter__(self):
        return iter(self.separators)

    def __len__(self):
        return len(self.separators)

    def __getitem__(self, idx):
        return self.separators[idx]


def _is_separator(adj: Adjacency, x: frozenset, y: frozenset, s: frozenset) -> bool:
    return not (reach(adj, x, s) & y)


def _inseparable(adj: Adjacency, x: frozenset, y: frozenset) -> bool:
    outside = frozenset(adj) - x - y
    return bool(reach(adj, x, outside) & y)


def _candidate_separators(
    adj: Adjacency, x: frozenset, y: frozenset, budget: int
) -> set[frozenset]:
    """Superset of the important X-Y separators of size <= budget, by
    flow-based branching on the reach-maximal minimum separator."""
    if _inseparable(adj, x, y):
        return set()
    net = _SplitNetwork(adj, x, y, x | y)
    net.open(x, y)
    value = net.augment(limit=budget)
    if value > budget:
        return set()
    if value == 0:
        return {frozenset()}
    coreach = net.sink_coreach()
    s_max = frozenset(
        v
        for v in adj
        if v not in x
        and v not in y
        and ("out", v) in coreach
        and ("in", v) not in coreach
    )
    if len(s_max) != value:
        raise InternalInvariantError("min cut extraction does not match flow value")
    out = {s_max}
    v = min(s_max)
    # branch: v joins the separator
    adj_minus = {
        u: tuple(w for w in nbrs if w != v) for u, nbrs in adj.items() if u != v
    }
    for s in _candidate_separators(adj_minus, x, y, budget - 1):
        out.add(s | {v})
    # branch: v joins the source side, which strictly grows its reach
    grown = reach(adj, x, s_max) | {v}
    for s in _candidate_separators(adj, grown, y, budget):
        out.add(s)
    return out


def _important_separators_adj(
    adj: Adjacency, x: frozenset, y: frozenset, budget: int
) -> list[ImportantSeparator]:
    candidates = _candidate_separators(adj, x, y, budget)
    minimal = []
    for s in candidates:
        if len(s) > budget or not _is_separator(adj, x, y, s):
            continue
        if any(_is_separator(adj, x, y, s - {v}) for v in s):
            continue
        minimal.append(s)
    with_reach = [(s, reach(adj, x, s)) for s in minimal]
    # drop dominated ones; every domination chain ends at an important
    # separator and those all appear among the candidates, so an in-set
    # check is exact
    important = [
        ImportantSeparator(s, r)
        for s, r in with_reach
        if not any(len(s2) <= len(s) and r2 > r for s2, r2 in with_reach if s2 != s)
    ]
    important.sort(key=lambda imp: (len(imp.separator), sorted(imp.separator)))
    return important


def enumerate_important_separators(
    g: LabeledGraph, x: Iterable[int], y: Iterable[int], k: int
) -> ImportantSeparatorEnumeration:
    """Exactly the important X-Y separators of size at most k.

    A separator here is a vertex set disjoint from X and Y meeting every
    X-Y path; it is important when it is inclusion-minimal and no separator
    of at most its size has a strictly larger X-reach. Results are sorted by
    (size, vertex list).
    """
    x_set, y_set = frozenset(x), frozenset(y)
    if x_set & y_set:
        raise InputError("X and Y overlap")
    for v in x_set | y_set:
        if not g.has_vertex(v):
            raise InputError(f"no vertex {v}")
    if k < 0:
        raise InputError("budget must be non-negative")
    adj = g.simple_adjacency()
    if _inseparable(adj, x_set, y_set):
        return ImportantSeparatorEnumeration([], inseparable=True)
    return ImportantSeparatorEnumeration(
        _important_separators_adj(adj, x_set, y_set, k), inseparable=False
    )


# Well-linked sets ---------------------------------------------------------------

@dataclass(frozen=True)
class WellLinkedWitness:
    z: frozenset[int]
    checked_to: int
    linked: bool
    failure: Optional[tuple[frozenset[int], frozenset[int]]] = None


def verify_well_linked(g: LabeledGraph, z: Iterable[int], p: int) -> WellLinkedWitness:
    """Flow-check every pair of equal-size subsets of Z up to size p.

    Disjoint A-B paths read backwards are B-A paths, so each unordered pair
    gets one flow, and A links to itself by zero-length paths. The failure
    reported is the first failing ordered pair (A, B) in combination order;
    its reverse comes later, so it is found with A first.

    One split network, wired to every vertex of Z, serves all the pairs: a
    pair opens its own terminals, stops once |A| paths are found, and
    restores the capacities for the next pair.
    """
    z_set = frozenset(z)
    for v in z_set:
        if not g.has_vertex(v):
            raise InputError(f"no vertex {v}")
    net = _SplitNetwork(g.simple_adjacency(), z_set, z_set, frozenset())
    for size in range(1, min(p, len(z_set)) + 1):
        subsets = [frozenset(c) for c in itertools.combinations(sorted(z_set), size)]
        for i, a in enumerate(subsets):
            for b in subsets[i + 1:]:
                net.open(a, b)
                linked = net.augment(limit=size - 1) >= size
                net.restore()
                if not linked:
                    return WellLinkedWitness(z_set, p, False, (a, b))
    return WellLinkedWitness(z_set, p, True)


# Treewidth reduction ------------------------------------------------------------

def _partitions(items: list[int]):
    """Set partitions in restricted-growth order, at least two parts."""
    n = len(items)
    if n < 2:
        return
    rgs = [0] * n
    while True:
        count = max(rgs) + 1
        if count >= 2:
            parts: list[set[int]] = [set() for _ in range(count)]
            for idx, part_idx in enumerate(rgs):
                parts[part_idx].add(items[idx])
            yield tuple(frozenset(p) for p in parts)
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
            i -= 1
        else:
            return


def _marking_set(
    adj: Adjacency, t: int, t_set: frozenset[int], z_set: frozenset[int]
) -> frozenset[int]:
    """Core of the reduction: mark the Z-vertices that important separators
    of the apex graph can reach, over all terminal partitions. Assumes the
    caller has validated sizes and linkage."""
    fresh = max(adj) + 1 if adj else 0
    q_star = fresh
    sub_of = {zv: fresh + 1 + i for i, zv in enumerate(sorted(z_set))}
    adj_sets: dict[int, set[int]] = {v: set(ns) for v, ns in adj.items()}
    adj_sets[q_star] = set()
    for zv, zs in sub_of.items():
        adj_sets[zs] = {q_star, zv}
        adj_sets[zv].add(zs)
        adj_sets[q_star].add(zs)
    aux: Adjacency = {v: tuple(sorted(ns)) for v, ns in adj_sets.items()}

    marked: set[int] = set()
    partition_count = 0
    per_partition_bound = (16 ** t) * 2 * t
    for parts in _partitions(sorted(t_set)):
        partition_count += 1
        per_partition: set[int] = set()
        for part in parts:
            far_side = frozenset({q_star}) | (t_set - part)
            if _inseparable(aux, part, far_side):
                continue
            for imp in _important_separators_adj(aux, part, far_side, 2 * t):
                # the separator itself must be marked too: a cut vertex
                # adjacent to both terminal sides is in every separator and
                # in no reach, so reach-only marking misses it
                per_partition |= z_set & (imp.reach | imp.separator)
        if len(per_partition) > per_partition_bound:
            raise InternalInvariantError(
                f"per-partition marking exceeded {per_partition_bound}: "
                f"{len(per_partition)}"
            )
        marked |= per_partition
    if partition_count > len(t_set) ** len(t_set):
        raise InternalInvariantError("partition enumeration exceeded t^t")
    if len(marked) > t ** (6 * t):
        raise InternalInvariantError("marking exceeded t^(6t)")
    return frozenset(marked)


def tw_reduction_set(
    g: LabeledGraph,
    t: int,
    terminals: Iterable[int],
    z: Iterable[int],
) -> frozenset[int]:
    """A set of marked vertices such that no vertex of Z outside it belongs
    to any minimal multiway cut of the terminals of size at most t.

    Construction: add an apex q* joined to every vertex of Z by a length-2
    path; for every partition of the terminals into at least two parts and
    every part P, enumerate the important separators of size at most 2t
    between P and {q*} union the remaining terminals, and mark the
    Z-vertices inside each separator or its P-reach.

    Z must satisfy |Z| >= 2t+1 and be (t+1)-linked in the given graph,
    which is what the residue argument consumes.
    """
    t_set = frozenset(terminals)
    z_set = frozenset(z)
    if t <= 1:
        raise InputError("precondition failed: t must be at least 2")
    if len(t_set) > t:
        raise InputError(
            f"precondition failed: terminal set larger than t ({len(t_set)} > {t})"
        )
    if z_set & t_set:
        raise InputError("precondition failed: Z intersects the terminal set")
    for v in t_set | z_set:
        if not g.has_vertex(v):
            raise InputError(f"no vertex {v}")
    if len(z_set) < 2 * t + 1:
        raise InputError(
            f"precondition failed: |Z| = {len(z_set)} below 2t+1 = {2 * t + 1}"
        )
    witness = verify_well_linked(g, z_set, t + 1)
    if not witness.linked:
        a, b = witness.failure
        raise InputError(
            "precondition failed: Z is not well-linked "
            f"(subsets {sorted(a)} and {sorted(b)} lack a linkage)"
        )
    if len(t_set) < 2:
        return frozenset()
    return _marking_set(g.simple_adjacency(), t, t_set, z_set)


# Irrelevant vertex ---------------------------------------------------------------

def find_irrelevant_vertex(
    g: LabeledGraph,
    sep: Separation,
    z: Iterable[int],
    p: int,
    k: int,
) -> int:
    """A vertex of Z whose deletion preserves the packing-or-cover outcome.

    The separation must have a clean side A with 1 < |A cap B| <= p, and Z
    must be a well-linked subset of A minus B. For every way of keeping at
    least two boundary vertices and deleting the rest, the marking set of the
    kept boundary is collected; the answer is the smallest Z-vertex outside
    all of them, so it sits in no small multiway cut of any boundary residue.
    k is part of the equivalence contract and plays no role in the
    computation.

    Size gate: |Z| >= 2p+1.
    """
    validate_separation(g, sep)
    boundary = sep.boundary
    z_set = frozenset(z)
    if k < 1:
        raise InputError("precondition failed: k must be positive")
    if not 1 < len(boundary) <= p:
        raise InputError(
            f"precondition failed: separator order {len(boundary)} not in (1, {p}]"
        )
    if not z_set <= sep.a - sep.b:
        raise InputError("precondition failed: Z must avoid B and sit inside A")
    if len(z_set) < 2 * p + 1:
        raise InputError(
            f"precondition failed: |Z| = {len(z_set)} below 2p+1 = {2 * p + 1}"
        )
    g_a = g.induced_subgraph(sep.a)
    if not is_clean(g_a):
        raise InputError("precondition failed: the A side is not clean")
    witness = verify_well_linked(g_a, z_set, p + 1)
    if not witness.linked:
        raise InputError("precondition failed: Z is not well-linked in the A side")

    # deleting boundary vertices can degrade Z's linkage, so the inner calls
    # skip the entry validation; the premises were checked once above
    marked: set[int] = set()
    adj_a = g_a.simple_adjacency()
    x_sorted = sorted(boundary)
    for keep_size in range(2, len(x_sorted) + 1):
        for kept in itertools.combinations(x_sorted, keep_size):
            dropped = frozenset(x_sorted) - frozenset(kept)
            sub_adj = {
                v: tuple(w for w in ns if w not in dropped)
                for v, ns in adj_a.items()
                if v not in dropped
            }
            marked |= _marking_set(sub_adj, keep_size, frozenset(kept), z_set)
    eligible = sorted(z_set - marked)
    if not eligible:
        raise InputError(
            "no eligible vertex: every candidate is marked, so a size or "
            "linkage precondition must have been violated upstream"
        )
    return eligible[0]
