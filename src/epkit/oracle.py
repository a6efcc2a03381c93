"""Exact reference answers on small graphs.

Everything here is exponential and guarded. The guards raise rather than
silently truncate, so a caller can trust any value that comes back.

Cycle enumeration is canonical: each simple cycle appears once, regardless
of rotation or direction. Loops are length-1 cycles; a pair of parallel
arcs is a length-2 cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterable, Optional

from .errors import GuardExceeded, InputError
from .graph import (
    FORWARD,
    LabeledGraph,
    StepTable,
    Walk,
    _canonical_key,
    step_table,
)
from .groups import GroupSpec, _inv, _mul, identity


@dataclass(frozen=True)
class OracleGuards:
    max_vertices: int = 14
    max_cycles: int = 20000


DEFAULT_GUARDS = OracleGuards()


def _check_size(g: LabeledGraph, guards: OracleGuards) -> None:
    if g.n > guards.max_vertices:
        raise GuardExceeded(
            f"oracle limited to {guards.max_vertices} vertices, got {g.n}"
        )


def simple_paths(
    table: StepTable,
    start: int,
    ends: Container[int],
    blocked: Iterable[int],
    emit: Callable[[int, tuple[tuple[int, int], ...]], bool],
) -> bool:
    """Depth-first search over the simple paths that leave `start`, on a
    graph's `step_table`.

    Steps are tried in table order, which is `g.incident` order without
    loops. A step onto a vertex in `ends` calls emit(end, steps) and goes
    no further; a step onto any other vertex that is neither on the path
    nor in `blocked` extends the path. The search stops, and returns True,
    as soon as emit returns True. It takes a callback rather than being a
    generator, which would hand every path up through every frame of the
    recursion.
    """
    closed = set(blocked)
    closed.add(start)

    def extend(v: int, steps: tuple[tuple[int, int], ...]) -> bool:
        for w, step in table[v]:
            if w in ends:
                if emit(w, steps + (step,)):
                    return True
            elif w not in closed:
                closed.add(w)
                if extend(w, steps + (step,)):
                    return True
                closed.discard(w)
        return False

    found = extend(start, ())
    # `extend` calls itself through its closure, a reference cycle; deleting
    # the name frees the search state now, not at the next cyclic collection
    del extend
    return found


def _step_payloads(
    g: LabeledGraph, table: StepTable
) -> dict[tuple[int, int], object]:
    """The label payload of each step in a `step_table` of g, inverted for
    a reverse step."""
    spec = g.group
    payload = {}
    for row in table.values():
        for _, step in row:
            label = g.arc(step[0]).label.payload
            payload[step] = label if step[1] == FORWARD else _inv(spec, label)
    return payload


def _path_value(
    spec: GroupSpec, payload: dict[tuple[int, int], object], steps: tuple[tuple[int, int], ...]
) -> object:
    """The value payload of a non-empty step sequence, from `_step_payloads`."""
    value = payload[steps[0]]
    for step in steps[1:]:
        value = _mul(spec, value, payload[step])
    return value


def enumerate_cycles(
    g: LabeledGraph,
    guards: OracleGuards = DEFAULT_GUARDS,
    keep: Optional[Callable[[object], bool]] = None,
) -> list[Walk]:
    """All simple cycles, one representative each, in canonical order;
    with `keep`, only the cycles whose value payload (see `groups`) it
    accepts.

    Paths from each start vertex s back to s, only visiting vertices > s in
    between, so every cycle is found exactly at its minimum vertex: once in
    each traversal direction, or once if it is a loop. A simple cycle is
    fixed by its arc set (its arcs form one closed trail through distinct
    vertices, and two parallel arcs or one loop form a single cycle), so a
    bitmask over the arcs' positions in `g.arcs` dedupes the two directions
    while the first walk found is kept. `guards.max_cycles` counts every
    distinct cycle, kept or not.

    A cycle is recorded from tables built once per call, one entry per
    step: its source vertex and its label payload, inverted for a reverse
    step. Only a kept cycle becomes a `Walk` and gets its canonical form,
    once, as its sort key.
    """
    _check_size(g, guards)
    spec = g.group
    bit = {arc.id: 1 << i for i, arc in enumerate(g.arcs)}
    table = step_table(g)
    source = {step: v for v, row in table.items() for _, step in row}
    payload = _step_payloads(g, table)
    seen: set[int] = set()
    keyed: list[tuple[tuple, Walk]] = []

    def record(steps: tuple[tuple[int, int], ...]) -> None:
        arc_mask = 0
        for arc_id, _ in steps:
            arc_mask |= bit[arc_id]
        if arc_mask in seen:
            return
        seen.add(arc_mask)
        if len(seen) > guards.max_cycles:
            raise GuardExceeded(f"more than {guards.max_cycles} cycles")
        if keep is not None and not keep(_path_value(spec, payload, steps)):
            return
        key = _canonical_key([source[step] for step in steps], [step[0] for step in steps])
        keyed.append((key, Walk(steps)))

    def close(_end: int, steps: tuple[tuple[int, int], ...]) -> bool:
        # a walk out and back along one arc is not a cycle
        if not (len(steps) == 2 and steps[0][0] == steps[1][0]):
            record(steps)
        return False

    for arc in g.arcs:
        if arc.is_loop:
            step = (arc.id, FORWARD)
            source[step] = arc.tail
            payload[step] = arc.label.payload
            record((step,))

    below: list[int] = []
    for s in g.vertices:
        simple_paths(table, s, {s}, below, close)
        below.append(s)

    # canonical forms are distinct, so the walks never decide the order
    keyed.sort(key=lambda pair: pair[0])
    return [walk for _, walk in keyed]


def enumerate_non_null_cycles(
    g: LabeledGraph, guards: OracleGuards = DEFAULT_GUARDS
) -> list[Walk]:
    """The cycles of `enumerate_cycles` whose value is not the identity,
    in the same order and with the same walks."""
    e = identity(g.group).payload
    return enumerate_cycles(g, guards, keep=lambda value: value != e)


def _cycle_vertex_sets(g: LabeledGraph, cycles: list[Walk]) -> list[frozenset[int]]:
    """Each cycle's vertex set: the ends of its arcs."""
    ends = {a.id: (a.tail, a.head) for a in g.arcs}
    return [frozenset(v for arc_id, _ in w.steps for v in ends[arc_id]) for w in cycles]


def min_hitting_set(
    vertex_sets: list[frozenset[int]], cap: int
) -> Optional[tuple[int, ...]]:
    """An exact minimum set meeting every given vertex set, None beyond cap.

    Iterative deepening; branches on the vertices of the first unhit set,
    ascending, so the answer is deterministic.
    """

    def hit(depth: int, chosen: frozenset[int]) -> Optional[frozenset[int]]:
        unhit = next((vs for vs in vertex_sets if not (vs & chosen)), None)
        if unhit is None:
            return chosen
        if depth == 0:
            return None
        for v in sorted(unhit):
            found = hit(depth - 1, chosen | {v})
            if found is not None:
                return found
        return None

    found = None
    for depth in range(cap + 1):
        found = hit(depth, frozenset())
        if found is not None:
            break
    # `hit` calls itself through its closure, a reference cycle; deleting
    # the name frees the search state now, not at the next cyclic collection
    del hit
    return None if found is None else tuple(sorted(found))


def min_gfvs(
    g: LabeledGraph, guards: OracleGuards = DEFAULT_GUARDS
) -> list[int]:
    """A minimum set of vertices meeting every non-null cycle.

    Deterministic: the search takes the cycles in canonical order. The
    whole vertex set meets every cycle, so a cap of n always finds one.
    """
    cycles = enumerate_non_null_cycles(g, guards)
    return list(min_hitting_set(_cycle_vertex_sets(g, cycles), g.n))


def pack_sets(
    vertex_sets: list[frozenset[int]],
    capacity: int,
    stop_at: Optional[int] = None,
) -> list[int]:
    """Indices of a maximum subfamily with every vertex in at most
    `capacity` of its sets. `stop_at` returns early once that many fit.

    An include-first depth-first search over the sets in the order given;
    it keeps the first largest subfamily it finds, listed in that order,
    and prunes only branches that cannot beat it. Each set is a bitmask
    over the positions of its vertices in the sorted union of the sets.
    A saturation mask `full` holds the vertices whose usage has reached
    `capacity`; it is an argument of the search, so a backtrack restores
    it. A set fits exactly when `mask & full == 0`, so the bound that
    counts the remaining sets that still fit one at a time costs one AND
    per set."""
    if capacity < 1:
        raise InputError("capacity must be at least 1")
    position = {
        v: i for i, v in enumerate(sorted(frozenset().union(*vertex_sets)))
    }
    bits = [[position[v] for v in vs] for vs in vertex_sets]
    masks = [sum(1 << b for b in set_bits) for set_bits in bits]
    usage = [0] * len(position)
    best: list[int] = []

    def can_beat(idx: int, slack: int, full: int) -> bool:
        """Could at least `slack` + 1 more sets still fit individually?"""
        if slack < 0:
            return True
        count = 0
        for mask in masks[idx:]:
            if not mask & full:
                count += 1
                if count > slack:
                    return True
        return False

    chosen: list[int] = []

    def search(idx: int, full: int) -> bool:
        # skipping a set advances idx in place; recursion depth is the
        # number of chosen sets, not the number of given ones
        nonlocal best
        while True:
            if stop_at is not None and len(best) >= stop_at:
                return True
            if idx == len(masks):
                if len(chosen) > len(best):
                    best = list(chosen)
                return stop_at is not None and len(best) >= stop_at
            if not can_beat(idx, len(best) - len(chosen), full):
                return False
            if not masks[idx] & full:
                grown = full
                for b in bits[idx]:
                    usage[b] += 1
                    if usage[b] == capacity:
                        grown |= 1 << b
                chosen.append(idx)
                if search(idx + 1, grown):
                    return True
                chosen.pop()
                for b in bits[idx]:
                    usage[b] -= 1
            idx += 1

    search(0, 0)
    # `search` calls itself through its closure, a reference cycle; deleting
    # the name frees the search state now, not at the next cyclic collection
    del search
    return best


def max_packing(
    g: LabeledGraph,
    capacity: int,
    stop_at: Optional[int] = None,
    guards: OracleGuards = DEFAULT_GUARDS,
) -> list[Walk]:
    """A maximum collection of distinct non-null cycles with every vertex
    used at most `capacity` times. capacity=1 is the integral packing
    number, capacity=2 the half-integral one. `stop_at` returns early once
    that many cycles fit.

    `pack_sets` searches the cycles' vertex sets by size, then canonical
    order, and keeps the first largest collection it finds; its bits index
    the sorted union of those sets."""
    # `pack_sets` checks this too, but only after the enumeration
    if capacity < 1:
        raise InputError("capacity must be at least 1")
    cycles = enumerate_non_null_cycles(g, guards)
    sets = _cycle_vertex_sets(g, cycles)
    order = sorted(range(len(cycles)), key=lambda i: (len(sets[i]), i))
    chosen = pack_sets([sets[j] for j in order], capacity, stop_at)
    return [cycles[order[i]] for i in chosen]


def ep_predicate(
    g: LabeledGraph,
    k: int,
    p: int,
    guards: OracleGuards = DEFAULT_GUARDS,
) -> bool:
    """Ground truth for the packing-or-cover promise: a half-integral
    packing of k non-null cycles exists, or some cover of size at most p
    does."""
    if k < 1 or p < 0:
        raise InputError("need k >= 1 and p >= 0")
    if len(max_packing(g, 2, stop_at=k, guards=guards)) >= k:
        return True
    return len(min_gfvs(g, guards)) <= p
