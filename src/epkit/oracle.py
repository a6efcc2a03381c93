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

    Every cycle is found at its minimum vertex s, on paths back to s that
    visit only vertices > s in between. The search tries the steps of
    `table[s]` in order, and from the step at position i it records a walk
    only if the walk comes back to s on an arc at a later position. So of
    the two walks of a cycle only the one whose first arc comes earlier at
    s is recorded, and a walk out and back along one arc, which is no
    cycle, never is. `guards.max_cycles` counts every recorded cycle, kept
    by `keep` or not.

    The search goes only where a recorded cycle can still close. Once the
    step at position i has been tried, its arc is deleted, as no later walk
    from s may leave or come back on it; the vertices below s are deleted
    too. A cycle recorded from the step at position i has degree 2 at
    each of its vertices in the graph that is left, so it lies in that
    graph's 2-core. The search peels the core as it goes and blocks every
    vertex outside it: `live[v]` counts v's steps onto vertices still in
    the core, over arcs not deleted, and a vertex with fewer than 2 leaves.
    A start s stops once fewer than 2 of its steps are live. The peeling
    costs O(n + m) per call in all.

    A cycle is recorded from tables built once per call, one entry per
    step: its source vertex and its label payload, inverted for a reverse
    step. Only a kept cycle becomes a `Walk` and gets its canonical form,
    once, as its sort key.
    """
    _check_size(g, guards)
    spec = g.group
    table = step_table(g)
    source = {step: v for v, row in table.items() for _, step in row}
    payload = _step_payloads(g, table)
    count = 0
    keyed: list[tuple[tuple, Walk]] = []

    def record(steps: tuple[tuple[int, int], ...]) -> None:
        nonlocal count
        count += 1
        if count > guards.max_cycles:
            raise GuardExceeded(f"more than {guards.max_cycles} cycles")
        if keep is not None and not keep(_path_value(spec, payload, steps)):
            return
        key = _canonical_key([source[step] for step in steps], [step[0] for step in steps])
        keyed.append((key, Walk(steps)))

    for arc in g.arcs:
        if arc.is_loop:
            step = (arc.id, FORWARD)
            source[step] = arc.tail
            payload[step] = arc.label.payload
            record((step,))

    live = {v: len(row) for v, row in table.items()}
    dead: set[int] = set()
    deleted: set[int] = set()  # arc ids

    def peel(v: int) -> None:
        """Take v out of the core, and with it every vertex whose live
        steps fall below 2."""
        stack = [v]
        while stack:
            u = stack.pop()
            if u in dead:
                continue
            dead.add(u)
            for w, (arc_id, _) in table[u]:
                if w not in dead and arc_id not in deleted:
                    live[w] -= 1
                    if live[w] < 2:
                        stack.append(w)

    for v in g.vertices:
        if live[v] < 2:
            peel(v)

    position: dict[int, int]  # arc id -> its position in table[s]
    at: int  # the position in table[s] of the step being tried
    first: tuple[int, int]  # that step

    def close(_end: int, path: tuple[tuple[int, int], ...]) -> bool:
        if position[path[-1][0]] > at:
            record((first,) + path)
        return False

    for s in g.vertices:
        if s in dead:
            continue
        row = table[s]
        position = {step[0]: i for i, (_, step) in enumerate(row)}
        ends = {s}
        for at, (a, first) in enumerate(row):
            if live[s] < 2:
                break
            if a in dead:
                continue
            simple_paths(table, a, ends, dead, close)
            deleted.add(first[0])
            live[s] -= 1
            live[a] -= 1
            if live[a] < 2:
                peel(a)
        peel(s)

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
    return _min_gfvs(g, enumerate_non_null_cycles(g, guards))


def _min_gfvs(g: LabeledGraph, cycles: list[Walk]) -> list[int]:
    """`min_gfvs` on g's non-null cycles as `enumerate_non_null_cycles`
    lists them."""
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
    per set.

    Before that count, a cheaper bound: `room`, the free slots left
    (capacity times the size of the union, less the sizes of the chosen
    sets), also an argument of the search. Every set from position idx on
    has at least `least[idx]` vertices, so fewer than (slack + 1) times
    that many free slots cannot hold the slack + 1 further sets that
    beating the best needs. Both bounds cut only branches that cannot
    produce a larger subfamily, and the search meets the others in the
    same order, so it returns the same subfamily as without them."""
    if capacity < 1:
        raise InputError("capacity must be at least 1")
    position = {
        v: i for i, v in enumerate(sorted(frozenset().union(*vertex_sets)))
    }
    bits = [[position[v] for v in vs] for vs in vertex_sets]
    masks = [sum(1 << b for b in set_bits) for set_bits in bits]
    least = [len(set_bits) for set_bits in bits]
    for i in range(len(least) - 2, -1, -1):
        least[i] = min(least[i], least[i + 1])
    usage = [0] * len(position)
    best: list[int] = []

    def can_beat(idx: int, slack: int, full: int, room: int) -> bool:
        """Could at least `slack` + 1 more sets still fit individually?"""
        if slack < 0:
            return True
        if room < (slack + 1) * least[idx]:
            return False
        count = 0
        for mask in masks[idx:]:
            if not mask & full:
                count += 1
                if count > slack:
                    return True
        return False

    chosen: list[int] = []

    def search(idx: int, full: int, room: int) -> bool:
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
            if not can_beat(idx, len(best) - len(chosen), full, room):
                return False
            if not masks[idx] & full:
                grown = full
                for b in bits[idx]:
                    usage[b] += 1
                    if usage[b] == capacity:
                        grown |= 1 << b
                chosen.append(idx)
                if search(idx + 1, grown, room - len(bits[idx])):
                    return True
                chosen.pop()
                for b in bits[idx]:
                    usage[b] -= 1
            idx += 1

    search(0, 0, capacity * len(position))
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
    return _max_packing(g, enumerate_non_null_cycles(g, guards), capacity, stop_at)


def _max_packing(
    g: LabeledGraph,
    cycles: list[Walk],
    capacity: int,
    stop_at: Optional[int] = None,
) -> list[Walk]:
    """`max_packing` on g's non-null cycles as `enumerate_non_null_cycles`
    lists them."""
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
    cycles = enumerate_non_null_cycles(g, guards)
    if len(_max_packing(g, cycles, 2, stop_at=k)) >= k:
        return True
    return len(_min_gfvs(g, cycles)) <= p
