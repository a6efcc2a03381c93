"""Outside-in layer tracing for epkit.

`Tracer.install()` wraps every public function of each layer module (and
the graph-building methods of `LabeledGraph`) and rebinds each binding of
the original function across the `epkit` package: the module attribute
itself and every `from .x import f` copy in the other modules. `src/` is
not edited; `uninstall()` restores every binding.

A span records its name, start, end, parent span and operation id. Spans
are kept in memory (flat arrays) and written out by `dump()`. Self time is
a span's duration minus the durations of its direct children, computed as
spans close. The hottest leaf helpers are only counted, never spanned.
"""

import importlib
import inspect
import json
import sys
import time
from array import array

# The modules of src/epkit that the benchmark treats as layers. `cli` and
# `generators` are not layers; `errors` holds no functions.
LAYERS = (
    "solver", "treedec", "labeling", "packing", "cuts",
    "oracle", "graph", "groups", "verify", "certificates",
)

# Small helpers called 25,000 to 1,600,000 times per pass. A span costs
# about a microsecond, which would add 40% to a corpus pass; these are
# counted instead, and their time stays with the caller.
COUNT_ONLY = frozenset({
    "groups.multiply", "groups.inverse", "groups.identity",
    "groups.is_identity", "groups.validate_spec",
    "graph.step_endpoints", "graph.walk_vertices",
})

# LabeledGraph methods that build or scan a whole graph. The accessors
# (incident, arc, has_vertex, ...) are part of their callers' self time.
GRAPH_METHODS = (
    "induced_subgraph", "delete_vertices", "delete_arcs", "with_labels",
    "connected_components", "simple_adjacency",
)

ROOT_OP = "bench.op"
ROOT_SETUP = "bench.setup"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one entry per span: name id, parent span (-1 for a root), op id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack = []  # open spans: [span id, time covered by children]
        # name -> [calls, self_s, incl_s, raised, open depth]
        self.stats = {}
        self.counters = {}
        self._calls = {}  # count-only name -> [calls]
        self._replace = None
        self._originals = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return self._name_ids[name]

    def _spanned(self, name, fn, on_entry=None, on_exit=None):
        """fn wrapped in a span; the hooks update `counters`."""
        name_id = self._intern(name)
        stats = self.stats[name]
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            if on_entry is not None:
                on_entry(counters, args, kwargs)
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            stats[4] += 1
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[4] -= 1
                if stats[4] == 0:  # outermost call of a recursive function
                    stats[2] += dur
                if stack:
                    stack[-1][1] += dur
            if on_exit is not None:
                on_exit(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        return self._spanned(name, fn)(*args, **kwargs)

    def _counted(self, name, fn):
        cell = self._calls[name] = [0]
        # fixed arity keeps the wrapper cheap; these helpers take one or
        # two positional arguments
        if len(inspect.signature(fn).parameters) == 1:
            def wrapper(a, _f=fn, _c=cell):
                _c[0] += 1
                return _f(a)
        else:
            def wrapper(a, b, _f=fn, _c=cell):
                _c[0] += 1
                return _f(a, b)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layers and rebind every copy of each wrapped function.
        The wrappers are built once; installing again rebinds the same ones."""
        if self._replace is None:
            self._build()
        for owner, attr, original in self._originals:
            setattr(owner, attr, self._replace[original])
        return self

    def uninstall(self):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def _build(self):
        replace = self._replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"epkit.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    replace[obj] = self._counted(name, obj)
                else:
                    replace[obj] = self._spanned(name, obj, *_HOOKS.get(name, ()))
        cls = importlib.import_module("epkit.graph").LabeledGraph
        for attr in GRAPH_METHODS:
            fn = vars(cls)[attr]
            replace[fn] = self._spanned(f"graph.{attr}", fn)
            self._originals.append((cls, attr, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "epkit" and not modname.startswith("epkit."):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in replace:
                    self._originals.append((mod, attr, obj))

    # -- results -----------------------------------------------------------

    def totals(self):
        """{name: {calls, self_s, incl_s, raised}} for every span name."""
        return {
            name: {"calls": s[0], "self_s": s[1], "incl_s": s[2], "raised": s[3]}
            for name, s in self.stats.items()
        }

    def all_counters(self):
        out = dict(self.counters)
        for name, cell in self._calls.items():
            out[f"{name}.calls"] = cell[0]
        return out

    def dump(self, path, extra=None):
        """Write names, totals and the span table (one list per column,
        times in ns from the first span), a column at a time."""
        base = self.span_start[0] if self.span_start else 0.0
        columns = {
            "name": lambda: list(self.span_name),
            "parent": lambda: list(self.span_parent),
            "op": lambda: list(self.span_op),
            "start_ns": lambda: [round((t - base) * 1e9) for t in self.span_start],
            "end_ns": lambda: [round((t - base) * 1e9) for t in self.span_end],
        }
        head = {
            "names": self.names,
            "totals": self.totals(),
            "counters": self.all_counters(),
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(head)[:-1] + ', "spans": {')
            for n, (key, column) in enumerate(columns.items()):
                handle.write(f'{", " if n else ""}"{key}": {json.dumps(column())}')
            handle.write("}}")


def self_times_by_op(spans):
    """From a dumped span table, recompute each span's self time (its
    duration minus its children's) and sum them per operation id:
    {op: (sum of self times, summed duration of the op's root spans)}."""
    parent, op = spans["parent"], spans["op"]
    dur = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    child = [0] * len(dur)
    for sid, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[sid]
    out = {}
    for sid, p in enumerate(parent):
        total, root = out.get(op[sid], (0, 0))
        out[op[sid]] = (total + dur[sid] - child[sid], root + (dur[sid] if p < 0 else 0))
    return out


# Counters observed at the wrapper: work done and distance to each guard.

def _max(counters, key, value):
    if value > counters.get(key, 0):
        counters[key] = value


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _strip_entry(c, args, kwargs):
    _max(c, "solver.strip_null_arcs.n_max", args[0].n)


def _strip_exit(c, args, kwargs, stripped):
    _add(c, "solver.strip_null_arcs.arcs_removed", args[0].m - stripped.m)


def _td_entry(c, args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
    if mode == "exact":
        _max(c, "treedec.tree_decomposition.exact_n_max", args[0].n)


def _td_exit(c, args, kwargs, td):
    _max(c, "treedec.tree_decomposition.width_max", td.width)
    _add(c, "treedec.tree_decomposition.nodes", len(td.nodes))


def _cycles_exit(c, args, kwargs, cycles):
    _max(c, "oracle.enumerate_cycles.cycles_max", len(cycles))


def _expansion_exit(c, args, kwargs, eta):
    _add(c, "packing.find_clique_expansion.found", eta is not None)


_HOOKS = {
    "solver.strip_null_arcs": (_strip_entry, _strip_exit),
    "treedec.tree_decomposition": (_td_entry, _td_exit),
    "oracle.enumerate_cycles": (None, _cycles_exit),
    "packing.find_clique_expansion": (None, _expansion_exit),
}
