"""Spans and counts at the package's layer boundaries, recorded from outside.

:class:`Tracer` wraps public functions of the package in every module
namespace that imported them, so calls made inside the package are seen
too.  Each wrapper records a span (name, start, end, parent span) and adds
to the function's counts: calls, self time (its span minus the part its
traced children cover), search nodes (the change in ``budget.used_nodes``
across the call) and useful outcomes.  ``install`` and ``uninstall`` swap
the wrappers in and out, so untraced rounds run the package as it is.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

ROOT_SPAN = "bench.operation"


# (module, attribute, counts beyond calls and self time); an attribute with a
# dot is a method, patched on its class only.  "hits" counts calls that
# returned something (a generator: that yielded at least once), "found"
# calls that returned a FOUND report, "nodes" the search nodes spent.
LAYERS = (
    ("fileio", "read_embedding", ()),
    ("embedding", "Embedding.__init__", ()),
    ("embedding", "trace_faces", ()),
    ("embedding", "dual_graph", ()),
    ("embedding", "extract_disk", ()),
    ("embedding", "cap_with_apex", ()),
    ("catalog", "gen_altshuler", ()),
    ("isomorphism", "embedding_isomorphisms", ("hits",)),
    ("chroma", "find_subgraph", ("nodes", "hits")),
    ("solver", "four_color_vertices", ("nodes",)),
    ("solver", "solve_exact", ("nodes", "found")),
    ("solver", "SolveReport.to_json", ()),
    ("coloring", "tait_lift", ()),
    ("coloring", "kempe_change", ()),
    ("coloring", "verify_grunbaum", ()),
    ("pipeline", "solve", ()),
    ("pipeline", "recognize_grid_coloring", ()),
    ("pipeline", "match_frame", ()),
    ("pipeline", "extend_over_face", ()),
    ("pipeline", "apex_solve", ()),
    ("pipeline", "achievable_square_kinds", ()),
    ("pipeline", "solve_disk", ()),
)

USEFUL = {
    "hits": lambda result: result is not None,
    "found": lambda report: report.status == "FOUND",
}


def span_name(module, attr):
    return f"{module}.{attr.removesuffix('.__init__')}"


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "nodes", "useful")

    def __init__(self):
        self.calls = self.nodes = self.useful = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    def __init__(self, package):
        self.stats = {}       # span name -> Stat, since the last reset
        self.op_self = {}     # span name -> self seconds, current operation
        self.spans = []       # [name, start, end, parent index]
        self.keep_spans = True
        self._stack = []      # [span index, start, child seconds]
        self._patches = []    # (owner, attribute, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module, attr, counts in LAYERS:
            name = span_name(module, attr)
            owner = getattr(package, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[meth]
                wrapper = self._wrap(name, fn, counts)
                self._patches.append((owner, meth, fn, wrapper))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn, wrapper))
        self.reset()

    def reset(self):
        self.stats = {span_name(m, a): Stat() for m, a, _ in LAYERS}
        self.stats[ROOT_SPAN] = Stat()

    def install(self):
        for owner, key, _fn, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, fn, _wrapper in self._patches:
            setattr(owner, key, fn)

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        index = -1
        if self.keep_spans:
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        start = perf_counter()
        self._stack.append([index, start, 0.0])
        if index >= 0:
            self.spans[index][1] = start

    def exit(self, name):
        end = perf_counter()
        index, start, children = self._stack.pop()
        if index >= 0:
            self.spans[index][2] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats[name]
        own = duration - children
        stat.self_s += own
        stat.total_s += duration
        self.op_self[name] = self.op_self.get(name, 0.0) + own

    def operation(self, fn, *args):
        """Run one operation under the root span; returns fn's result."""
        self.op_self = {}
        self.stats[ROOT_SPAN].calls += 1
        self.enter(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self.exit(ROOT_SPAN)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, counts):
        params = list(inspect.signature(fn).parameters)
        budget_at = params.index("budget") if "nodes" in counts else None
        pred = next((USEFUL[c] for c in counts if c in USEFUL), None)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.stats[name].calls += 1
                return _TracedIterator(tracer, name, fn(*args, **kwargs))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = tracer.stats[name]
            stat.calls += 1
            budget = None
            if budget_at is not None:
                budget = kwargs.get("budget")
                if budget is None and len(args) > budget_at:
                    budget = args[budget_at]
            before = budget.used_nodes if budget is not None else 0
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(name)
                if budget is not None:
                    stat.nodes += budget.used_nodes - before
            if pred is not None and pred(result):
                stat.useful += 1
            return result
        return wrapper


class _TracedIterator:
    """Iterates a generator, one span per step; the first item is a hit."""

    def __init__(self, tracer, name, it):
        self.tracer, self.name, self.it = tracer, name, it
        self.hit = False

    def __iter__(self):
        return self

    def __next__(self):
        self.tracer.enter(self.name)
        try:
            item = next(self.it)
        finally:
            self.tracer.exit(self.name)
        if not self.hit:
            self.hit = True
            self.tracer.stats[self.name].useful += 1
        return item
