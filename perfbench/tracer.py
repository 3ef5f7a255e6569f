"""Layer spans for the traced benchmark run, recorded from outside the package.

`install` wraps the public functions and methods of every treesubst module
(the layers) so that a call entering a layer opens a span: name, start, end
and the span it was called from.  A layer's self time is the time of its
spans minus the time of their child spans.

Two rules keep the cost bounded on runs that make millions of exact
arithmetic calls:

- a call from a layer into the same layer opens no span, unless its own
  time or counters are a metric (the TRACKED names); its time stays in the
  caller's span, which belongs to the same layer, so self times are
  unchanged;
- spans with the same parent and the same name are merged into one record
  that keeps the first start, the last end, the number of calls and the
  summed duration.

`layer_metrics` turns the span records and counters of a set of calls into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import Counter
from itertools import islice

LAYERS = (
    "words", "prefix_suffix", "freegroup", "algnum", "trees",
    "realization", "core", "rauzy", "verify", "cli",
)
ROOT_LAYER = "bench"

# special methods that belong to a class's public surface
OPERATORS = frozenset({
    "__init__", "__call__", "__add__", "__sub__", "__mul__", "__neg__",
    "__abs__", "__eq__", "__lt__", "__le__",
})

# exact arithmetic and comparisons counted by algnum.ops
ALGNUM_OPS = frozenset(
    f"algnum.ExactLength.{m}"
    for m in ("__add__", "__sub__", "__mul__", "__neg__", "__abs__",
              "__eq__", "__lt__", "__le__", "scaled", "sign", "is_zero")
)

# metric -> span names whose inclusive time it sums (outermost call only)
TIME_GROUPS = {
    "words.measure_s": (
        "words.measure_spectrum", "words.measure_recursion_gap", "words.cylinder_measure",
    ),
    "trees.apply_s": ("trees.TreeSubstitution.apply",),
    "trees.path_word_s": ("trees.ColoredTree.path_word",),
    "realization.extend_s": ("realization.Realization.extend_to",),
    "realization.edge_check_s": ("realization.Realization.edge_length_check",),
    "realization.gap_s": ("realization.Realization.hausdorff_gap",),
    "core.scan_s": ("core.CoreScan.extend_to",),
    "core.path_audit_s": ("core.CoreScan.check_path_distances",),
    "rauzy.cloud_s": ("rauzy.fractal_cloud", "rauzy.zeta_cloud"),
    "rauzy.check_s": (
        "rauzy.check_boundedness", "rauzy.check_contraction",
        "rauzy.check_partition_match", "rauzy.check_translate_congruence",
    ),
    "rauzy.render_s": ("rauzy.render_svg", "rauzy.export_csv"),
    "verify.suite_s.words": ("verify.words_suite",),
    "verify.suite_s.trees": ("verify.trees_suite",),
    "verify.suite_s.realization": ("verify.realization_suite",),
    "verify.suite_s.core": ("verify.core_suite",),
    "verify.suite_s.rauzy": ("verify.rauzy_suite",),
}

# metric -> span name whose call count it reports
CALL_COUNTS = {
    "trees.iterations_built": "trees.TreeIteration.__init__",
    "trees.path_word_calls": "trees.ColoredTree.path_word",
    "freegroup.p_star_calls": "freegroup.p_star",
    "realization.distance_calls": "realization.distance",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _branch_count(tree) -> int:
    # reads the edge tuple directly, so no wrapped method runs inside a hook
    deg: Counter = Counter()
    for s, t, _ in tree.edges:
        deg[s] += 1
        deg[t] += 1
    return sum(1 for k in deg.values() if k >= 3)


def _new_labels_letters(scan, new: int) -> int:
    return sum(len(lab) for lab in islice(reversed(scan.labels.values()), new))


def _cli_out_bytes(argv) -> int:
    argv = list(argv or ())
    if "--out" not in argv:
        return 0
    path = argv[argv.index("--out") + 1]
    return os.path.getsize(path) if os.path.exists(path) else 0


def _pairs_audited(args, kwargs) -> int:
    branch = _branch_count(args[0].it.trees[_arg(args, kwargs, 1, "n")])
    return branch * (branch - 1) // 2


def _count(metric: str, measure):
    """Hook pair adding measure(args, kwargs, result) to one counter."""
    return None, lambda state, a, k, r: {metric: measure(a, k, r)}


_path_size = _count("rauzy.bytes_written", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")))

# span name -> (before(args, kwargs) -> state, after(state, args, kwargs, result) -> counts)
HOOKS = {
    "words.fixed_point_prefix": _count("words.fixed_point_letters", lambda a, k, r: len(r)),
    "freegroup.p_star": _count(
        "freegroup.p_star_letters", lambda a, k, r: len(_arg(a, k, 1, "tree_word"))
    ),
    "trees.TreeSubstitution.apply": _count("trees.edges_built", lambda a, k, r: len(r.tree.edges)),
    "realization.Realization.extend_to": (
        lambda a, k: len(a[0].points),
        lambda state, a, k, r: {"realization.vertices_placed": len(a[0].points) - state},
    ),
    "core.CoreScan.extend_to": (
        lambda a, k: len(a[0].labels),
        lambda state, a, k, r: {
            "core.labels_registered": len(a[0].labels) - state,
            "core.label_letters": _new_labels_letters(a[0], len(a[0].labels) - state),
        },
    ),
    "core.CoreScan.check_path_distances": _count(
        "core.path_pairs", lambda a, k, r: _pairs_audited(a, k)
    ),
    "rauzy.fractal_cloud": _count("rauzy.orbit_points", lambda a, k, r: len(r)),
    "rauzy.zeta_cloud": _count("rauzy.orbit_points", lambda a, k, r: len(r)),
    "rauzy.render_svg": _path_size,
    "rauzy.export_csv": _path_size,
    "cli.main": _count("cli.bytes_out", lambda a, k, r: _cli_out_bytes(_arg(a, k, 0, "argv"))),
    **{
        name: _count("verify.checks", lambda a, k, r: len(r))
        for name in ("verify.words_suite", "verify.trees_suite", "verify.realization_suite",
                     "verify.core_suite", "verify.rauzy_suite")
    },
}

TRACKED = frozenset(HOOKS) | frozenset(n for g in TIME_GROUPS.values() for n in g) \
    | frozenset(CALL_COUNTS.values())


class Span:
    """Merged record of the calls to one name from one parent span."""

    __slots__ = ("index", "name", "layer", "parent", "start", "end", "calls", "total", "children")

    def __init__(self, index: int, name: str, layer: str, parent: int | None):
        self.index = index
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = 0
        self.end = 0
        self.calls = 0
        self.total = 0
        self.children: dict[str, Span] = {}

    def to_row(self, origin: int) -> list:
        return [self.name, self.layer, self.parent, self.start - origin,
                self.end - origin, self.calls, self.total]


class Tracer:
    """Span tree and counters of the call in progress.

    Outside `begin`/`end` the stack is empty and every wrapper calls
    straight through, so checks run after a timed call are not traced.
    """

    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counters: Counter = Counter()

    def span(self, name: str, layer: str, parent: Span | None) -> Span:
        node = Span(len(self.spans), name, layer, None if parent is None else parent.index)
        self.spans.append(node)
        if parent is not None:
            parent.children[name] = node
        return node

    def begin(self) -> None:
        self.spans = []
        self.counters = Counter()
        root = self.span(f"{ROOT_LAYER}.call", ROOT_LAYER, None)
        root.start = time.perf_counter_ns()
        self.stack.append(root)

    def end(self) -> dict:
        """Close the root span; return the call's span rows and counters."""
        root = self.stack.pop()
        root.end = time.perf_counter_ns()
        root.total = root.end - root.start
        root.calls = 1
        assert not self.stack, "unbalanced spans"
        return {
            "spans": [s.to_row(root.start) for s in self.spans],
            "counters": dict(self.counters),
        }


def _wrap(tracer: Tracer, fn, layer: str, name: str):
    stack = tracer.stack
    clock = time.perf_counter_ns
    tracked = name in TRACKED
    before, after = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        parent = stack[-1]
        if not tracked and parent.layer == layer:
            return fn(*args, **kwargs)
        span = parent.children.get(name)
        if span is None:
            span = tracer.span(name, layer, parent)
        state = before(args, kwargs) if before is not None else None
        stack.append(span)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            if not span.calls:
                span.start = start
            span.end = end
            span.calls += 1
            span.total += end - start
        if after is not None:
            tracer.counters.update(after(state, args, kwargs, result))
        return result

    return wrapper


def _wrap_class(tracer: Tracer, cls: type, layer: str, filename: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        # skips properties, data, and methods generated by dataclasses
        if not isinstance(fn, types.FunctionType) or fn.__code__.co_filename != filename:
            continue
        wrapped = _wrap(tracer, fn, layer, f"{layer}.{cls.__name__}.{attr}")
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(wrapped)
        setattr(cls, attr, wrapped)


def install(tracer: Tracer, package: str = "treesubst") -> None:
    """Wrap every public function and method of the layer modules.

    Module-level functions are replaced in every layer module that refers
    to them, so `from .x import f` call sites are traced too.
    """
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, obj, layer, mod.__file__)
            elif callable(obj):
                wrappers[id(obj)] = (obj, _wrap(tracer, obj, layer, f"{layer}.{attr}"))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Per span row: its summed duration minus that of its child rows (ns)."""
    own = [row[6] for row in spans]
    for row in spans:
        parent = row[2]
        if parent is not None:
            own[parent] -= row[6]
    return own


def layer_metrics(calls: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced calls of one pass."""
    busy: Counter = Counter()
    counters: Counter = Counter()
    totals: Counter = Counter()
    ncalls: Counter = Counter()
    for call in calls:
        spans = call["spans"]
        counters.update(call["counters"])
        for row, own in zip(spans, self_times(spans)):
            name, layer, parent, _, _, n, total = row
            busy[layer] += own
            ncalls[name] += n
            if layer == "prefix_suffix":
                ncalls["prefix_suffix.calls"] += n
            if name in ALGNUM_OPS:
                ncalls["algnum.ops"] += n
            for metric, names in TIME_GROUPS.items():
                if name in names and not _has_ancestor_in(spans, parent, names):
                    totals[metric] += total

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy[layer] / 1e9
    for metric in TIME_GROUPS:
        out[metric] = totals[metric] / 1e9
    for metric, name in CALL_COUNTS.items():
        out[metric] = ncalls[name]
    out["prefix_suffix.calls"] = ncalls["prefix_suffix.calls"]
    out["algnum.ops"] = ncalls["algnum.ops"]
    for key in ("words.fixed_point_letters", "freegroup.p_star_letters", "trees.edges_built",
                "realization.vertices_placed", "core.labels_registered", "core.label_letters",
                "core.path_pairs", "rauzy.orbit_points", "rauzy.bytes_written",
                "verify.checks", "cli.bytes_out"):
        out[key] = counters[key]
    out["algnum.ops_per_s"] = _rate(out["algnum.ops"], out["algnum.busy_s"])
    out["trees.edges_per_s"] = _rate(out["trees.edges_built"], out["trees.apply_s"])
    out["core.pairs_per_s"] = _rate(out["core.path_pairs"], out["core.path_audit_s"])
    return out


def _has_ancestor_in(spans: list[list], parent: int | None, names) -> bool:
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][2]
    return False


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
