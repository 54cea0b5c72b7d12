"""Span and counter recorders wrapped around the public entry points of each
sparsity_forge module, for the traced benchmark run.

Wrapping happens from outside the package: every loaded ``sparsity_forge``
module whose attribute *is* a target function is patched, so names that
modules re-bind with ``from .x import y`` are traced as well.  A layer with a
target that cannot be found is left unwrapped and reported absent, never as
zero.

Spans are aggregated as they close.  A span whose self time is reported keeps
the intervals of its direct children, and its self time is its duration minus
the union of those intervals.  A span opened on a thread with no open span of its own
(the CLI's worker pool) counts as a child of the innermost open span of the
thread that installed the tracer.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

# layer -> [(target, kind)].  A target is "module.function" or
# "module.Class.method" inside sparsity_forge and doubles as the metric name.
#   "span"   calls and inclusive seconds   -> <target>.calls, <target>.s
#   "self"   self seconds                  -> <target>.self_s
#   "time"   inclusive seconds             -> <target>.s
#   "count"  no span; feeds a layer counter only
TARGETS = {
    "instances": [("instances.random_sparse_graph", "span")],
    "graphs": [("graphs.parse_graph6", "span")],
    "cli": [("cli.main", "self"), ("cli.main", "time")],
    "sparsity": [("sparsity.is_sparse", "span")],
    "mincut": [("mincut.selection_max", "span")],
    "pebble": [("pebble.PebbleGame.insert", "span"), ("pebble.PebbleGame.gather_max", "span")],
    "matroid": [
        ("matroid.ForestEngine.insert", "span"),
        ("matroid.ForestEngine.circuit", "span"),
        ("matroid.PebbleCountEngine.insert", "span"),
        ("matroid.PebbleCountEngine.circuit", "span"),
        ("matroid.MincutCountEngine.insertable", "span"),
        ("matroid.MincutCountEngine.circuit", "span"),
        ("matroid.MincutCountEngine.insert", "count"),
        ("matroid.CountMatroidOracle.is_independent", "span"),
        ("matroid.CountMatroidOracle.rank", "span"),
    ],
    "partition": [
        ("partition.matroid_union_partition", "span"),
        ("partition.partition_sparse", "span"),
        ("matroid.ForestEngine.delete", "count"),
        ("matroid.PebbleCountEngine.delete", "count"),
        ("matroid.MincutCountEngine.delete", "count"),
    ],
    "refine": [("refine.eliminate_triangles", "span"), ("refine.brooks_refine", "span")],
    "decompose": [("decompose.decompose_ksw", "self"), ("decompose.verify_decomposition", "time")],
}

CASE_LABELS = (
    "small_m_two_forests",
    "small_m_triangle_free",
    "large_m_case_A",
    "large_m_case_B",
    "large_m_case_C",
    "large_m_case_D1",
    "large_m_case_D2",
    "large_m_case_D3",
)

_LAYER_COUNTERS = {
    "sparsity": ("sparsity.is_sparse.refusals",),
    "mincut": ("mincut.selection_max.arcs",),
    "matroid": ("matroid.engine_rejects",),
    "partition": ("partition.chain_moves",),
    "decompose": tuple(f"decompose.case.{label}" for label in CASE_LABELS),
}


def layer_metrics(layer: str) -> list[tuple[str, str]]:
    """(metric, unit) pairs one layer reports."""
    out = []
    for target, kind in TARGETS[layer]:
        if kind == "span":
            out += [(f"{target}.calls", "count"), (f"{target}.s", "s")]
        elif kind == "self":
            out.append((f"{target}.self_s", "s"))
        elif kind == "time":
            out.append((f"{target}.s", "s"))
    return out + [(c, "count") for c in _LAYER_COUNTERS.get(layer, ())]


def _count_refusal(args, result, counts):
    if not result.sparse:
        counts["sparsity.is_sparse.refusals"] += 1


def _count_arcs(args, result, counts):
    # selection network: e source arcs, 2e endpoint arcs, n sink arcs
    counts["mincut.selection_max.arcs"] += 3 * len(args[1]) + args[0]


def _count_reject(args, result, counts):
    if not result:
        counts["matroid.engine_rejects"] += 1


def _count_move(args, result, counts):
    counts["partition.chain_moves"] += 1


def _count_case(args, result, counts):
    counts[f"decompose.case.{result.trace}"] += 1


# target -> counter update run after each call, at the same boundary as its span
_AFTER_CALL = {
    "sparsity.is_sparse": _count_refusal,
    "mincut.selection_max": _count_arcs,
    "matroid.ForestEngine.insert": _count_reject,
    "matroid.PebbleCountEngine.insert": _count_reject,
    "matroid.MincutCountEngine.insert": _count_reject,
    "matroid.ForestEngine.delete": _count_move,
    "matroid.PebbleCountEngine.delete": _count_move,
    "matroid.MincutCountEngine.delete": _count_move,
    "decompose.decompose_ksw": _count_case,
}


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Wraps the targets on ``install``; ``uninstall`` restores the originals.

    Wrappers record only while ``active`` is set, so the benchmark's own
    checks, which call the library too, stay out of the counts.
    """

    def __init__(self):
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.namespaces: dict[str, int] = {}  # target -> places patched
        self._undo: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: list = []
        self.active = False

    def metric_names(self) -> list[tuple[str, str]]:
        """(metric, unit) for every metric of every present layer."""
        return [mu for layer in TARGETS if layer not in self.absent for mu in layer_metrics(layer)]

    def install(self) -> "Tracer":
        resolved = {}
        for layer, targets in TARGETS.items():
            found = [self._resolve(target) for target, _ in targets]
            if any(f is None for f in found):
                self.absent.append(layer)
                print(f"perfbench: layer {layer!r} is absent: a wrapped name is missing",
                      file=sys.stderr)
            else:
                resolved[layer] = found
        for metric, _ in self.metric_names():
            self.counts[metric] = 0
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "sparsity_forge" or key.startswith("sparsity_forge."))
        ]
        self._home = self._stack()
        # a target listed twice (cli.main) gets one wrapper with both kinds
        kinds: dict[str, list[str]] = {}
        owners = {}
        for layer, found in resolved.items():
            for (target, kind), (owner, attr, original) in zip(TARGETS[layer], found):
                kinds.setdefault(target, []).append(kind)
                owners[target] = (owner, attr, original)
        for target, (owner, attr, original) in owners.items():
            wrapper = self._wrap(original, target, kinds[target])
            if isinstance(owner, type):
                places = [(owner, attr)]
            else:
                places = [(mod, name) for mod in modules
                          for name, value in list(vars(mod).items()) if value is original]
            for place, name in places:
                self._undo.append((place, name, original))
                setattr(place, name, wrapper)
            self.namespaces[target] = len(places)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @staticmethod
    def _resolve(target: str):
        """(owner, attribute, original callable) or None when missing."""
        module_name, *rest = target.split(".")
        try:
            owner = importlib.import_module(f"sparsity_forge.{module_name}")
        except ImportError:
            return None
        for part in rest[:-1]:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(rest[-1])
        if not callable(original):
            return None
        return owner, rest[-1], original

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, target: str, kinds: list[str]):
        counts = self.counts
        lock = self._lock
        clock = time.perf_counter
        after = _AFTER_CALL.get(target)

        if kinds == ["count"]:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not self.active:
                    return result
                with lock:
                    after(args, result, counts)
                return result

            return counted

        calls_key, s_key, self_key = f"{target}.calls", f"{target}.s", f"{target}.self_s"
        count_calls = "span" in kinds
        add_time = "span" in kinds or "time" in kinds
        self_time = "self" in kinds
        local = self._local
        home = self._home

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            # a frame is the list of its direct children's intervals, kept only
            # where self time needs it; None elsewhere
            parent = stack[-1] if stack else (home[-1] if home and home is not stack else None)
            frame = [] if self_time else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                with lock:
                    if parent is not None:
                        parent.append((start, end))
                    if count_calls:
                        counts[calls_key] += 1
                    if add_time:
                        counts[s_key] += end - start
                    if self_time:
                        counts[self_key] += end - start - union_length(frame, start, end)
            if after is not None:
                with lock:
                    after(args, result, counts)
            return result

        return spanned
