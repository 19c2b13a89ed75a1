"""Span tracing of ktri's public functions for one traced pass of a workload.

:class:`Tracer` replaces each traced function under every name a ktri module
holds it by (``from .polygon import is_k_triangulation`` makes a second name),
records one span per call and restores every name when the pass ends.  Spans
live in flat arrays until the benchmark writes them out; the per-layer
metrics are computed from them afterwards, so the traced code pays only for
the recording itself.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# (module, attribute, what a call's result counts, or None).  Span names drop
# the "ktri." prefix: "polygon.is_k_triangulation".
TARGETS: tuple[tuple[str, str, str | None], ...] = (
    ("ktri.polygon", "is_k_triangulation", None),
    ("ktri.polygon", "enumerate_brute", "objects"),
    ("ktri.polygon", "KTriangulation.certified", None),
    ("ktri.paths", "catalan_determinant", None),
    ("ktri.gentree2", "children2", "children"),
    ("ktri.gentree2", "parent2", None),
    ("ktri.gentree2", "label2", None),
    ("ktri.gentree2", "pair_children", None),
    ("ktri.gentree2", "pair_parent", None),
    ("ktri.gentree_k", "children_k", "children"),
    ("ktri.gentree_k", "parent_k", None),
    ("ktri.gentree_k", "enumerate_tree", None),
    ("ktri.bijection", "color_diagram", None),
    ("ktri.bijection", "to_paths", None),
    ("ktri.bijection", "from_paths", None),
    ("ktri.bijection", "to_paths_via_tree", None),
    ("ktri.formats", "parse_triangulation", None),
    ("ktri.formats", "parse_pair", None),
    ("ktri.formats", "diagonal_line", None),
    ("ktri.cli", "main", None),
)

# run_verify calls one private function per check; each is traced under the
# name of the check it returns, "verify.check.<name>".
VERIFY_MODULE = "ktri.verify"
VERIFY_CHECKS = (
    "counting",
    "tuples_vs_det",
    "crossing_criterion",
    "round_trips",
    "structure_lemmas",
    "pair_round_trips",
    "label_coherence",
    "bijection",
    "tie_breaks",
    "column_identity",
    "k2_specialization",
)

CHILD_MAKERS = ("gentree2.children2", "gentree_k.children_k")
VALIDATOR = "polygon.is_k_triangulation"
INVERSE_MAP = "bijection.from_paths"
OVERHEAD = "trace.overhead_s"

MARK = "__perfbench_original__"


def span_name(module: str, attribute: str) -> str:
    return f"{module.removeprefix('ktri.')}.{attribute}"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units: dict[str, str] = {}
    for module, attribute, counted in TARGETS:
        name = span_name(module, attribute)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if counted:
            units[f"{name}.{counted}"] = "count"
    units["gentree.validate_share"] = "ratio"
    units[f"{INVERSE_MAP}.kept_ratio"] = "ratio"
    for check in VERIFY_CHECKS:
        units[f"verify.check.{check}_s"] = "s"
    units[OVERHEAD] = "s"
    return units


def is_ktri(module_name: str) -> bool:
    return module_name == "ktri" or module_name.startswith("ktri.")


def _ktri_modules() -> list:
    loaded = sorted(sys.modules.items())
    return [module for name, module in loaded if module is not None and is_ktri(name)]


def find_wrapped() -> list[str]:
    """Names in loaded ktri modules (and their classes) still bound to a tracing wrapper."""
    found = []
    for module in _ktri_modules():
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i in range(len(starts)):
        covered = 0.0
        reach = starts[i]
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            lo, hi = max(starts[c], reach), min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


class Tracer:
    """Records a span (name, start, end, parent, request, count) per traced call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.counts = array("q")
        self.request = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
        rename: Callable | None = None,
    ) -> Callable:
        nid = self._intern(name)
        stack, name_id, starts, ends = self._stack, self.name_id, self.starts, self.ends
        parents, requests, counts = self.parents, self.requests, self.counts

        def traced(*args, **kwargs):
            i = len(starts)
            name_id.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            counts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                counts[i] = count(out)
            if rename is not None:
                name_id[i] = self._intern(rename(out))
            return out

        setattr(traced, MARK, fn)
        return traced

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every target under every name a loaded ktri module binds it to.

        A target that no longer exists is skipped; its metrics then read 0.
        """
        modules = _ktri_modules()
        for module_name, attribute, counted in TARGETS:
            module = sys.modules.get(module_name)
            name = span_name(module_name, attribute)
            count = len if counted else None
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(module, class_name, None)
                raw = vars(cls).get(method) if cls is not None else None
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self._wrap(name, raw.__func__, count)))
                continue
            fn = getattr(module, attribute, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, count)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patch(holder, key, wrapper)
        verify = sys.modules.get(VERIFY_MODULE)
        if verify is not None:
            for key, value in list(vars(verify).items()):
                if (
                    key.startswith("_")
                    and callable(value)
                    and getattr(value, "__module__", None) == VERIFY_MODULE
                ):
                    wrapper = self._wrap("verify.check", value, rename=_check_span_name)
                    self._patch(verify, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; trace.overhead_s is left to the caller."""
        names = [self.names[i] for i in self.name_id]
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = self_times(self.starts, self.ends, self.parents)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        counted: dict[str, int] = defaultdict(int)
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += own[i]
            total_s[name] += durations[i]
            counted[name] += self.counts[i]

        children_s = sum(total_s[b] for b in CHILD_MAKERS)
        validate_s = sum(
            durations[i]
            for i, name in enumerate(names)
            if name == VALIDATOR and self.parents[i] >= 0 and names[self.parents[i]] in CHILD_MAKERS
        )
        # A children2 call under from_paths is one level of the descent.
        inside = [False] * len(names)
        levels = built = 0
        for i, name in enumerate(names):
            parent = self.parents[i]
            above = parent >= 0 and inside[parent]
            inside[i] = above or name == INVERSE_MAP
            if above and name == CHILD_MAKERS[0]:
                levels += 1
                built += self.counts[i]

        metrics: dict[str, float] = {}
        for module, attribute, what in TARGETS:
            name = span_name(module, attribute)
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
            if what:
                metrics[f"{name}.{what}"] = counted.get(name, 0)
        metrics["gentree.validate_share"] = validate_s / children_s if children_s else 0.0
        metrics[f"{INVERSE_MAP}.kept_ratio"] = levels / built if built else 0.0
        for check in VERIFY_CHECKS:
            metrics[f"verify.check.{check}_s"] = total_s.get(f"verify.check.{check}", 0.0)
        return metrics

    def write_spans(self, path: Path) -> None:
        """One CSV line per span; times in seconds from the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,request,count\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"{self.names[self.name_id[i]]},{self.starts[i] - origin:.9f},"
                    f"{self.ends[i] - origin:.9f},{self.parents[i]},"
                    f"{self.requests[i]},{self.counts[i]}\n"
                )


def _check_span_name(result) -> str:
    if isinstance(result, tuple) and result and isinstance(result[0], str):
        return f"verify.check.{result[0]}"
    return "verify.check"
