"""Outside-in tracer: wraps tamerep's public functions from the benchmark.

Each target is replaced at every tamerep module that holds it, so call
sites that imported it by name (`tamerep.certs.normal_subgroups`,
`tamerep.sweep.build_residual_rep`, ...) are traced as well as the defining
module.  Methods are replaced on their class, aliases included
(`FieldElement.__rmul__` is `__mul__`).

Three modes keep the cost where it is affordable:

- "span": one span per call, kept in memory with name, start, end, parent
  span and item, and written to the span file at exit;
- "timed": self time and calls only, for functions called hundreds of
  thousands of times (factorize inside the pair search);
- "count": calls only, for the hot methods (field and matrix products).

Self time is a call's duration minus the time of the traced calls inside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # tamerep submodule that defines the function or class
    attr: str  # "func" or "Class.method"
    mode: str  # "span", "timed" or "count"
    name: str = ""  # metric prefix; defaults to "<module>.<attr>"
    watch: str = ""  # a counted target whose calls inside this one are summed
    size: Callable | None = None  # result -> number summed per call

    @property
    def key(self) -> str:
        return self.name or f"{self.module}.{self.attr}"


TARGETS = (
    Target("ff", "FieldElement.__mul__", "count", name="ff.mul"),
    Target("ff", "make_field", "span", watch="ff.is_irreducible"),
    Target("ff", "is_irreducible", "count"),
    Target("ff", "find_generator", "span"),
    Target("linalg", "Matrix.__mul__", "count", name="linalg.matmul"),
    Target("linalg", "Matrix.det", "count", name="linalg.det"),
    Target("linalg", "Matrix.inverse", "count", name="linalg.inverse"),
    Target("linalg", "nullspace", "span"),
    Target("induce", "build_residual_rep", "span"),
    Target("induce", "invariant_forms", "span"),
    Target("induce", "commutant_dim", "span"),
    Target("induce", "image_group", "span"),
    Target("groups", "closure", "span", watch="linalg.matmul", size=lambda g: g.order),
    Target("groups", "normal_subgroups", "span", size=len),
    Target("groups", "gamma_d", "span"),
    Target("groups", "is_metacyclic_tn", "span"),
    Target("ortho", "spinor_norm", "span"),
    Target("ortho", "reflection_decomposition", "count", size=len),
    Target("ortho", "orthogonal_group", "span"),
    Target("ortho", "classify_subgroup", "span"),
    Target("ortho", "witt_decompose", "span"),
    Target("arith", "search_pairs", "span", watch="arith.mult_order_mod", size=len),
    Target("arith", "mult_order_mod", "count"),
    Target("arith", "factorize", "timed"),
    Target("arith", "is_prime", "count"),
    Target("certs", "build_certificate", "span"),
    Target("certs", "verify_certificate", "span"),
    Target("certs", "canonical_dump", "span", size=lambda s: len(s.encode())),
    Target("certs", "json_to_matrix", "span"),
    Target("sweep", "form_phase", "span"),
    Target("sweep", "commutant_phase", "span"),
    Target("sweep", "group_phase", "span"),
)


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []  # (id, name, start, end, parent, item)
        self.calls: dict[str, list[int]] = {t.key: [0] for t in TARGETS}
        self.self_s: dict[str, float] = defaultdict(float)
        self.stats: dict[str, float] = defaultdict(float)
        self.item: str | None = None
        self.item_s = 0.0
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [start, child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- items ---------------------------------------------------------------

    def begin_item(self, label: str) -> None:
        self.item = label

    def end_item(self, seconds: float) -> None:
        self.item = None
        self.item_s += seconds

    @property
    def coverage(self) -> float:
        """Share of item wall time spent inside top-level traced calls."""
        return self.top_level_s / self.item_s if self.item_s else 0.0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, target: Target, fn):
        cell = self.calls[target.key]
        if target.mode == "count" and target.size is None:
            # the hot methods: a field or matrix product costs microseconds

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted
        if target.mode == "count":
            stats, size_key = self.stats, f"{target.key}.size"

            def counted_sized(*args, **kwargs):
                cell[0] += 1
                result = fn(*args, **kwargs)
                stats[size_key] += target.size(result)
                return result

            return counted_sized

        keep = target.mode == "span"
        watch = self.calls[target.watch] if target.watch else None
        stack, spans, self_s, stats = self._stack, self.spans, self.self_s, self.stats
        clock, key = time.perf_counter, target.key

        def timed(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1][2] if stack else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            before = watch[0] if watch else 0
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                elif self.item is not None:
                    self.top_level_s += duration
                if keep:
                    spans.append(
                        (span_id, key, frame[0] - self.origin, end - self.origin, parent, self.item)
                    )
            if watch:
                delta = watch[0] - before
                stats[f"{key}.{target.watch}"] += delta
                stats[f"{key}.{target.watch}.nonzero"] += delta > 0
            if target.size is not None:
                stats[f"{key}.size"] += target.size(result)
            return result

        return timed

    def install(self) -> None:
        owners = {t.module: importlib.import_module(f"tamerep.{t.module}") for t in TARGETS}
        modules = [m for name, m in sys.modules.items() if name == "tamerep" or name.startswith("tamerep.")]
        for target in TARGETS:
            owner = owners[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                holders = [getattr(owner, cls_name)]
                original = vars(holders[0])[meth]
            else:
                holders = modules
                original = getattr(owner, target.attr)
            wrapper = self._wrap(target, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def count(self, key: str) -> int:
        return self.calls[key][0]

    def span_records(self) -> list[dict]:
        fields = ("id", "name", "start", "end", "parent", "item")
        return [dict(zip(fields, s)) for s in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    s, c, st = tr.self_s, tr.count, tr.stats
    fields_built = st["ff.make_field.ff.is_irreducible.nonzero"]
    closure_elements = st["groups.closure.size"]
    return {
        "ff.mul.count": (c("ff.mul"), "count"),
        "ff.make_field.s": (s["ff.make_field"], "s"),
        "ff.make_field.calls": (c("ff.make_field"), "count"),
        "ff.is_irreducible.per_field": (_ratio(c("ff.is_irreducible"), fields_built), "count"),
        "ff.find_generator.s": (s["ff.find_generator"], "s"),
        "linalg.nullspace.s": (s["linalg.nullspace"], "s"),
        "linalg.nullspace.calls": (c("linalg.nullspace"), "count"),
        "linalg.matmul.count": (c("linalg.matmul"), "count"),
        "linalg.inverse.calls": (c("linalg.inverse"), "count"),
        "linalg.det.calls": (c("linalg.det"), "count"),
        "induce.build_residual_rep.s": (s["induce.build_residual_rep"], "s"),
        "induce.invariant_forms.s": (s["induce.invariant_forms"], "s"),
        "induce.commutant_dim.s": (s["induce.commutant_dim"], "s"),
        "induce.image_group.s": (s["induce.image_group"], "s"),
        "groups.closure.s": (s["groups.closure"], "s"),
        "groups.closure.calls": (c("groups.closure"), "count"),
        "groups.closure.elements": (closure_elements, "count"),
        # every closure starts from the identity, which it does not form
        "groups.closure.yield": (
            _ratio(closure_elements - c("groups.closure"), st["groups.closure.linalg.matmul"]),
            "ratio",
        ),
        "groups.normal_subgroups.s": (s["groups.normal_subgroups"], "s"),
        "groups.normal_subgroups.found": (st["groups.normal_subgroups.size"], "count"),
        "groups.gamma_d.s": (s["groups.gamma_d"], "s"),
        "groups.is_metacyclic_tn.s": (s["groups.is_metacyclic_tn"], "s"),
        "ortho.spinor_norm.s": (s["ortho.spinor_norm"], "s"),
        "ortho.spinor_norm.calls": (c("ortho.spinor_norm"), "count"),
        "ortho.reflection_decomposition.len": (
            _ratio(st["ortho.reflection_decomposition.size"], c("ortho.reflection_decomposition")),
            "count",
        ),
        "ortho.orthogonal_group.s": (s["ortho.orthogonal_group"], "s"),
        "ortho.classify_subgroup.s": (s["ortho.classify_subgroup"], "s"),
        "ortho.witt_decompose.s": (s["ortho.witt_decompose"], "s"),
        "arith.search_pairs.s": (s["arith.search_pairs"], "s"),
        "arith.mult_order_mod.calls": (c("arith.mult_order_mod"), "count"),
        "arith.pairs.yield": (
            _ratio(st["arith.search_pairs.size"], st["arith.search_pairs.arith.mult_order_mod"]),
            "ratio",
        ),
        "arith.factorize.s": (s["arith.factorize"], "s"),
        "arith.is_prime.calls": (c("arith.is_prime"), "count"),
        "certs.build_certificate.s": (s["certs.build_certificate"], "s"),
        "certs.verify_certificate.s": (s["certs.verify_certificate"], "s"),
        "certs.canonical_dump.bytes": (st["certs.canonical_dump.size"], "B"),
        "sweep.form_phase.s": (s["sweep.form_phase"], "s"),
        "sweep.commutant_phase.s": (s["sweep.commutant_phase"], "s"),
        "sweep.group_phase.s": (s["sweep.group_phase"], "s"),
        "trace.coverage": (tr.coverage, "ratio"),
    }
