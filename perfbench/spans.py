"""Outside-in tracing of the rubbertaut layers for the traced benchmark run.

A layer is one module of the package.  ``Tracer.install`` replaces each
listed function or method with a wrapper, at every place the package binds
it: the defining module, every module that took it with ``from ... import``,
and the package namespace.  A ``RingOps`` table (``SYM_OPS``) is frozen, so
its listed operations are wrapped in a copy that replaces the table at every
place it is bound; the graph layer's coefficient arithmetic, which
``LaurentPoly`` reaches through that table, thus counts toward ``locgraphs``
and not ``series``.  A wrapper records a span only when the call
crosses into its layer from outside (the innermost open span belongs to
another layer, or none is open); calls inside a layer only update counts.
Spans and counts are recorded only while ``active`` is set, which the pass
runner sets around each timed operation.

Each span is ``[op, layer, name, start, end, parent, raised]`` with ``parent``
the index of the enclosing span (``-1`` at the top).  A layer's self time is
the sum over its spans of the span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter
from typing import Any, Callable

#: Wrapped entry points per layer: module, then module-level functions,
#: ``Class.method`` names and ``TABLE.operation`` names of ``RingOps`` tables.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "hodge": (
        "rubbertaut.hodge",
        ("solve_hodge", "hodge_linear_form", "n_target", "verify_scaling"),
    ),
    "partitions": (
        "rubbertaut.partitions",
        (
            "enumerate_partitions",
            "aut",
            "decorated_aut",
            "enumerate_marked",
            "tau_power_coefficient",
        ),
    ),
    "series": (
        "rubbertaut.series",
        (
            "series_log_sine",
            "series_tau",
            "series_mul",
            "series_exp",
            "series_log",
            "LaurentPoly.mul",
            "LaurentPoly.add",
            "LaurentPoly.sub",
            "LaurentPoly.scale",
            "LaurentPoly.coefficient",
        ),
    ),
    "linalg": ("rubbertaut.linalg", ("solve_linear_system", "rref")),
    "hurwitz": (
        "rubbertaut.hurwitz",
        ("hurwitz_oracle", "hurwitz_one_part", "rubber_psi_integral"),
    ),
    "locgraphs": (
        "rubbertaut.locgraphs",
        (
            "enumerate_graphs",
            "enumerate_rows",
            "assemble_contribution",
            "relation_extract",
            "relation_by_row",
            "hodge_form_from_graphs",
            "evaluate_relation",
            "evaluate_and_solve",
            "build_factor",
            "SYM_OPS.add",
            "SYM_OPS.neg",
            "SYM_OPS.mul",
            "SYM_OPS.scale",
        ),
    ),
    "tautring": (
        "rubbertaut.tautring",
        (
            "psi1",
            "boundary",
            "zero_class",
            "pullback_forget",
            "pushforward_forget",
            "section_pushforward",
            "relabel",
            "TautClass.__init__",
            "TautClass.__add__",
            "TautClass.__sub__",
            "TautClass.__neg__",
            "TautClass.__rmul__",
            "TautClass.__mul__",
            "TautClass.__eq__",
            "TautClass.reduce",
        ),
    ),
    "polyclasses": (
        "rubbertaut.polyclasses",
        ("genus1_polynomial", "hain_expand", "interpolate", "MultiPoly.evaluate"),
    ),
}

#: Layer-specific counts, in the order they are reported.
EXTRA_COUNTS: dict[str, tuple[str, ...]] = {
    "hodge": ("forms",),
    "partitions": ("items",),
    "series": ("laurent_muls",),
    "linalg": ("rows", "cols", "nullity"),
    "hurwitz": ("distinct", "repeat_ratio"),
    "locgraphs": ("graphs", "monomials_kept"),
    "tautring": ("classes_built", "reduce_terms"),
    "polyclasses": ("coefficients", "hain_monomials"),
}


def _count_forms(counts: Counter, args: tuple, result: Any) -> None:
    counts["hodge.forms"] += 1


def _count_partitions(counts: Counter, args: tuple, result: Any) -> None:
    counts["partitions.items"] += len(result)


def _count_laurent(counts: Counter, args: tuple, result: Any) -> None:
    counts["series.laurent_muls"] += 1


def _count_solve(counts: Counter, args: tuple, result: Any) -> None:
    matrix = args[0]
    counts["linalg.rows"] += len(matrix)
    counts["linalg.cols"] += len(matrix[0]) if len(matrix) else 0
    counts["linalg.nullity"] += len(result.nullspace)


def _count_graphs(counts: Counter, args: tuple, result: Any) -> None:
    counts["locgraphs.graphs"] += len(result)


def _count_relation(counts: Counter, args: tuple, result: Any) -> None:
    counts["locgraphs.monomials_kept"] += sum(len(monos) for monos in result.terms.values())


def _count_class(counts: Counter, args: tuple, result: Any) -> None:
    counts["tautring.classes_built"] += 1


def _count_reduce(counts: Counter, args: tuple, result: Any) -> None:
    terms = len(result.boundary_terms()) + (1 if result.coefficient_psi1() else 0)
    counts["tautring.reduce_terms"] += terms


def _count_poly(counts: Counter, args: tuple, result: Any) -> None:
    counts["polyclasses.coefficients"] += len(result.coeffs)


def _count_hain(counts: Counter, args: tuple, result: Any) -> None:
    counts["polyclasses.hain_monomials"] += len(result)


COUNTERS: dict[tuple[str, str], Callable[[Counter, tuple, Any], None]] = {
    ("hodge", "hodge_linear_form"): _count_forms,
    ("partitions", "enumerate_partitions"): _count_partitions,
    ("series", "LaurentPoly.mul"): _count_laurent,
    ("linalg", "solve_linear_system"): _count_solve,
    ("locgraphs", "enumerate_graphs"): _count_graphs,
    ("locgraphs", "relation_extract"): _count_relation,
    ("tautring", "TautClass.__init__"): _count_class,
    ("tautring", "TautClass.reduce"): _count_reduce,
    ("polyclasses", "genus1_polynomial"): _count_poly,
    ("polyclasses", "hain_expand"): _count_hain,
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names: list[tuple[str, str]] = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.raised", "count")]
        for extra in EXTRA_COUNTS[layer]:
            names.append((f"{layer}.{extra}", "ratio" if extra.endswith("ratio") else "count"))
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def _rebind(modules: list, original: Any, replacement: Any) -> None:
    """Bind ``replacement`` wherever a module binds ``original``."""
    for site in modules:
        for attr, value in list(vars(site).items()):
            if value is original:
                setattr(site, attr, replacement)


class Tracer:
    """In-memory spans and counts for one pass."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.stack: list[tuple[str, int]] = []
        self.counts: Counter = Counter()
        self.hurwitz_calls = 0
        self.hurwitz_keys: set[tuple] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed entry point at every binding site in the package."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rubbertaut"]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                if "." not in name:
                    original = getattr(module, name)
                    _rebind(modules, original, self._wrap(layer, name, original))
                    continue
                owner_name, attr = name.split(".")
                owner = getattr(module, owner_name)
                if isinstance(owner, type):
                    setattr(owner, attr, self._wrap(layer, name, owner.__dict__[attr]))
                else:
                    wrapper = self._wrap(layer, name, getattr(owner, attr))
                    _rebind(modules, owner, dataclasses.replace(owner, **{attr: wrapper}))

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get((layer, name))
        hurwitz_key = layer == "hurwitz" and name == "hurwitz_oracle"
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hurwitz_key:
                tracer._note_hurwitz(args, kwargs)
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                span = [tracer.op, layer, name, 0.0, 0.0, stack[-1][1] if stack else -1, False]
                tracer.spans.append(span)
                stack.append((layer, index))
                span[3] = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span[4] = clock()
                    span[6] = True
                    stack.pop()
                    raise
                span[4] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return wrapper

    def _note_hurwitz(self, args: tuple, kwargs: dict) -> None:
        alpha, beta = args[0], args[1]
        convention = args[2] if len(args) > 2 else kwargs.get("convention", "multiply")
        key = (
            tuple(sorted(alpha, reverse=True)),
            tuple(sorted(beta, reverse=True)),
            convention,
        )
        self.hurwitz_calls += 1
        self.hurwitz_keys.add(key)

    # -- aggregation ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self seconds, raised spans and the extra counts."""
        calls: Counter = Counter()
        raised: Counter = Counter()
        self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span[5]
            if parent >= 0:
                child_time[parent] += span[4] - span[3]
        for index, span in enumerate(self.spans):
            layer = span[1]
            calls[layer] += 1
            raised[layer] += span[6]
            self_s[layer] += (span[4] - span[3]) - child_time[index]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.raised"] = raised[layer]
            for extra in EXTRA_COUNTS[layer]:
                out[f"{layer}.{extra}"] = self.counts[f"{layer}.{extra}"]
        distinct = len(self.hurwitz_keys)
        out["hurwitz.distinct"] = distinct
        out["hurwitz.repeat_ratio"] = (
            (self.hurwitz_calls - distinct) / self.hurwitz_calls if self.hurwitz_calls else 0.0
        )
        return out
