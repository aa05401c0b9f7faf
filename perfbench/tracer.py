"""Spans and counts around mgbar's layer entry points.

The wrappers are installed from outside the package: public functions
are replaced on their modules (and ``SparseMatrix.compose`` on its
class), so every call that goes through the module attribute -- from the
CLI, from another layer, or from a recursion inside the layer -- opens a
span.  A span is ``[name, start, end, parent]``; its self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import time
import weakref
from collections import Counter

# Span names whose self times make up each time metric.
_TIME_METRICS = {
    "psi.pand_s": ("psi.pand",),
    "psi.correlator_s": ("psi.correlator",),
    "koszul.module_s": ("koszul.module",),
    "koszul.matrix_s": ("koszul.matrix",),
    "koszul.rank_s": ("koszul.rank",),
    "koszul.compose_s": ("koszul.compose",),
    "tautring.parse_s": ("tautring.parse",),
    "tautring.integrate_s": ("tautring.integrate",),
    "tautring.pipeline_s": ("tautring.pipeline",),
    "tautring.table_s": ("tautring.table",),
    "divclass.call_s": ("divclass.call",),
    "bn.call_s": ("bn.call",),
}


class Tracer:
    """Records spans and counters of one run, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._serials: dict[int, tuple[weakref.ref, int]] = {}
        self._next_serial = itertools.count()
        self._matrix_keys: dict[int, tuple[weakref.ref, tuple]] = {}
        self._ranked: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span called ``name``; ``after(args, result)``
        runs outside the span, so counting costs no layer time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _serial(self, obj) -> int:
        """A number that names ``obj`` for as long as it lives."""
        entry = self._serials.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), next(self._next_serial))
            self._serials[id(obj)] = entry
        return entry[1]

    def _on_matrix(self, args, matrix) -> None:
        module, i, j = args[:3]
        self.counts["koszul.matrix_nnz"] += len(matrix.entries)
        self.counts["koszul.matrix_cells"] += matrix.nrows * matrix.ncols
        self._matrix_keys[id(matrix)] = (
            weakref.ref(matrix), (self._serial(module), i, j)
        )

    def _on_rank(self, args, _rank) -> None:
        matrix = args[0]
        modulus = args[1] if len(args) > 1 else None
        entry = self._matrix_keys.get(id(matrix))
        key = entry[1] if entry and entry[0]() is matrix else ("?", self._serial(matrix))
        self._ranked.append((key, modulus))

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        by_name: Counter = Counter()
        calls: Counter = Counter()
        cli_self = []
        for span, t in zip(self.spans, own):
            by_name[span[0]] += t
            calls[span[0]] += 1
            if span[0] == "cli.run":
                cli_self.append(t)
        out = {
            metric: float(sum(by_name[n] for n in names))
            for metric, names in _TIME_METRICS.items()
        }
        ranks = len(self._ranked)
        out.update({
            "psi.calls": calls["psi.pand"] + calls["psi.correlator"],
            "koszul.matrix_calls": calls["koszul.matrix"],
            "koszul.matrix_nnz": self.counts["koszul.matrix_nnz"],
            "koszul.matrix_cells": self.counts["koszul.matrix_cells"],
            "koszul.rank_calls": ranks,
            "koszul.compose_calls": calls["koszul.compose"],
            "koszul.rank_reuse": len(set(self._ranked)) / ranks if ranks else 0.0,
            "cli.self_s": statistics.median(cli_self) if cli_self else 0.0,
            "cli.cmds": calls["cli.run"],
        })
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the imported mgbar package."""
    from mgbar import bn, cli, divclass, koszul, psi, tautring

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    patch(psi, "pand_bound", "psi.pand")
    patch(psi, "correlator_value", "psi.correlator")
    patch(koszul, "module_from_json", "koszul.module")
    patch(koszul, "koszul_matrix", "koszul.matrix", tracer._on_matrix)
    patch(koszul, "matrix_rank", "koszul.rank", tracer._on_rank)
    patch(koszul.SparseMatrix, "compose", "koszul.compose")
    patch(tautring, "element_from_string", "tautring.parse")
    patch(tautring, "integrate_over_C", "tautring.integrate")
    patch(tautring, "integrate_over_W", "tautring.integrate")
    patch(tautring, "solve_d22", "tautring.pipeline")
    patch(tautring, "degeneracy_total", "tautring.pipeline")
    patch(tautring, "load_table", "tautring.table")
    for module, name in ((divclass, "divclass.call"), (bn, "bn.call")):
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)):
                patch(module, attr, name)
    patch(cli, "run", "cli.run")
