"""Span tracer that times calls into ordercomplete from outside the package.

Each traced entry point is replaced at every binding that refers to it:
the defining module, every module that did `from .x import name`, and the
package namespace. Patching only the defining module would miss calls made
through those other bindings. Spans nest on one stack, so a span's self
time is its duration minus the time of the spans it caused.

Counted entry points (the hot evaluators) only increment a call count; their
time stays in the caller's self time, which keeps the overhead low.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from dataclasses import dataclass

PACKAGE = "ordercomplete"
# (defining module, function) timed as spans
SPANS = (
    ("cli", "load_spec"), ("cli", "run_pipeline"), ("cli", "verify"),
    ("solver", "tile_domain"), ("solver", "global_pair"), ("solver", "refine"),
    ("solver", "run_scheme"), ("solver", "jet_solve"),
    ("pde", "check_assumption_interior"), ("pde", "check_assumption_open"),
    ("pde", "apply_operator"),
    ("jets", "assemble"), ("jets", "_classify_grid"), ("jets", "sample_component"),
    ("jets", "write_poly_json"), ("jets", "read_poly_json"),
    ("grids", "write_csv"), ("grids", "skeleton_fill"),
    ("grids", "order_convergence_check"),
    ("analysis", "interval_pushforward"), ("analysis", "nested_limit_check"),
    ("analysis", "compare_reference"),
)
# (defining module, function) counted only
COUNTED = (("expr", "eval_point"), ("expr", "eval_on_arrays"), ("expr", "eval_interval"))

# spans whose jet solves count as anchor solves for solver.cell_accept_ratio
_SUBDIVIDERS = ("solver.global_pair", "solver.refine")


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0
    failures: int = 0


def _arg(sig: inspect.Signature, name: str, args, kwargs):
    return sig.bind(*args, **kwargs).arguments[name]


def _on_classify_grid(tr, sig, args, kwargs, result):
    cells = _arg(sig, "cells", args, kwargs)
    domain = _arg(sig, "domain", args, kwargs)
    size = 1
    for s in domain.shape:
        size *= s
    tr.add("jets._classify_grid.cell_points", len(cells) * size)


def _on_eval_on_arrays(tr, sig, args, kwargs, result):
    tr.add("expr.eval_on_arrays.elems", result.size)


def _on_jet_solve(tr, sig, args, kwargs, result):
    # hooks run after the span is popped, so the stack holds its callers
    if any(name in _SUBDIVIDERS for name, _ in tr.stack):
        tr.add("solver.anchor_solves", 1)


def _on_refine(tr, sig, args, kwargs, result):
    cells = sum(len(cs) for cs in result.j_cells)
    tr.add("solver.refine.j_cells", cells)
    tr.add("solver.accepted_cells", cells)


def _on_global_pair(tr, sig, args, kwargs, result):
    tr.add("solver.global_pair.cells", len(result.cells))
    tr.add("solver.accepted_cells", len(result.cells))


def _on_write_csv(tr, sig, args, kwargs, result):
    tr.add("grids.write_csv.bytes", os.path.getsize(_arg(sig, "path", args, kwargs)))


HOOKS = {
    "jets._classify_grid": _on_classify_grid,
    "expr.eval_on_arrays": _on_eval_on_arrays,
    "solver.global_pair": _on_global_pair,
    "solver.refine": _on_refine,
    "grids.write_csv": _on_write_csv,
    "solver.jet_solve": _on_jet_solve,
}


class Tracer:
    """Aggregates span statistics while installed; `uninstall` restores
    every original binding."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = {}
        self.counters: dict[str, float] = {}
        self.site_calls: dict[tuple[str, str], int] = {}
        self.stack: list[list] = []  # [span name, seconds spent in child spans]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # traced names the package no longer has

    # -- bookkeeping ---------------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def snapshot(self) -> tuple[dict[str, SpanStat], dict[str, float]]:
        stats = {k: SpanStat(v.calls, v.self_s, v.failures)
                 for k, v in self.stats.items()}
        return stats, dict(self.counters)

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _modules() -> list[tuple[str, object]]:
        return sorted(
            (name.removeprefix(PACKAGE + "."), mod)
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        )

    def install(self) -> list[tuple[str, str]]:
        """Wrap every binding of every traced entry point; returns the
        (span name, binding module) pairs patched."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = set()
        modules = self._modules()
        by_name = dict(modules)
        sites = []
        for kind, table in (("span", SPANS), ("count", COUNTED)):
            for mod_name, func_name in table:
                span = f"{mod_name}.{func_name}"
                original = getattr(by_name.get(mod_name), func_name, None)
                if original is None:
                    self.missing.add(span)
                    continue
                self.stats.setdefault(span, SpanStat())
                for site, mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            wrapper = self._wrap(kind, span, site, original)
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                            sites.append((span, site))
        return sites

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, kind: str, span: str, site: str, fn):
        stat = self.stats[span]
        sig = inspect.signature(fn)
        hook = HOOKS.get(span)
        key = (span, site)
        perf = time.perf_counter
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                stat.calls += 1
                tracer.site_calls[key] = tracer.site_calls.get(key, 0) + 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, sig, args, kwargs, result)
                return result
            counted.__wrapped__ = fn
            return counted

        def timed(*args, **kwargs):
            stack = tracer.stack
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failures += 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[1]
                tracer.site_calls[key] = tracer.site_calls.get(key, 0) + 1
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(tracer, sig, args, kwargs, result)
            return result
        timed.__wrapped__ = fn
        return timed
