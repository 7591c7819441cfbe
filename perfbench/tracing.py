"""Spans and counters recorded around the package's public entry points.

The traced run replaces each entry point, in every package module that
binds it, with a wrapper that records a span (name, start, end, parent)
and a few counters read off the arguments and the result.  Spans stay in
memory and are written out once the run ends.

A span's metric counts only where no enclosing span belongs to the same
module, so a checker that calls another checker is not counted twice.
Self time is a span's duration minus the spans of other modules directly
beneath it (looking through spans of its own module).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

#: Span names whose self time is reported, and the metric that holds it.
SELF_TIME = {
    "solver.solve": "solver.self_s",
    "allocation.synthesize": "allocation.synthesize_self_s",
    "cli.main": "cli.self_s",
}

PER_LAYER = (
    ("instance_io.parse_s", "s"),
    ("instance_io.doc_bytes", "bytes"),
    ("market.compat_s", "s"),
    ("market.pairs", "count"),
    ("solver.solve_s", "s"),
    ("solver.self_s", "s"),
    ("solver.augmentations", "count"),
    ("solver.relaxations", "count"),
    ("lp.solve_s", "s"),
    ("lp.calls", "count"),
    ("lp.rows", "count"),
    ("lp.cells", "count"),
    ("allocation.synthesize_s", "s"),
    ("allocation.synthesize_self_s", "s"),
    ("allocation.stability_rows", "count"),
    ("allocation.synth_feasible", "count"),
    ("allocation.synth_infeasible", "count"),
    ("allocation.check_s", "s"),
    ("allocation.violations", "count"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("generate.instance_s", "s"),
)


class Tracer:
    def __init__(self):
        #: one [name, start, end, parent index, counters] per span
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None, {}])
        self._open.append(idx)
        try:
            yield self.spans[idx][4]
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if counters is not None:
                counts.update(counters(args, result))
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def _children(self):
        kids = [[] for _ in self.spans]
        for idx, span in enumerate(self.spans):
            if span[3] is not None:
                kids[span[3]].append(idx)
        return kids

    def _totals(self, root, kids):
        """Metric totals over the spans beneath ``root``."""
        out = dict(self.spans[root][4])

        def self_time(idx, module):
            span = self.spans[idx]
            inner = 0.0
            for k in kids[idx]:
                if _module(self.spans[k][0]) == module:
                    inner += (self.spans[k][2] - self.spans[k][1]) - self_time(k, module)
                else:
                    inner += self.spans[k][2] - self.spans[k][1]
            return (span[2] - span[1]) - inner

        def visit(idx, modules):
            name, start, end, _, counts = self.spans[idx]
            module = _module(name)
            if module not in modules:
                out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start)
                for key, value in counts.items():
                    out[key] = out.get(key, 0) + value
                if name in SELF_TIME:
                    out[SELF_TIME[name]] = out.get(SELF_TIME[name], 0.0) + self_time(idx, module)
            for k in kids[idx]:
                visit(k, modules | {module})

        for k in kids[root]:
            visit(k, frozenset())
        return out

    def per_layer(self, root_name="op", setup_name="setup"):
        """Mean per operation of every per-layer metric; ``generate.instance_s``
        is the median over set-ups of the generator time in one set-up."""
        kids = self._children()
        ops = [self._totals(i, kids) for i, s in enumerate(self.spans) if s[0] == root_name]
        setups = [self._totals(i, kids) for i, s in enumerate(self.spans) if s[0] == setup_name]
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "generate.instance_s":
                value = statistics.median(t.get(name, 0.0) for t in setups) if setups else 0.0
            else:
                value = sum(t.get(name, 0) for t in ops) / len(ops) if ops else 0.0
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def dump(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "counters": c}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _module(name):
    return name.split(".", 1)[0]


def install(tracer: Tracer):
    """Wrap the public entry points of each package module.

    A wrapper replaces the function wherever a package module binds it, so
    calls between modules are traced too.  An entry point a module no
    longer has is skipped; ``lp_solve`` is timed where ``solver`` and
    ``allocation`` look it up.
    """
    from rideshare_market import allocation, cli, generate, instance_io, lp, market, solver

    def lp_size(args, result):
        problem = args[0]
        rows = len(problem.rows) + sum(u is not None for u in problem.upper_bounds or ())
        return {"lp.calls": 1, "lp.rows": rows, "lp.cells": rows * problem.num_vars}

    def synth(args, result):
        return {
            "allocation.stability_rows": len(result.row_labels),
            "allocation.synth_feasible": int(result.feasible),
            "allocation.synth_infeasible": int(not result.feasible),
        }

    def violations(args, result):
        return {"allocation.violations": len(getattr(result, "violations", ()))}

    targets = (
        (instance_io, "parse_document", "instance_io.parse",
         lambda a, r: {"instance_io.doc_bytes": len(a[0].encode("utf-8"))}),
        (solver, "solve_optimal_assignment", "solver.solve",
         lambda a, r: {"solver.augmentations": r.augmentations, "solver.relaxations": r.relaxations}),
        (lp, "lp_solve", "lp.solve", lp_size),
        (allocation, "synthesize_stable_payments", "allocation.synthesize", synth),
        (allocation, "compute_profits", "allocation.check", None),
        (allocation, "check_feasibility", "allocation.check", violations),
        (allocation, "check_stability", "allocation.check", violations),
        (cli, "main", "cli.main", None),
        (generate, "generate_instance", "generate.instance", None),
    )
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "rideshare_market"]
    for owner, attr, name, counters in targets:
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, counters)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    prop = vars(market.MarketInstance).get("compatibility")
    if isinstance(prop, functools.cached_property):
        timed = functools.cached_property(
            tracer.wrap(
                "market.compat",
                prop.func,
                lambda a, r: {"market.pairs": sum(1 for ok in r.entries.values() if ok)},
            )
        )
        timed.__set_name__(market.MarketInstance, "compatibility")
        market.MarketInstance.compatibility = timed
