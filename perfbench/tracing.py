"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of each hilbstrata
layer from the outside; nothing inside ``src/`` knows about it.  Module
functions are replaced in every hilbstrata module that binds them,
because ``strata``, ``tables`` and ``cli`` import names with
``from ... import``.  Operators are wrapped on their classes.

Three kinds of wrapper keep memory bounded:

* span:   one record (name, start, end, parent, request, self) per call;
* rollup: calls aggregated per (enclosing span, name), for hot calls that
          have traced children (``tangent_character``, factor steps);
* leaf:   like rollup, for hot calls with no traced children
          (``LaurentPoly`` arithmetic, ``leg``); no frame is pushed.

Self time is a call's duration minus the time its traced children
cover.  A child covers its own bookkeeping as well, so the tracer's cost
lands in no layer's self time; it shows as the difference between the
traced and untraced request latencies.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

SPAN, ROLLUP, LEAF = "span", "rollup", "leaf"

# Layer name, owner ("module" or "Module.Class"), attribute, wrapper kind.
TARGETS = (
    ("cli.main", "cli", "main", SPAN),
    ("tables.build_table", "tables", "build_table", SPAN),
    ("tables.render", "tables", "render", SPAN),
    ("cache.get", "cache.SeriesCache", "get", SPAN),
    ("strata.compute_X", "strata", "compute_X", SPAN),
    ("strata.compute_B", "strata", "compute_B", SPAN),
    ("strata.closed_form", "strata", "closed_form_B", SPAN),
    ("strata.closed_form", "strata", "closed_form_X", SPAN),
    ("strata.chi_series", "strata", "chi_series", SPAN),
    ("strata.verify_all", "strata", "verify_all", SPAN),
    ("qseries.product_factors", "qseries", "product_factors", SPAN),
    ("qseries.cauchy_mul", "qseries.QSeries", "__mul__", SPAN),
    ("qseries.inv", "qseries.QSeries", "inv", SPAN),
    ("qseries.factor_step", "qseries.QSeries", "mul_one_minus", ROLLUP),
    ("qseries.factor_step", "qseries.QSeries", "div_one_minus", ROLLUP),
    ("diagrams.enumerate_marked", "diagrams", "enumerate_marked", SPAN),
    ("diagrams.e_poly_fixed", "diagrams", "e_poly_Hnnr_fixed", SPAN),
    ("diagrams.e_poly_fixed", "diagrams", "e_poly_Bnnr_fixed", SPAN),
    ("diagrams.mu_census", "diagrams", "count_partitions_with_mu", SPAN),
    ("diagrams.tangent_character", "diagrams", "tangent_character", ROLLUP),
    ("diagrams.leg", "diagrams", "leg", LEAF),
    ("laurent.mul", "laurent.LaurentPoly", "__mul__", LEAF),
    ("laurent.mul", "laurent.LaurentPoly", "__rmul__", LEAF),
    ("laurent.add", "laurent.LaurentPoly", "__add__", LEAF),
    ("laurent.add", "laurent.LaurentPoly", "__radd__", LEAF),
    ("laurent.exact_div", "laurent.LaurentPoly", "exact_div", LEAF),
)

LAYERS = ("laurent", "qseries", "diagrams", "strata", "tables", "cache", "cli")


def _terms(poly) -> dict:
    """The {exponent: coefficient} map of a LaurentPoly or int operand.

    Reads the private map because the public items() sorts on every call.
    """
    if isinstance(poly, int):
        return {0: poly} if poly else {}
    return poly._terms


def _stat(path):
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_size, st.st_mtime_ns, st.st_ino)


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.spans: list = []  # (name, start, end, parent, request, self_s)
        self.rollups: dict = {}  # (parent span, name) -> [calls, total_s, self_s]
        self.stack: list = [[0.0, -1]]  # [time covered by children, enclosing span]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.max_coeff_bits = 0
        self._factor_lists: set = set()

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, kind, before=None, after=None):
        """Wrap fn; before(args) runs and after(args, result, state) runs
        outside the measured interval but inside the one the parent sees
        as covered."""
        if kind == LEAF:
            return self._leaf(name, fn, after)
        perf = time.perf_counter
        stack, spans, rollups = self.stack, self.spans, self.rollups
        calls, self_s = self.calls, self.self_s
        tracer = self
        keep = kind == SPAN

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entry = perf()
            state = before(args) if before is not None else None
            parent = stack[-1]
            if keep:
                index = len(spans)
                spans.append(None)
                frame = [0.0, index]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                own = end - start - frame[0]
                calls[name] += 1
                self_s[name] += own
                if keep:
                    spans[index] = (name, start, end, parent[1], tracer.request, own)
                else:
                    key = (parent[1], name)
                    agg = rollups.get(key)
                    if agg is None:
                        rollups[key] = [1, end - start, own]
                    else:
                        agg[0] += 1
                        agg[1] += end - start
                        agg[2] += own
            if after is not None:
                after(args, result, state)
            parent[0] += perf() - entry
            return result

        return wrapper

    def _leaf(self, name, fn, after):
        perf = time.perf_counter
        stack, rollups, calls, self_s = self.stack, self.rollups, self.calls, self.self_s
        tracer = self

        def leaf(*args):
            if not tracer.active:
                return fn(*args)
            entry = perf()
            try:
                result = fn(*args)
            finally:
                own = perf() - entry
                parent = stack[-1]
                calls[name] += 1
                self_s[name] += own
                key = (parent[1], name)
                agg = rollups.get(key)
                if agg is None:
                    rollups[key] = [1, own, own]
                else:
                    agg[0] += 1
                    agg[1] += own
                    agg[2] += own
            if after is not None:
                after(args, result, None)
            parent[0] += perf() - entry
            return result

        return leaf

    # -- counters ---------------------------------------------------------

    def _after_mul(self, args, result, _state):
        a, b = args
        counts = self.counts
        counts["laurent.mul.term_pairs"] += len(_terms(a)) * len(_terms(b))
        terms = _terms(result)
        counts["laurent.mul.out_terms"] += len(terms)
        if terms:
            bits = max(max(terms.values()).bit_length(), min(terms.values()).bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _after_enumerate(self, _args, result, _state):
        self.counts["diagrams.fixed_points"] += len(result)

    def _after_render(self, _args, result, _state):
        self.counts["tables.render.bytes"] += len(result.encode())

    @staticmethod
    def _before_cache_get(args):
        cache, name, params, order = args[:4]
        path = cache._path(name, params, order)
        return path, _stat(path)

    def _after_cache_get(self, _args, _result, state):
        # Classified from outside: a missing file is a miss, a file that the
        # call rewrote is a repair, a file left alone is a hit.
        path, before = state
        after = _stat(path)
        counts = self.counts
        if before is None:
            counts["cache.miss"] += 1
        elif after != before:
            counts["cache.repair"] += 1
        else:
            counts["cache.hit"] += 1
        if before is not None:
            counts["cache.bytes_read"] += before[0]
        if after is not None and after != before:
            counts["cache.bytes_written"] += after[0]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every target binding in the loaded hilbstrata modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hilbstrata" or n.startswith("hilbstrata.")]
        hooks = {
            "laurent.mul": (None, self._after_mul),
            "diagrams.enumerate_marked": (None, self._after_enumerate),
            "tables.render": (None, self._after_render),
            "cache.get": (self._before_cache_get, self._after_cache_get),
        }
        done: dict = {}  # id(original) -> wrapper, so aliases share one
        for name, owner, attr, kind in TARGETS:
            module_name, _, class_name = owner.partition(".")
            module = sys.modules[f"hilbstrata.{module_name}"]
            holder = getattr(module, class_name) if class_name else module
            original = getattr(holder, attr)
            wrapped = done.get(id(original))
            if wrapped is None:
                before, after = hooks.get(name, (None, None))
                fn = original
                if name == "qseries.product_factors":
                    fn = self._record_factor_lists(original)
                wrapped = done[id(original)] = self.wrap(name, fn, kind, before, after)
            if class_name:
                setattr(holder, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _record_factor_lists(self, fn):
        seen = self._factor_lists

        def product_factors(factors, order):
            factors = tuple(factors)
            seen.add((factors, order))
            return fn(factors, order)

        return product_factors

    # -- requests ---------------------------------------------------------

    def run_request(self, kind: str, call):
        """Run one request as a root span; the tracer is active only inside."""
        self._factor_lists.clear()
        self.request += 1
        self.active = True
        try:
            return self.wrap(f"request.{kind}", call, SPAN)()
        finally:
            self.active = False
            self.counts["qseries.product_factors.distinct"] += len(self._factor_lists)

    # -- results ----------------------------------------------------------

    def metrics(self, requests: int, gauss_hits: int, gauss_misses: int,
                cpu_s: float, import_s: float, overhead: float) -> dict:
        """Every per-layer metric, normalised per request where it is a sum."""
        per = 1.0 / max(requests, 1)
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}

        def count(name, value):
            out[name] = (value * per, "count/req")

        def seconds(name, span):
            out[name] = (self_s[span] * per, "s/req")

        count("laurent.mul.calls", calls["laurent.mul"])
        count("laurent.mul.term_pairs", counts["laurent.mul.term_pairs"])
        count("laurent.mul.out_terms", counts["laurent.mul.out_terms"])
        seconds("laurent.mul.self_s", "laurent.mul")
        out["laurent.mul.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        count("laurent.add.calls", calls["laurent.add"])
        seconds("laurent.add.self_s", "laurent.add")
        count("laurent.exact_div.calls", calls["laurent.exact_div"])
        seconds("laurent.exact_div.self_s", "laurent.exact_div")
        out["laurent.gauss_binomial.hit_ratio"] = (
            ratio(gauss_hits, gauss_hits + gauss_misses), "ratio")

        count("qseries.cauchy_mul.calls", calls["qseries.cauchy_mul"])
        seconds("qseries.cauchy_mul.self_s", "qseries.cauchy_mul")
        count("qseries.product_factors.calls", calls["qseries.product_factors"])
        seconds("qseries.product_factors.self_s", "qseries.product_factors")
        out["qseries.product_factors.distinct_ratio"] = (
            ratio(counts["qseries.product_factors.distinct"],
                  calls["qseries.product_factors"]), "ratio")
        count("qseries.factor_step.calls", calls["qseries.factor_step"])
        count("qseries.inv.calls", calls["qseries.inv"])

        count("diagrams.fixed_points", counts["diagrams.fixed_points"])
        seconds("diagrams.enumerate_marked.self_s", "diagrams.enumerate_marked")
        count("diagrams.tangent_character.calls", calls["diagrams.tangent_character"])
        seconds("diagrams.tangent_character.self_s", "diagrams.tangent_character")
        count("diagrams.leg.calls", calls["diagrams.leg"])
        seconds("diagrams.e_poly_fixed.self_s", "diagrams.e_poly_fixed")
        seconds("diagrams.mu_census.self_s", "diagrams.mu_census")

        for fn in ("compute_X", "compute_B"):
            seconds(f"strata.{fn}.self_s", f"strata.{fn}")
        count("strata.closed_form.calls", calls["strata.closed_form"])
        seconds("strata.closed_form.self_s", "strata.closed_form")
        seconds("strata.chi_series.self_s", "strata.chi_series")
        seconds("strata.verify_all.self_s", "strata.verify_all")

        count("tables.build_table.calls", calls["tables.build_table"])
        seconds("tables.build_table.self_s", "tables.build_table")
        seconds("tables.render.self_s", "tables.render")
        out["tables.render.bytes"] = (counts["tables.render.bytes"] * per, "B/req")

        count("cache.get.calls", calls["cache.get"])
        seconds("cache.get.self_s", "cache.get")
        for event in ("hit", "miss", "repair"):
            count(f"cache.{event}", counts[f"cache.{event}"])
        out["cache.hit_ratio"] = (ratio(counts["cache.hit"], calls["cache.get"]), "ratio")
        out["cache.bytes_read"] = (counts["cache.bytes_read"] * per, "B/req")
        out["cache.bytes_written"] = (counts["cache.bytes_written"] * per, "B/req")

        count("cli.main.calls", calls["cli.main"])
        seconds("cli.main.self_s", "cli.main")

        # Share of traced request time spent in each module's own code; the
        # rest is the harness's request wrapper (output capture, dispatch).
        total = sum(self_s.values())
        for layer in LAYERS:
            own = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            out[f"{layer}.self_share"] = (100.0 * ratio(own, total), "%")

        out["process.cpu_s"] = (cpu_s * per, "s/req")
        out["process.import_s"] = (import_s, "s")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for a fixed list of requests."""
        return {
            "laurent.mul.calls": self.calls["laurent.mul"],
            "laurent.mul.term_pairs": self.counts["laurent.mul.term_pairs"],
            "qseries.product_factors.calls": self.calls["qseries.product_factors"],
            "qseries.product_factors.distinct": self.counts["qseries.product_factors.distinct"],
            "diagrams.fixed_points": self.counts["diagrams.fixed_points"],
            "cache.hit": self.counts["cache.hit"],
            "cache.miss": self.counts["cache.miss"],
            "cache.repair": self.counts["cache.repair"],
        }

    def dump(self, path) -> None:
        """Write every span and rollup as JSON."""
        payload = {
            "span_fields": ["name", "start", "end", "parent", "request", "self_s"],
            "spans": [list(s) for s in self.spans if s is not None],
            "rollup_fields": ["parent", "name", "calls", "total_s", "self_s"],
            "rollups": [[p, n, *v] for (p, n), v in sorted(self.rollups.items())],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
