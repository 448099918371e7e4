"""One benchmark worker process: set up, run one workload, report as JSON.

Started by run.py with a JSON config as its only argument.  It prints
one line ``{"ready": ...}`` once hilbstrata is imported and one small
request of each kind has run, then (unless set-up only) one line
``{"result": ...}``.  Requests run one after another in this process: a
closed loop with a single client and no extra threads.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def emit(obj) -> None:
    print(json.dumps(obj), file=sys.__stdout__, flush=True)


def memo_caches() -> list:
    """The package's memo caches (lru_cache functions), found by scanning."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "hilbstrata" or name.startswith("hilbstrata."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def verdict(unit, outputs) -> tuple[int, set, list]:
    """Cells compared and failed requests; fewer cells than the inputs imply
    fails every request of the unit."""
    try:
        got, bad, notes = unit.check(outputs)
    except Exception as exc:  # a check that cannot read the output fails it
        got, bad, notes = 0, set(range(len(unit.requests))), [f"check raised {exc!r}"]
    if got < unit.expected_cells:
        bad = set(range(len(unit.requests)))
        notes = notes + [f"compared {got} of {unit.expected_cells} cells"]
    return got, bad, notes


def tamper(outputs):
    """The outputs with one cell made wrong: a digit of rendered text, or an
    extra term on a polynomial."""
    out = list(outputs)
    for i, (tag, value) in enumerate(out):
        changed = tampered(value)
        if changed is not None:
            out[i] = (tag, changed)
            return out
    raise ValueError("no cell to tamper with")


def tampered(value):
    """`value` with one cell made wrong, or None if it holds no cell."""
    from hilbstrata.laurent import LaurentPoly

    if isinstance(value, dict):  # a large-order pass: {call: output}
        for key, inner in value.items():
            changed = tampered(inner)
            if changed is not None:
                return {**value, key: changed}
        return None
    if isinstance(value, LaurentPoly):
        return value + LaurentPoly.t_power(999)
    if isinstance(value, tuple) and len(value) == 3 and isinstance(value[1], str):
        rc, text, err = value
        j = max(text.rfind(d) for d in "0123456789")
        if j >= 0:
            digit = str((int(text[j]) + 1) % 10)
            return rc, text[:j] + digit + text[j + 1:], err
    return None


def gate_selftest(workload) -> list[str]:
    """Run one unit with cells, then show its check rejects a wrong cell and
    missing outputs."""
    workload.prepare()
    for unit in workload.units():
        if unit.expected_cells == 0:
            continue
        outputs = [(req.tag, req.call()) for req in unit.requests]
        unit.after()
        problems = []
        got, bad, notes = verdict(unit, outputs)
        if bad or got != unit.expected_cells:
            problems.append(f"rejected right outputs: {notes[:3]}")
        if not verdict(unit, tamper(outputs))[1]:
            problems.append("accepted a wrong cell")
        if not verdict(unit, [(tag, None) for tag, _ in outputs])[1]:
            problems.append("accepted missing outputs")
        return problems
    return ["no unit with cells"]


def measure(workload, seconds, max_units, memo, gauss_info, tracer=None) -> dict:
    """Run whole passes for about `seconds` (or until `max_units` ran).

    A new pass starts only if, at the mean pass time so far, it ends less
    than half a pass after the deadline; so a run measures `seconds` give
    or take half a pass, and every pass in it is complete.  Each unit
    starts from empty memo caches, as a fresh process would.
    """
    perf = time.perf_counter
    latencies, notes = [], []
    cells = attempted = failed = units = passes = 0
    cpu = 0.0
    hits = misses = 0
    start = perf()
    for unit in workload.units():
        if max_units is not None:
            if units >= max_units:
                break
        elif unit.opens_pass and passes:
            now = perf()
            if now + (now - start) / passes / 2 >= start + seconds:
                break
        passes += unit.opens_pass
        for fn in memo:
            fn.cache_clear()
        outputs, bad = [], set()
        for i, req in enumerate(unit.requests):
            c0, t0 = time.process_time(), perf()
            try:
                out = tracer.run_request(req.kind, req.call) if tracer else req.call()
            except Exception as exc:  # a raising request is a failed request
                out = None
                bad.add(i)
                notes.append(f"{req.kind} raised {exc!r}")
            dt = perf() - t0
            cpu += time.process_time() - c0
            latencies.append(dt)
            outputs.append((req.tag, out))
        if gauss_info is not None:
            info = gauss_info()
            hits, misses = hits + info.hits, misses + info.misses
        unit.after()
        got, wrong, why = verdict(unit, outputs)
        bad |= wrong
        notes += why
        attempted += len(unit.requests)
        failed += len(bad)
        cells += got
        units += 1
    return {
        "units": units,
        "passes": passes,
        "wall_s": perf() - start,
        "attempted": attempted,
        "failed": failed,
        "cells": cells,
        "busy_s": sum(latencies),
        "cpu_s": cpu,
        "samples": len(latencies),
        "p50_s": statistics.median(latencies),
        "p90_s": (statistics.quantiles(latencies, n=10)[-1]
                  if len(latencies) > 1 else latencies[0]),
        "gauss_hits": hits,
        "gauss_misses": misses,
        "notes": notes[:10],
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    os.environ.pop("HILBSTRATA_CACHE_DIR", None)
    start = time.perf_counter()
    import hilbstrata
    import_s = time.perf_counter() - start
    src = Path(cfg["root"], "src", "hilbstrata").resolve()
    if Path(hilbstrata.__file__).resolve().parent != src:
        print(f"hilbstrata imported from {hilbstrata.__file__}, not {src}", file=sys.stderr)
        return 3

    from hilbstrata import laurent

    import tracing
    from workloads import WORKLOADS

    memo = memo_caches()
    gauss_info = getattr(laurent.gauss_binomial, "cache_info", None)
    make = WORKLOADS[cfg["workload"]]

    def fresh(tag):
        workdir = os.path.join(cfg["workdir"], tag)
        os.makedirs(workdir)
        return make(cfg["seed"], cfg["smoke"], workdir)

    workload = fresh("setup")
    workload.warm_up()
    emit({"ready": True, "import_s": import_s})
    if cfg["setup_only"]:
        return 0
    if cfg["gate_selftest"]:
        emit({"result": {"problems": gate_selftest(fresh("gate"))}})
        return 0

    seconds, max_units = cfg["seconds"], cfg["units"]
    if not cfg["trace"]:
        workload.prepare()
        phase = measure(workload, seconds, max_units, memo, gauss_info)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        emit({"result": {"phase": phase, "peak_rss_mb": rss_mb, "import_s": import_s}})
        return 0

    # Traced run: an untraced third for the overhead reference, then the
    # same request stream again, traced, from a fresh workload state.
    begin = time.perf_counter()
    base = fresh("base")
    base.prepare()
    untraced = measure(base, seconds / 3, max_units, memo, gauss_info)
    tracer = tracing.Tracer()
    tracer.install()
    traced_wl = fresh("traced")
    traced_wl.prepare()
    left = max(seconds - (time.perf_counter() - begin), 0.0)
    traced = measure(traced_wl, left, max_units, memo, gauss_info, tracer)
    overhead = traced["p50_s"] / untraced["p50_s"] - 1.0
    per_layer = tracer.metrics(traced["attempted"], traced["gauss_hits"],
                               traced["gauss_misses"], traced["cpu_s"], import_s, overhead)
    spans = os.path.join(cfg["out_dir"], f"spans-{cfg['workload']}.json")
    tracer.dump(spans)
    emit({"result": {"untraced": untraced, "phase": traced, "per_layer": per_layer,
                     "exact_counts": tracer.exact_counts(), "spans": spans}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
