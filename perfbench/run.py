"""hilbstrata benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

  python3 perfbench/run.py --workload large-order --seed 1 --seconds 60 --trace 0
  python3 perfbench/run.py --workload all      # every workload, untraced and traced
  python3 perfbench/run.py --smoke             # the harness's own test, in seconds

A run starts fresh worker processes (perfbench/worker.py) that import
hilbstrata from ./src.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it makes a separate traced run and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a summary, the
run's context and any failures go to standard error.  The exit code is
0 when every checked cell was right, 1 when one was wrong and 2 when the
benchmark could not run.  See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("large-order", "fixedpoint", "cli-mix")
SETUP_RUNS = 5  # fresh workers per run; setup_s is their median
RUN_LIMIT_S = 170.0  # a whole invocation must end within 180 s
SMOKE_UNITS = {"large-order": 1, "fixedpoint": 1, "cli-mix": 20}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


def _lines(proc, deadline):
    """Lines of a worker's standard output, read without blocking past deadline."""
    fd, buf = proc.stdout.fileno(), b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("worker timed out")
        if not select.select([fd], [], [], remaining)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield json.loads(line)


def spawn(workload, seed, seconds, trace, deadline, setup_only=False,
          smoke=False, units=None, gate_selftest=False):
    """Run one worker; return (set-up seconds, its result or None)."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="worker-", dir=OUT / "tmp")
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "setup_only": setup_only, "smoke": smoke, "units": units,
           "gate_selftest": gate_selftest,
           "root": str(ROOT), "out_dir": str(OUT), "workdir": workdir}
    env = {k: v for k, v in os.environ.items() if k != "HILBSTRATA_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, env=env,
    )
    try:
        setup_s, result = None, None
        for message in _lines(proc, deadline):
            if message.get("ready"):
                setup_s = time.perf_counter() - start
            result = message.get("result", result)
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        if code != 0 or setup_s is None or (result is None and not setup_only):
            raise BenchError(f"{workload} worker exited with code {code}")
        return setup_s, result
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not exit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)


def context(workload, seed, seconds, trace) -> dict:
    """Where and on what a result was measured."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": _commit(), "time": time.strftime("%Y-%m-%dT%H:%M:%S")}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics() -> dict:
    """{section: {metric name: unit}} as BENCHMARK.json declares them."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        return {}
    return {key: {m["name"]: m["unit"] for m in bench[key]}
            for key in ("end_to_end", "per_layer")}


def run_one(workload, seed, seconds, trace, smoke=False, units=None) -> dict:
    """One benchmark run; returns the report (metrics, counts, context)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    report = {"context": context(workload, seed, seconds, trace)}
    if not trace:
        setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True,
                        smoke=smoke)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, result = spawn(workload, seed, seconds, 0, deadline, smoke=smoke, units=units)
        setups.append(setup_s)
        phase = result["phase"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "req_p50_s": (phase["p50_s"], "s"),
            "req_p90_s": (phase["p90_s"], "s"),
            "cells_per_s": (phase["cells"] / phase["busy_s"], "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        phases = [phase]
        report["setup_samples"] = setups
    else:
        _, result = spawn(workload, seed, seconds, 1, deadline, smoke=smoke, units=units)
        metrics = {k: tuple(v) for k, v in result["per_layer"].items()}
        phases = [result["untraced"], result["phase"]]
        report["exact_counts"] = result["exact_counts"]
        report["spans"] = result["spans"]
        report["untraced"] = result["untraced"]
    report["phase"] = result["phase"]
    report["attempted"] = sum(p["attempted"] for p in phases)
    report["failed"] = sum(p["failed"] for p in phases)
    report["fail_ratio"] = report["failed"] / max(report["attempted"], 1)
    report["notes"] = [n for p in phases for n in p["notes"]]
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-trace{trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def summarize(report) -> None:
    ctx, phase = report["context"], report["phase"]
    print(f"== {ctx['workload']} seed={ctx['seed']} trace={ctx['trace']}  python "
          f"{ctx['python']}, nproc {ctx['nproc']}, {ctx['cpu']}, commit {ctx['commit'][:12]}",
          file=sys.stderr)
    print(f"   {phase['passes']} passes ({phase['units']} units) in {phase['wall_s']:.1f} s, "
          f"{phase['samples']} requests timed, "
          f"{phase['cells']} cells checked, fail_ratio {report['fail_ratio']:.4g} "
          f"({report['failed']}/{report['attempted']})", file=sys.stderr)
    if "untraced" in report:
        print(f"   tracing overhead on req_p50_s: {report['untraced']['p50_s']:.6g} s -> "
              f"{phase['p50_s']:.6g} s", file=sys.stderr)
    for name, (value, unit) in report["metrics"].items():
        print(f"   {name:42} {value:>14.6g} {unit}", file=sys.stderr)
    for note in report["notes"]:
        print(f"   FAIL {note}", file=sys.stderr)


def result_line(report, names) -> str:
    metrics = report["metrics"]
    chosen = names if names is not None else list(metrics)
    return json.dumps({
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in chosen},
    })


def smoke(seed) -> int:
    """Every workload at shrunken sizes: gate, traced run, determinism."""
    problems, declared = [], declared_metrics()
    for workload in WORKLOAD_NAMES:
        units = SMOKE_UNITS[workload]
        plain = run_one(workload, seed, 1, 0, smoke=True, units=units)
        summarize(plain)
        if plain["failed"] or plain["phase"]["cells"] == 0:
            problems.append(f"{workload}: untraced run failed or compared nothing")
        traced = [run_one(workload, seed, 1, 1, smoke=True, units=units) for _ in range(2)]
        summarize(traced[0])
        if any(t["failed"] for t in traced):
            problems.append(f"{workload}: traced run failed")
        if traced[0]["exact_counts"] != traced[1]["exact_counts"]:
            problems.append(f"{workload}: counts differ between two traced runs: "
                            f"{traced[0]['exact_counts']} vs {traced[1]['exact_counts']}")
        if not Path(traced[0]["spans"]).is_file():
            problems.append(f"{workload}: no span file written")
        for section, report in (("end_to_end", plain), ("per_layer", traced[0])):
            for name, unit in declared.get(section, {}).items():
                if report["metrics"].get(name, (0, None))[1] != unit:
                    problems.append(f"{workload}: {section} metric {name} [{unit}] not produced")
        deadline = time.perf_counter() + RUN_LIMIT_S
        _, gate = spawn(workload, seed, 1, 0, deadline, smoke=True, gate_selftest=True)
        problems += [f"{workload}: gate {p}" for p in gate["problems"]]
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the harness's own test at shrunken sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hilbstrata" / "__init__.py").is_file():
        print(f"no hilbstrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.seed)
        declared = declared_metrics()
        if args.workload != "all":
            report = run_one(args.workload, args.seed, args.seconds, args.trace)
            summarize(report)
            names = declared.get("per_layer" if args.trace else "end_to_end")
            print(result_line(report, names))
            return 0 if report["failed"] == 0 else 1
        worst = 0
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                report = run_one(workload, args.seed, args.seconds, trace)
                summarize(report)
                names = declared.get("per_layer" if trace else "end_to_end")
                print(f"{workload} trace={trace}: {result_line(report, names)}")
                worst = max(worst, 1 if report["failed"] else 0)
        return worst
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
