"""Write BENCH_<LABEL>.json, a benchmark baseline, at the repository root.

    python3 scripts/bench_snapshot.py LABEL

It records, each with the host and commit it ran on:

* end_to_end and per_layer: perfbench/run.py --workload W --seed 1
  --seconds 60 --trace T for W in large-order and cli-mix, run as it
  is; T = 0 gives the end-to-end metrics and T = 1 the per-layer ones,
  copied as the harness reports them;
* cli: the end-to-end command set, each command a fresh
  `python -m hilbstrata` process, wall times of 5 runs and their median;
* in_process: layer times in this process, memo caches cleared before
  each of 5 runs, and their median.

It uses the standard library only and takes about 7 minutes on 2 vCPUs.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
WORKLOADS = ("large-order", "cli-mix")
CLI = (("table", "bm"), ("table", "bm", "--max-n", "40"), ("table", "bm", "--max-n", "80"),
       ("verify", "--level", "full"), ("verify", "--max-n", "40"),
       ("verify", "--max-n", "80"), ("verify", "--max-n", "200"))
PER_LAYER_NOTE = (
    "Copied as perfbench/tracing.py reports it.  The tracer still wraps members "
    "that no workload runs any more (ROADMAP item 1): their metrics read 0 until "
    "it follows the code.  zero_in_every_traced_run lists what read 0 here.")


def bench(workload: str, trace: int) -> dict:
    """One harness run, as its result file records it."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "60", "--trace", str(trace)]
    if subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.DEVNULL).returncode:
        raise SystemExit(f"{' '.join(argv)} failed")
    report = json.loads((ROOT / ".perfbench-out" / f"result-{workload}-trace{trace}.json").read_text())
    return {"argv": ["python3", *argv], "context": report["context"],
            "attempted": report["attempted"], "failed": report["failed"],
            "notes": report["notes"], "metrics": report["metrics"]}


def timed(runs: list[float]) -> dict:
    return {"runs_s": runs, "median_s": statistics.median(runs)}


def cli_times(args: tuple[str, ...]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HILBSTRATA_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "hilbstrata", *args], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, check=True)
        runs.append(time.perf_counter() - start)
    return {"argv": ["python", "-m", "hilbstrata", *args], **timed(runs)}


def layer_times() -> list[dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from hilbstrata import diagrams, packed, strata

    def clear_memo_caches():
        for name, module in list(sys.modules.items()):
            if name.startswith("hilbstrata"):
                for value in list(vars(module).values()):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()

    def verify_200():
        if not strata.verify_all(200).passed:
            raise SystemExit("verify_all(200) failed")

    k_bits = packed.digit_bits(120)
    layers = {
        "packed.packed_column(5, 120, -1, digit_bits(120))":
            lambda: packed.packed_column(5, 120, -1, k_bits),
        "strata.compute_X(120) + strata.compute_B(120)":
            lambda: (strata.compute_X(120), strata.compute_B(120)),
        "strata.closed_form_B(5, 120)": lambda: strata.closed_form_B(5, 120),
        "strata.verify_all(200)": verify_200,
        "diagrams.e_poly_Bnnr_fixed(30, r) for r <= 4":
            lambda: [diagrams.e_poly_Bnnr_fixed(30, r) for r in range(5)],
    }
    out = []
    for name, call in layers.items():
        runs = []
        for _ in range(REPEATS):
            clear_memo_caches()
            start = time.perf_counter()
            call()
            runs.append(time.perf_counter() - start)
        out.append({"name": name, **timed(runs)})
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not re.fullmatch(r"[\w.-]+", args[0]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    label = args[0]
    end_to_end = {w: bench(w, 0) for w in WORKLOADS}
    per_layer = {w: bench(w, 1) for w in WORKLOADS}
    host = end_to_end[WORKLOADS[0]]["context"]
    snapshot = {
        "label": label,
        "command": f"python3 scripts/bench_snapshot.py {label}",
        "context": {k: host[k] for k in ("commit", "python", "nproc", "cpu", "time")},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "per_layer_note": PER_LAYER_NOTE,
        "zero_in_every_traced_run": sorted(
            name for name in per_layer[WORKLOADS[0]]["metrics"]
            if all(run["metrics"].get(name, [0])[0] == 0 for run in per_layer.values())),
        "cli": [cli_times(c) for c in CLI],
        "in_process": layer_times(),
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
