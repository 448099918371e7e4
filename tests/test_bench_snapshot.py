"""The committed benchmark baselines (BENCH_*.json, written by
scripts/bench_snapshot.py) hold every section and metric they promise.
Nothing is run: only the files' keys are checked."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOTS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {"large-order", "cli-mix"}
CLI = [["table", "bm"], ["table", "bm", "--max-n", "40"], ["table", "bm", "--max-n", "80"],
       ["verify", "--level", "full"], ["verify", "--max-n", "40"],
       ["verify", "--max-n", "80"], ["verify", "--max-n", "200"]]
LAYERS = ["packed.packed_column(5, 120, -1, digit_bits(120))",
          "strata.compute_X(120) + strata.compute_B(120)", "strata.closed_form_B(5, 120)",
          "strata.verify_all(200)", "diagrams.e_poly_Bnnr_fixed(30, r) for r <= 4"]
HOST = {"commit", "python", "nproc", "cpu", "time"}


def test_a_baseline_is_committed():
    assert SNAPSHOTS


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda path: path.name)
def test_snapshot_holds_every_section(path):
    snap = json.loads(path.read_text())
    assert set(snap) == {"label", "command", "context", "end_to_end", "per_layer",
                         "per_layer_note", "zero_in_every_traced_run", "cli", "in_process"}
    assert path.name == f"BENCH_{snap['label']}.json"
    assert snap["command"] == f"python3 scripts/bench_snapshot.py {snap['label']}"
    assert set(snap["context"]) == HOST
    for section, trace, names in (("end_to_end", 0, DECLARED["end_to_end"]),
                                  ("per_layer", 1, DECLARED["per_layer"])):
        assert set(snap[section]) == WORKLOADS
        for workload, run in snap[section].items():
            assert run["argv"] == ["python3", "perfbench/run.py", "--workload", workload,
                                   "--seed", "1", "--seconds", "60", "--trace", str(trace)]
            assert HOST <= set(run["context"])
            assert run["context"]["commit"] == snap["context"]["commit"]
            assert run["attempted"] > 0 and run["failed"] == 0
            assert {metric["name"] for metric in names} <= set(run["metrics"])
    assert "ROADMAP item 1" in snap["per_layer_note"]
    assert set(snap["zero_in_every_traced_run"]) <= set(snap["per_layer"]["cli-mix"]["metrics"])
    assert [entry["argv"] for entry in snap["cli"]] == [["python", "-m", "hilbstrata", *c] for c in CLI]
    assert [entry["name"] for entry in snap["in_process"]] == LAYERS
    for entry in snap["cli"] + snap["in_process"]:
        assert len(entry["runs_s"]) == 5
        assert entry["median_s"] == sorted(entry["runs_s"])[2]
