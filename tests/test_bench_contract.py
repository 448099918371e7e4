"""Names of hilbstrata that the benchmark in perfbench/ depends on.

perfbench/tracing.py wraps functions and methods by name, and the
workloads read cache paths, strata cells and the cache module's random
source, and run the matrix pipeline with compute_B's x_matrix passed
positionally.  The tracer classifies each cached call as a hit, miss
or repair by the file SeriesCache._path names, so that must be the file
a table call writes.  A rename or deletion in src/ would otherwise
surface only when the benchmark runs, as an AttributeError in the
traced worker.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hilbstrata import cache, cli, strata

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)  # defines names only; installs and runs nothing
    return module


TARGETS = load_perfbench("tracing").TARGETS


@pytest.mark.parametrize("owner, attr", sorted({(t[1], t[2]) for t in TARGETS}))
def test_trace_target_resolves(owner, attr):
    module_name, _, class_name = owner.partition(".")
    module = importlib.import_module(f"hilbstrata.{module_name}")
    holder = getattr(module, class_name) if class_name else module
    assert callable(getattr(holder, attr))


def test_workload_names_resolve():
    assert callable(cache.SeriesCache._path)
    assert callable(strata.StrataMatrix.get)
    assert hasattr(cache, "random")


def test_matrix_pipeline_calls_resolve():
    # the workload passes X to compute_B positionally
    workloads = load_perfbench("workloads")
    assert workloads.matrix_pipeline(6) == (strata.compute_X(6), strata.compute_B(6))


@pytest.mark.parametrize("argv", [
    ["table", "bm", "--max-n", "8", "--max-m", "2"],
    ["table", "chi", "--max-n", "8"],
    ["table", "hnnr", "--max-n", "8", "--max-r", "3"],
    ["table", "y0", "--max-n", "8"],
])
def test_cached_table_call_writes_the_file_path_names(tmp_path, monkeypatch, capsys, argv):
    keys = []
    get = cache.SeriesCache.get

    def recording_get(self, name, params, order, builder):
        keys.append((self, name, params, order))
        return get(self, name, params, order, builder)

    monkeypatch.setattr(cache.SeriesCache, "get", recording_get)
    assert cli.main(argv + ["--format", "csv", "--cache-dir", str(tmp_path)]) == 0
    (series_cache, name, params, order), = keys  # one cache entry per table call
    assert set(params) <= {"max_m", "max_r"}
    path = series_cache._path(name, params, order)
    assert sorted(tmp_path.iterdir()) == [Path(path)]
