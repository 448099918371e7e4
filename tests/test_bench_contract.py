"""Names of hilbstrata that the benchmark in perfbench/ depends on.

perfbench/tracing.py wraps functions and methods by name, and the
workloads read cache paths, strata cells and the cache module's random
source.  A rename or deletion in src/ would otherwise surface only when
the benchmark runs, as an AttributeError in the traced worker.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hilbstrata import cache, strata

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tracer; installs nothing
    return module


TARGETS = load_tracing().TARGETS


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
