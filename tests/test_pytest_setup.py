"""The suite's pytest settings report a failing hypothesis property as one
failed test.

pyproject.toml turns every warning into an error.  A warning raised inside
hypothesis's report hook would then abort the whole session with an
INTERNALERROR, hiding the failure and every later result.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x
'''


def test_failing_property_is_reported_as_a_failure(tmp_path):
    module = tmp_path / "test_failing_property.py"
    module.write_text(FAILING_PROPERTY)
    # cwd=tmp_path keeps hypothesis's example database out of the tree
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(module)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out
