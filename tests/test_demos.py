"""Every demo script, and the README's Python quick start, runs to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = re.search(r"## Library quick start\s+```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S).group(1)

# (id, interpreter arguments, lines the output must contain)
SCRIPTS = [(d.stem, [str(d)], ()) for d in DEMOS] + [
    ("readme_quick_start", ["-c", QUICK_START],
     ("t^4+2*t^3-t", "11", "all identities hold at order 14")),
]


@pytest.mark.parametrize("args, lines", [s[1:] for s in SCRIPTS], ids=[s[0] for s in SCRIPTS])
def test_demo_exits_zero(args, lines):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    out = res.stdout.splitlines()
    assert all(line in out for line in lines), res.stdout
