"""Hypothesis profiles for the suite.

The default profile is hypothesis's own.  ``deep`` runs every property
2000 times: ``python -m pytest -q tests/test_laurent.py --hypothesis-profile=deep``.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)
