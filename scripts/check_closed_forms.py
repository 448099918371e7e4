"""Pin every bm/hm column of both routes to digests of known-good values.

Run from the repository root:

    PYTHONPATH=src python scripts/check_closed_forms.py [ORDER ...]

For each order (default: all of DIGESTS) it builds the B and X columns
m = 1..mu_max(N) + 1 (one zero column past the top) twice: as
closed_form_B(m, N) and closed_form_X(m, N), and as the rows of
compute_B(N) and compute_X(N) (the matrix pipeline).  It hashes each
route's coefficients, term by term, and compares the SHA-256 digest
with DIGESTS, which both routes must match.  It prints one line per
order with each route's best of three build times (memo caches cleared
before each) and exits 1 if any digest differs; a mismatch prints the
digest it got, which is how a new order is pinned.
"""

from __future__ import annotations

import hashlib
import sys
import time

from hilbstrata import packed, strata
from hilbstrata.diagrams import mu_max
from hilbstrata.qseries import QSeries

# order -> SHA-256 of the columns, pinned from the divided-sum closed forms
# (the division-era packed kernel) and checked then against the matrix
# pipeline on LaurentPoly; both routes must reproduce them
DIGESTS = {
    0: "ecc4c35370ce95befd40ab5fb4a6aaa712f6882d1a4dcf49fb27eed4b07fbf23",
    1: "755085d9a1a79627015b77be937454a0de6133a86f3035585f185b6ffcf93270",
    2: "ac48314b430bdb1956920a088002ba7db61639ed31d14b02b292c764723fb591",
    3: "d5bf16f2243d1cae612e6b4abebae36a900cf686817e916801374c735fe83247",
    4: "b83eefe1d09e80dbf2e8146b1746216b58d7b59b394e658d062daa6b51c85b0a",
    5: "1b7f860a2b72ec808bf71d076d8b245ab327ef038ee051f96fbe0f62bf79dda2",
    6: "76b010c042c1bcd51ca7ba6d3359f55a0af5d9553b4728079b041f97ff90fb43",
    10: "b7bc3ac25d7f5b8650a3ea69019492591f7e1e5c1522bc9808514d307a6d6b15",
    14: "1bee3c528a35ba92bc3ee761b1f61f11e7d5c8564f14f1cc1429076d7c895748",
    30: "acd7843063d870fdb09670507ed5c7cf4a0da47409a195473b27ed50e560bc35",
    48: "7be8adfa8f67d40588fd67fab1ef823d0c5e50e57b309ce39634759e62ff4a3e",
    80: "611c403e013c411cfd8cf55f522894883bb4f9a22d635e9262d12309d6dc066f",
    120: "1524b8872f80bb34e4bacff0776b84f43af39613da6e2915eb25e131985682d7",
    200: "82868945ac6e09b90b21db6e35c544d83f889b899eced622930924f1a1d7422e",
}


def closed_form_columns(order: int) -> list:
    """Every bm and hm column at the order, one zero column past the top."""
    return [closed_form(m, order) for closed_form in (strata.closed_form_B, strata.closed_form_X)
            for m in range(1, mu_max(order) + 2)]


def matrix_columns(order: int) -> list:
    """The same columns, in the same layout, from the matrix pipeline."""
    return [family.rows.get(m, QSeries.zero(order))
            for family in (strata.compute_B(order), strata.compute_X(order))
            for m in range(1, mu_max(order) + 2)]


ROUTES = (("closed forms", closed_form_columns), ("matrix pipeline", matrix_columns))


def digest(cols: list) -> str:
    h = hashlib.sha256()
    for col in cols:
        for c in col.coeffs:
            h.update(repr(list(c.items())).encode())
        h.update(b";")
    return h.hexdigest()


def best_of_three(columns, order: int) -> tuple[float, list]:
    """The columns and the best of three build times, memo caches cleared each time."""
    times = []
    for _ in range(3):
        for fn in vars(packed).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        start = time.perf_counter()
        cols = columns(order)
        times.append(time.perf_counter() - start)
    return min(times), cols


def main(argv: list[str]) -> int:
    bad = 0
    for order in [int(a) for a in argv] or sorted(DIGESTS):
        report = []
        for name, columns in ROUTES:
            elapsed, cols = best_of_three(columns, order)
            got = digest(cols)
            ok = DIGESTS.get(order) == got
            bad += not ok
            report.append(f"{name} {'ok' if ok else 'MISMATCH ' + got} {elapsed:.3f} s")
        print(f"order {order:3}: {', '.join(report)} (best of 3)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
