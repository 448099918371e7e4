"""The benchmark's workloads: seeded request lists and their correctness gates.

A workload yields *units*.  A unit is a list of requests, the number of
cells its inputs imply, and a check.  Requests are timed one by one; the
check runs afterwards, outside the timed span, and returns how many
cells it compared and which requests produced a wrong cell.

Workload sizes are fixed so that every seed costs the same; the seed
draws the order of calls within a pass (``large-order``, ``fixedpoint``)
and the whole request stream (``cli-mix``).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from hilbstrata import cache as cache_module
from hilbstrata import cli, diagrams, qseries, strata
from hilbstrata.laurent import LaurentPoly

TABLE_KINDS = ("bm", "hm", "chi", "y0", "hnnr")
FORMATS = ("csv", "json", "latex")


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    tag: object = None


@dataclass
class Unit:
    requests: list[Request]
    expected_cells: int
    check: Callable[[list], tuple[int, set, list]]
    after: Callable[[], None] = field(default=lambda: None)
    opens_pass: bool = True  # a run ends only before a unit that opens a pass


# -- independent references ------------------------------------------------


def mu_top(n: int) -> int:
    """Largest generator count on n points: max k with C(k, 2) <= n."""
    k = 1
    while (k + 1) * k // 2 <= n:
        k += 1
    return k


def partition_census(n_max: int) -> list[list[int]]:
    """census[n][m]: partitions of n with m - 1 distinct part sizes.

    That is the Euler characteristic of both strata B^[n]_m and H^[n]_m
    (their torus fixed points are the monomial ideals with m generators).
    Counted by a dynamic programme over part sizes, sharing no code with
    the package.
    """
    width = mu_top(n_max) + 2
    f = [[0] * width for _ in range(n_max + 1)]
    f[0][0] = 1
    for size in range(1, n_max + 1):
        g = [row[:] for row in f]
        for s in range(n_max + 1 - size):
            for d in range(width - 1):
                if f[s][d]:
                    for t in range(s + size, n_max + 1, size):
                        g[t][d + 1] += f[s][d]
        f = g
    return [[0] + row[: width - 1] for row in f]


def reflect(poly: LaurentPoly, dim: int) -> LaurentPoly:
    """t^e -> t^(dim - e), the B^[n, n+r] form of an H^[n, n+r] sum."""
    return LaurentPoly((dim - e, c) for e, c in poly.items())


# -- requests ----------------------------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def matrix_pipeline(n: int):
    x = strata.compute_X(n)
    return x, strata.compute_B(n, x)


# -- table parsing -------------------------------------------------------------


def parse_table(text: str, fmt: str) -> tuple[list[str], dict[int, list[LaurentPoly]]]:
    """Column labels and {n: cells} of a rendered table, in any format."""
    if fmt == "json":
        obj = json.loads(text)
        cells = [[LaurentPoly.from_json(p) for p in row] for row in obj["cells"]]
        return obj["cols"], dict(zip(obj["rows"], cells))
    if fmt == "csv":
        records = [r for r in csv.reader(io.StringIO(text)) if r]
        head, body = records[0], records[1:]
    else:  # latex: one row per line between the tabular header and footer
        lines = text.strip().splitlines()
        records = [[c.strip().strip("$") for c in ln.removesuffix(r"\\\hline").split(" & ")]
                   for ln in lines[1:-1]]
        head, body = records[0], records[1:]
    rows = {int(r[0]): [LaurentPoly.from_string(c) for c in r[1:]] for r in body}
    return head[1:], rows


# -- workloads -------------------------------------------------------------------


class LargeOrder:
    """Both pipelines at large n: two closed-form CLI tables and the matrix pipeline.

    A pass is one request: a user building both tables and checking them
    against the matrix pipeline.  Timing the three calls as one request
    keeps the median latency off the boundary between two kinds of call,
    where it jumped with the host's speed.
    """

    name = "large-order"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.n = 10 if smoke else 48
        self.rng = random.Random(seed)

    def warm_up(self) -> None:
        for kind in ("bm", "hm"):
            cli_call(["table", kind, "--max-n", "10", "--format", "csv"])
        matrix_pipeline(10)

    def prepare(self) -> None:
        self.census = partition_census(self.n)

    def units(self):
        n = self.n
        cells = 2 * (n + 1) * mu_top(n)
        calls = {
            "bm": lambda: cli_call(["table", "bm", "--max-n", str(n), "--format", "csv"]),
            "hm": lambda: cli_call(["table", "hm", "--max-n", str(n), "--format", "csv"]),
            "matrix": lambda: matrix_pipeline(n),
        }
        while True:
            order = self.rng.sample(sorted(calls), len(calls))
            request = Request("pass", lambda order=order: {t: calls[t]() for t in order},
                              "pass")
            yield Unit([request], cells, self.check)

    def check(self, outputs):
        (_, out), = outputs
        if out is None:
            return 0, {0}, ["pass raised"]
        n, top, census = self.n, mu_top(self.n), self.census
        x, b = out["matrix"]
        notes, cells = [], 0
        for tag, matrix in (("bm", b), ("hm", x)):
            try:
                rc, text, _ = out[tag]
                labels, rows = parse_table(text, "csv")
            except Exception as exc:  # unparsable output is a wrong answer
                notes.append(f"{tag}: {exc!r}")
                continue
            if rc != 0 or labels != [f"m={m}" for m in range(1, top + 1)]:
                notes.append(f"{tag}: exit {rc}, columns {labels[:3]}...")
                continue
            for row in range(n + 1):
                for m in range(1, top + 1):
                    ref = matrix.get(m, row)
                    if ref.eval_at_one() != census[row][m]:
                        notes.append(f"matrix {tag} (n={row}, m={m}) != census")
                    elif rows.get(row, [])[m - 1:m] != [ref]:
                        notes.append(f"{tag} (n={row}, m={m}) != matrix pipeline")
                    else:
                        cells += 1
        return cells, {0} if notes else set(), notes


class FixedPoint:
    """Fixed-point sums against the product series, and the partition census."""

    name = "fixedpoint"
    max_r = 5

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.n_max = 8 if smoke else 20
        self.rng = random.Random(seed)

    def warm_up(self) -> None:
        diagrams.e_poly_Hnnr_fixed(6, 2)
        diagrams.e_poly_Bnnr_fixed(6, 2)
        diagrams.count_partitions_with_mu(6, 2)
        qseries.series_Hnnr(2, 6)
        strata.chi_series(2, 6)

    def prepare(self) -> None:
        self.census = partition_census(self.n_max)

    def units(self):
        n_max, top = self.n_max, mu_top(self.n_max)
        grid = [(n, r) for r in range(1, self.max_r + 1) for n in range(n_max + 1)]
        cells = 2 * len(grid) + (n_max + 1) * top
        while True:
            reqs = [Request("hnnr-fixed", lambda n=n, r=r: diagrams.e_poly_Hnnr_fixed(n, r),
                            ("H", n, r)) for n, r in grid]
            reqs += [Request("bnnr-fixed", lambda n=n, r=r: diagrams.e_poly_Bnnr_fixed(n, r),
                             ("B", n, r)) for n, r in grid]
            reqs += [Request("mu-census", lambda n=n: {
                m: diagrams.count_partitions_with_mu(n, m) for m in range(1, top + 1)},
                ("census", n)) for n in range(n_max + 1)]
            reqs += [Request("hnnr-series", lambda r=r: qseries.series_Hnnr(r, n_max),
                             ("series", r)) for r in range(1, self.max_r + 1)]
            reqs += [Request("chi-series", lambda m=m: strata.chi_series(m, n_max),
                             ("chi", m)) for m in range(1, top + 1)]
            self.rng.shuffle(reqs)
            yield Unit(reqs, cells, self.check)

    def check(self, outputs):
        by_tag = {tag: (i, out) for i, (tag, out) in enumerate(outputs)}
        bad, notes, cells = set(), [], 0

        def compare(tag, ref_tag, got, want):
            nonlocal cells
            if got == want:
                cells += 1
            else:
                bad.update((by_tag[tag][0], by_tag[ref_tag][0]))
                notes.append(f"{tag}: {got} != {want}")

        for tag, (i, out) in by_tag.items():
            kind = tag[0]
            if kind in ("H", "B"):
                _, n, r = tag
                series = by_tag[("series", r)][1]
                if out is None or series is None:
                    bad.add(i)
                    continue
                want = series.coeff(n)
                if kind == "B":
                    want = reflect(want, 2 * n - r * (r - 1))
                compare(tag, ("series", r), out, want)
            elif kind == "census":
                n = tag[1]
                for m, count in (out or {}).items():
                    chi = by_tag[("chi", m)][1]
                    if chi is None:
                        bad.add(i)
                        continue
                    if count != self.census[n][m]:
                        bad.add(i)
                        notes.append(f"census (n={n}, m={m}) = {count}, "
                                     f"expected {self.census[n][m]}")
                        continue
                    compare(tag, ("chi", m), chi.coeff(n), LaurentPoly.const(count))
        return cells, bad, notes


class CliMix:
    """Short CLI calls at n <= 20, half of them through one shared cache.

    Calls come in blocks: every table kind at every order in every format,
    once through the block's shared cache and once without, plus a few
    verify calls.  A block is a pass: runs measure whole blocks.  The seed
    shuffles each block and draws the torn entries, so every seed sees the
    same mix of work.
    """

    name = "cli-mix"
    verify_calls = 4  # per level and cache setting in each block
    tear_share = 0.05  # of cached calls, when an entry they read exists
    max_r = 6

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.lo, self.hi = (4, 8) if smoke else (8, 20)
        self.rng = random.Random(seed)
        self.workdir = workdir
        # SeriesCache screens entries at an index drawn from an unseeded
        # Random; drawing it from the seed makes runs of one seed repeat.
        probe_rng = random.Random(seed ^ 0x5EED)
        cache_module.random = _SeededRandomModule(probe_rng)

    def warm_up(self) -> None:
        cli_call(["table", "bm", "--max-n", "8", "--format", "csv",
                  "--cache-dir", os.path.join(self.workdir, "warm-up")])
        cli_call(["verify", "--level", "fast"])

    def prepare(self) -> None:
        hi = self.hi
        self.x, self.b = matrix_pipeline(hi)
        self.y0 = qseries.series_Y0(hi)
        self.hnnr = {r: qseries.series_Hnnr(r, hi) for r in range(1, self.max_r + 1)}
        self.census = partition_census(hi)

    def _block(self) -> list:
        """(argv, request kind, order, table spec or None, cached) per call."""
        calls = []
        for table in TABLE_KINDS:
            for n in range(self.lo, self.hi + 1):
                for variant, fmt in enumerate(FORMATS):
                    argv = ["table", table, "--max-n", str(n), "--format", fmt]
                    cols = 1
                    if table in ("bm", "hm", "chi"):  # all columns, or the first half
                        cols = mu_top(n) if variant < 2 else max(1, mu_top(n) // 2)
                        argv += ["--max-m", str(cols)] if variant else []
                    elif table == "hnnr":
                        cols = (4, 2, self.max_r)[variant]
                        argv += ["--max-r", str(cols)] if variant else []
                    for cached in (False, True):
                        calls.append((argv, f"table-{table}", n, (table, n, fmt, cols), cached))
        for level, order in (("fast", 8), ("full", 14)):
            for cached in (False, True):
                calls += [(["verify", "--level", level], f"verify-{level}", order,
                           None, cached)] * self.verify_calls
        self.rng.shuffle(calls)
        return calls

    def units(self):
        for block in itertools.count():
            # A fresh cache directory per block keeps the share of misses
            # the same however many blocks a run gets through.
            self.cache_dir = os.path.join(self.workdir, f"cache-{block}")
            os.makedirs(self.cache_dir)
            self.created = {}  # (request kind, order) -> cache files it wrote
            for i, (argv, kind, order, spec, cached) in enumerate(self._block()):
                listing = set()
                if cached:
                    argv = argv + ["--cache-dir", self.cache_dir]
                    self._maybe_tear(kind, order)
                    listing = set(os.listdir(self.cache_dir))
                cells = 0 if spec is None else (spec[1] + 1) * spec[3]

                def after(kind=kind, order=order, cached=cached, listing=listing):
                    if cached:
                        new = set(os.listdir(self.cache_dir)) - listing
                        self.created.setdefault((kind, order), set()).update(
                            os.path.join(self.cache_dir, f) for f in new)

                yield Unit([Request(kind, lambda argv=argv: cli_call(argv), spec)], cells,
                           self.check, after, opens_pass=i == 0)

    def _maybe_tear(self, kind, order) -> None:
        """Truncate one cache entry this call will read, now and then."""
        candidates = sorted(p for p in self.created.get((kind, order), ())
                            if os.path.exists(p))
        if candidates and self.rng.random() < self.tear_share:
            torn = self.rng.choice(candidates)
            with open(torn, "r+b") as fh:
                fh.truncate(os.path.getsize(torn) // 2)

    def _reference(self, table, n, col):
        if table == "bm":
            return self.b.get(col, n)
        if table == "hm":
            return self.x.get(col, n)
        if table == "chi":
            return LaurentPoly.const(self.census[n][col])
        if table == "y0":
            return self.y0.coeff(n)
        return self.hnnr[col].coeff(n)

    def check(self, outputs):
        (spec, out), = outputs
        if out is None:
            return 0, {0}, ["request raised"]
        rc, text, _ = out
        if spec is None:  # verify: zero cells, must pass
            if rc == 0 and "all identities hold" in text:
                return 0, set(), []
            return 0, {0}, [f"verify exit {rc}: {text[-300:]!r}"]
        table, n, fmt, cols = spec
        try:
            labels, rows = parse_table(text, fmt)
        except Exception as exc:  # unparsable output is a wrong answer
            return 0, {0}, [f"{table} {fmt}: {exc!r}"]
        prefix = {"bm": "m", "hm": "m", "chi": "m", "hnnr": "r"}.get(table)
        want = ["y0"] if table == "y0" else [f"{prefix}={c}" for c in range(1, cols + 1)]
        if rc != 0 or labels != want or sorted(rows) != list(range(n + 1)):
            return 0, {0}, [f"{table} {fmt}: exit {rc}, columns {labels}"]
        cells = 0
        for row in range(n + 1):
            for j in range(cols):
                if rows[row][j:j + 1] != [self._reference(table, row, j + 1)]:
                    return cells, {0}, [f"{table} {fmt} (n={row}, col {j + 1}) wrong"]
                cells += 1
        return cells, set(), []


class _SeededRandomModule:
    """Stands in for the ``random`` module inside ``hilbstrata.cache``."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def Random(self, *_):
        return random.Random(self._rng.getrandbits(64))


WORKLOADS = {w.name: w for w in (LargeOrder, FixedPoint, CliMix)}
