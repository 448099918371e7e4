"""Assembly and rendering of the package's tables.

build_table(kind, max_n, max_m, max_r, cache) reads the series that
SERIES names for a kind, one per column, and returns a Table: a
rectangular block of LaurentPoly cells with a row per n = 0..max_n and
labelled columns.  Five kinds are built:

  bm    E(B^[n]_m), columns m = 1..max_m
  hm    E(H^[n]_m), columns m = 1..max_m
  chi   Euler characteristics chi(B^[n]_m)
  y0    E(Y0^[n]), one column
  hnnr  E(H^[n, n+r]), columns r = 1..max_r

render(table, fmt) emits one of FORMATS: LaTeX (publication-style cells
such as "t^4+2 t^3-t"), CSV (canonical cells such as "t^4+2*t^3-t") or
JSON (exact term lists, each row written as text in json.dumps's default
layout).  CSV and JSON cells re-parse to the same polynomials, through
LaurentPoly.from_string and LaurentPoly.from_json.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import qseries, strata
from .cache import SeriesCache
from .diagrams import mu_max
from .laurent import LaurentPoly
from .qseries import QSeries

# Table kind -> (cache name, column parameter or None, builder(param, order)).
# The builders look the series functions up on their modules at call time,
# so a function patched there (by a tracer or a test) is the one that runs.
SERIES: dict[str, tuple[str, str | None, Callable[[int | None, int], QSeries]]] = {
    "bm": ("epoly_B_stratum", "m", lambda m, k: strata.closed_form_B(m, k)),
    "hm": ("epoly_H_stratum", "m", lambda m, k: strata.closed_form_X(m, k)),
    "chi": ("chi_B_stratum", "m", lambda m, k: strata.chi_series(m, k)),
    "y0": ("epoly_Y0", None, lambda _, k: qseries.series_Y0(k)),
    "hnnr": ("epoly_nested", "r", lambda r, k: qseries.series_Hnnr(r, k)),
}
TABLE_KINDS = tuple(SERIES)
FORMATS = ("json", "csv", "latex")


@dataclass
class Table:
    kind: str
    rows: list[int]
    col_labels: list[str]
    cells: list[list[LaurentPoly]]  # cells[row][col]


def check_bounds(kind: str, max_n: int, max_m: int | None, max_r: int | None) -> None:
    """Raise ValueError naming the first table bound out of range or not
    applying to the kind."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    for name, bound, param in (("max_m", max_m, "m"), ("max_r", max_r, "r")):
        if bound is None:
            continue
        if bound < 1:
            raise ValueError(f"{name} must be >= 1")
        if SERIES[kind][1] != param:
            kinds = ", ".join(k for k, (_, p, _) in SERIES.items() if p == param)
            raise ValueError(
                f"{name} applies only to the {param}-column kinds ({kinds}), not {kind}")


def build_table(
    kind: str,
    max_n: int,
    max_m: int | None = None,
    max_r: int | None = None,
    cache: SeriesCache | None = None,
) -> Table:
    """The table of one kind, rows n = 0..max_n.

    The m-columns run to max_m, which defaults to mu_max(max_n) and is
    clamped there with a warning on stderr, since rows above it are
    identically zero; other kinds take no max_m.  The r-columns of hnnr
    run to max_r, 4 by default; other kinds take no max_r.  With a
    cache, all columns are read through one entry, keyed by the column
    bound (max_m or max_r), which the cache screens and repairs.
    """
    if kind not in SERIES:
        raise ValueError(f"unknown table kind {kind!r}")
    check_bounds(kind, max_n, max_m, max_r)
    name, param, fn = SERIES[kind]
    count = max_r or 4
    if param == "m":
        bound = mu_max(max_n)
        if max_m is not None and max_m > bound:
            print(
                f"warning: max_m={max_m} exceeds mu_max({max_n})={bound}; "
                f"rows above the bound are identically zero, clamping",
                file=sys.stderr,
            )
        count = min(max_m or bound, bound)
    cols = [None] if param is None else range(1, count + 1)

    def build(order: int) -> list[QSeries]:
        return [fn(c, order) for c in cols]

    params = {} if param is None else {f"max_{param}": count}
    series = build(max_n) if cache is None else cache.get(name, params, max_n, build)
    rows = list(range(max_n + 1))
    cells = [[col.coeff(n) for col in series] for n in rows]
    labels = [kind] if param is None else [f"{param}={c}" for c in cols]
    return Table(kind, rows, labels, cells)


# -- renderers -----------------------------------------------------------


def render_latex(table: Table) -> str:
    cols = "|c|" + "c|" * len(table.col_labels)
    lines = [r"\begin{tabular}{%s}\hline" % cols]
    header = " & ".join(["$n$"] + [f"${lbl}$" for lbl in table.col_labels])
    lines.append(header + r" \\\hline")
    for n, row in zip(table.rows, table.cells):
        body = " & ".join([str(n)] + [f"${p.latex()}$" for p in row])
        lines.append(body + r" \\\hline")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def render_csv(table: Table) -> str:
    # No field can hold a comma, a quote or a newline (n, the column labels,
    # canonical cells), so no field needs CSV quoting.
    lines = [",".join(["n", *table.col_labels])]
    lines += [",".join([str(n), *map(str, row)]) for n, row in zip(table.rows, table.cells)]
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    """One JSON document: kind, rows and cols on the first line, then one
    line per table row of cells, written as json.dumps writes [p.to_json() for p in row]."""
    head = json.dumps({"kind": table.kind, "rows": table.rows, "cols": table.col_labels})
    body = ",\n".join("[%s]" % ", ".join(map(_json_cell, row)) for row in table.cells)
    return f'{head[:-1]}, "cells": [\n{body}]}}\n'


def _json_cell(p: LaurentPoly) -> str:
    return '{"terms": [%s]}' % ", ".join([f'[{e}, "{c}"]' for e, c in p.items()])


def render(table: Table, fmt: str) -> str:
    """The table in one of FORMATS."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    return {"latex": render_latex, "csv": render_csv, "json": render_json}[fmt](table)
