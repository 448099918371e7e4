"""Test-side rendering oracles: the term-by-term renderers that the
per-style tail memos in LaurentPoly._render and the text-writing
tables.render_json replaced, kept to pin that their output is unchanged.
"""

import json


def render(p, mul, brace):
    """A cell as LaurentPoly._render wrote it term by term: str(p) is
    render(p, "*", False) and p.latex() is render(p, " ", True)."""
    terms = dict(p.items())
    if not terms:
        return "0"
    parts: list[str] = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            if brace and (e >= 10 or e < 0):
                var = "t^{%d}" % e
            elif e == 1:
                var = "t"
            else:
                var = f"t^{e}"
            body = var if mag == 1 else f"{mag}{mul}{var}"
        parts.append(sign + body)
    return "".join(parts)


def render_json(table):
    """The JSON document as tables.render_json wrote it through json.dumps."""
    head = json.dumps({"kind": table.kind, "rows": table.rows, "cols": table.col_labels})
    body = ",\n".join(json.dumps([p.to_json() for p in row]) for row in table.cells)
    return f'{head[:-1]}, "cells": [\n{body}]}}\n'
