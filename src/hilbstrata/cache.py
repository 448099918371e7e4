"""Optional on-disk cache for the columns of computed tables.

One JSON entry holds every column of a table call, keyed by (series
name, column bound max_m or max_r, order): older per-column files are
never read, and an old boundless y0 entry fails screening once.  Each
q^n coefficient is an int row, its low t-exponent and then its
coefficients.  An entry must match its key and hold ints only, the
builder's column count and the key's order in each column, and every
column must agree with its rebuild at one random index per entry; else
it is rebuilt and rewritten with a warning on stderr.  Writes go through
a temp file and os.replace, so no reader sees a half-written entry.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
from itertools import chain, compress, count, repeat
from typing import Callable

from .laurent import ZERO, LaurentPoly, _raw
from .qseries import QSeries


def encode_row(p: LaurentPoly) -> list[int]:
    """[low exponent, coefficient, ..., top coefficient], or [] for zero."""
    terms, low = p._terms, min(p._terms, default=0)
    return [low, *map(terms.get, range(low, max(terms) + 1), repeat(0))] if terms else []


def decode_row(row: list[int]) -> LaurentPoly:
    """The polynomial encode_row wrote, its zero coefficients dropped."""
    coeffs = row[1:]
    return _raw(dict(compress(zip(count(row[0]), coeffs), coeffs))) if row else ZERO


class SeriesCache:
    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.rng = random.Random()

    def _path(self, name: str, params: dict, order: int) -> str:
        tag = "_".join(f"{k}{params[k]}" for k in sorted(params))
        stem = f"{name}_{tag}_N{order}" if tag else f"{name}_N{order}"
        return os.path.join(self.directory, f"{stem}.json")

    def get(self, name: str, params: dict, order: int,
            builder: Callable[[int], list[QSeries]]) -> list[QSeries]:
        """Load cached columns or build and store them; builder(k) must return
        the same columns truncated at order k, one random k screens an entry."""
        path = self._path(name, params, order)
        columns = self._load(path, name, params, order, builder)
        if columns is None:
            columns = builder(order)
            rows = [list(map(encode_row, col.coeffs)) for col in columns]
            payload = {"name": name, "params": params, "order": order, "columns": rows}
            # the temp file is named per process and thread, so concurrent
            # writers never share one; readers see the old entry or the new
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}-{threading.get_ident()}.tmp")
            try:
                with open(tmp, "w") as fh:
                    fh.write(json.dumps(payload, separators=(",", ":")))
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return columns

    def _load(self, path, name, params, order, builder) -> list[QSeries] | None:
        try:
            with open(path, "rb") as fh:  # int() raises on every JSON float literal
                payload = json.loads(fh.read(), parse_float=int)
            if (payload["name"], payload["params"], payload["order"]) != (name, params, order):
                raise ValueError("cache key mismatch")
            rows = payload["columns"]
            if not set(map(type, chain.from_iterable(chain.from_iterable(rows)))) <= {int}:
                raise ValueError("non-integer cell")
            columns = [QSeries(list(map(decode_row, col))) for col in rows]
            if any(col.order != order for col in columns):
                raise ValueError(f"a column of an order other than the key's {order}")
            probe = self.rng.randint(0, order)
            fresh = builder(probe)
            if len(fresh) != len(columns):
                raise ValueError(f"{len(columns)} columns, not {len(fresh)}")
            for j, (col, new) in enumerate(zip(columns, fresh), 1):
                if col.coeff(probe) != new.coeff(probe):
                    raise ValueError(f"stale coefficient at q^{probe} in column {j}")
        except FileNotFoundError:  # a miss
            return None
        except Exception as exc:  # any unreadable entry is just recomputed
            print(f"warning: cache entry {os.path.basename(path)} invalid ({exc}); recomputing",
                  file=sys.stderr)
            return None
        return columns
