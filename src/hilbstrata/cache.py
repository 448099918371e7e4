"""Optional on-disk cache for computed q-series.

Entries are JSON files keyed by (series name, parameters, order).  A
loaded entry must hold a series of its key's order, and one randomly
chosen coefficient is recomputed from scratch; anything unreadable,
mismatched, short or stale is recomputed and rewritten with a warning
on stderr.  Exact integer data makes the comparison bit-exact.  Writes
go through a temp file and os.replace, so concurrent runs never read a
half-written entry.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
from pathlib import Path
from typing import Callable

from .qseries import QSeries


class SeriesCache:
    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random()

    def _path(self, name: str, params: dict, order: int) -> Path:
        tag = "_".join(f"{k}{params[k]}" for k in sorted(params))
        stem = f"{name}_{tag}_N{order}" if tag else f"{name}_N{order}"
        return self.directory / f"{stem}.json"

    def get(
        self,
        name: str,
        params: dict,
        order: int,
        builder: Callable[[int], QSeries],
    ) -> QSeries:
        """Load a cached series or build and store it.

        builder(k) must return the same series truncated at order k; the
        cached entry is validated against builder at one random index.
        """
        path = self._path(name, params, order)
        if path.exists():
            series = self._load(path, name, params, order, builder)
            if series is not None:
                return series
        series = builder(order)
        payload = {"name": name, "params": params, "order": order,
                   "series": series.to_json()}
        self._write(path, json.dumps(payload))
        return series

    def _write(self, path: Path, text: str) -> None:
        """Write through a temp file in the same directory and os.replace it,
        so a reader sees the old entry or the new one, never a torn one."""
        # named per process and thread, so concurrent writers never share
        # a temp file; created with the usual permissions, like the entry
        tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _load(self, path, name, params, order, builder) -> QSeries | None:
        try:
            payload = json.loads(path.read_text())
            if (payload["name"], payload["params"], payload["order"]) != (
                name, params, order,
            ):
                raise ValueError("cache key mismatch")
            series = QSeries.from_json(payload["series"])
            if series.order != order:
                raise ValueError(f"series of order {series.order} under key order {order}")
            probe = self.rng.randint(0, order)
            if series.coeff(probe) != builder(probe).coeff(probe):
                raise ValueError(f"stale coefficient at q^{probe}")
        except Exception as exc:  # any unreadable entry is just recomputed
            print(
                f"warning: cache entry {path.name} invalid ({exc}); recomputing",
                file=sys.stderr,
            )
            return None
        return series
