"""Command-line front end.

  hilbstrata table {bm,hm,chi,y0,hnnr} [--max-n N] [--max-m M] [--max-r R]
                   [--format {latex,csv,json}] [--cache-dir DIR]
  hilbstrata verify [--level {fast,full} | --max-n N] [--cache-dir DIR]

Exit codes: 0 success, 1 verification mismatch, 2 usage error (a cache
directory that cannot be created or written among them).  The cache
directory defaults to $HILBSTRATA_CACHE_DIR, read on each call of main,
when set.  The parser is built once, at import, and every call of main
parses with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import strata
from .cache import SeriesCache
from .tables import FORMATS, TABLE_KINDS, build_table, check_bounds, render


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbstrata",
        description="E-polynomial tables of generator-count strata of "
        "punctual Hilbert schemes of the plane, with full cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="compute and print one of the tables")
    t.add_argument("kind", choices=TABLE_KINDS)
    t.add_argument("--max-n", type=int, default=14, help="largest point count n")
    t.add_argument("--max-m", type=int, default=None,
                   help="largest m column of bm, hm, chi (default mu_max(max_n))")
    t.add_argument("--max-r", type=int, default=None,
                   help="largest nesting r of hnnr (default 4)")
    t.add_argument("--format", dest="fmt", choices=FORMATS, default="latex")
    t.add_argument("--cache-dir")

    v = sub.add_parser("verify", help="run the identity/cross-check suite")
    size = v.add_mutually_exclusive_group()
    # no default: argparse sees a clash only with a value that is not the default
    size.add_argument("--level", choices=("fast", "full"),
                      help="order 8 (fast, the default) or 14 (full)")
    size.add_argument("--max-n", type=int, default=None, help="the order instead of a level")
    v.add_argument("--cache-dir")
    return parser


_PARSER = _build_parser()


def _cache_error(directory, exc: OSError, parser):
    parser.error(f"cannot use the cache directory {directory}: {exc.strerror or exc}")


def _open_cache(directory, parser) -> SeriesCache | None:
    try:
        return SeriesCache(directory) if directory else None
    except OSError as exc:
        _cache_error(directory, exc, parser)


def cmd_table(args, parser) -> int:
    try:  # only the bounds: a ValueError from the build is not a usage error
        check_bounds(args.kind, args.max_n, args.max_m, args.max_r)
    except ValueError as exc:
        parser.error(str(exc))
    cache = _open_cache(args.cache_dir, parser)
    try:  # a cached build writes its entry; a failed write is a usage error
        table = build_table(args.kind, args.max_n, args.max_m, args.max_r, cache)
    except OSError as exc:
        if cache is None:
            raise
        _cache_error(args.cache_dir, exc, parser)
    sys.stdout.write(render(table, args.fmt))
    return 0


def cmd_verify(args, parser) -> int:
    order = (14 if args.level == "full" else 8) if args.max_n is None else args.max_n
    if order < 0:
        parser.error("--max-n must be >= 0")
    cache = _open_cache(args.cache_dir, parser)
    if cache is not None:
        # screen the cached entry of every default table at this order;
        # the cache logs its own repairs
        try:
            for kind in TABLE_KINDS:
                build_table(kind, order, cache=cache)
        except OSError as exc:
            _cache_error(args.cache_dir, exc, parser)
    report = strata.verify_all(order)
    if report.passed:
        print(report)
        return 0
    print(json.dumps(report.to_json(), indent=1))
    return 1


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    args.cache_dir = args.cache_dir or os.environ.get("HILBSTRATA_CACHE_DIR")
    if args.command == "table":
        return cmd_table(args, _PARSER)
    return cmd_verify(args, _PARSER)


if __name__ == "__main__":
    sys.exit(main())
