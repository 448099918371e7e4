"""Table assembly, rendering round trips, the series cache and the CLI."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hilbstrata import cli
from hilbstrata.cache import SeriesCache
from hilbstrata.diagrams import mu_max
from hilbstrata.laurent import LaurentPoly
from hilbstrata.qseries import series_Y0
from hilbstrata.tables import (
    FORMATS,
    TABLE_KINDS,
    Table,
    build_table,
    render,
    render_csv,
    render_json,
    render_latex,
)

from reference_data import B_TABLE, CHI_TABLE, Y0_TABLE

P = LaurentPoly.from_string


def table_from_csv(text, kind=""):
    """The Table a CSV rendering describes, its cells re-parsed."""
    header, *records = csv.reader(io.StringIO(text))
    cells = [[P(cell) for cell in rec[1:]] for rec in records]
    return Table(kind, [int(rec[0]) for rec in records], header[1:], cells)


def table_from_json(text):
    """The Table a JSON rendering describes, its cells re-parsed."""
    obj = json.loads(text)
    cells = [[LaurentPoly.from_json(p) for p in row] for row in obj["cells"]]
    return Table(obj["kind"], obj["rows"], obj["cols"], cells)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env=None):
    """Run the CLI in a subprocess that imports the package from src/."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hilbstrata", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestBuildTable:
    def test_bm_cells(self):
        table = build_table("bm", max_n=14, max_m=5)
        for (n, m), cell in B_TABLE.items():
            assert table.cells[n][m - 1] == P(cell)

    def test_chi_cells(self):
        table = build_table("chi", max_n=7, max_m=4)
        for (n, m), value in CHI_TABLE.items():
            if m <= 4:
                assert table.cells[n][m - 1] == LaurentPoly.const(value)

    def test_y0_cells(self):
        table = build_table("y0", max_n=8)
        for n, cell in enumerate(Y0_TABLE):
            assert table.cells[n][0] == P(cell)

    def test_hnnr_cells(self):
        table = build_table("hnnr", max_n=6, max_r=3)
        assert table.cells[1][0] == P("t^2+t")
        assert table.cells[1][1] == LaurentPoly.one()  # (n, r) = (1, 2)

    def test_max_m_clamped_with_warning(self, capsys):
        table = build_table("bm", max_n=4, max_m=9)
        assert table.col_labels == ["m=1", "m=2", "m=3"]
        assert "clamping" in capsys.readouterr().err

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            build_table("bm", max_n=-1)
        with pytest.raises(ValueError):
            build_table("bm", max_n=4, max_m=0)
        with pytest.raises(ValueError):
            build_table("hnnr", max_n=4, max_r=0)
        with pytest.raises(ValueError):
            build_table("nope", max_n=14)
        with pytest.raises(ValueError) as err:
            render(build_table("bm", max_n=3), "yaml")
        assert str(FORMATS) in str(err.value)


class TestRenderers:
    def test_latex_cell_style(self):
        table = build_table("bm", max_n=5, max_m=2)
        text = render_latex(table)
        assert "$t^4+2 t^3-t$" in text
        assert text.startswith(r"\begin{tabular}")

    def test_csv_round_trip(self):
        table = build_table("bm", max_n=10, max_m=4)
        back = table_from_csv(render_csv(table), "bm")
        assert back.rows == table.rows
        assert back.col_labels == table.col_labels
        assert back.cells == table.cells

    def test_json_round_trip(self):
        table = build_table("hm", max_n=8, max_m=3)
        back = table_from_json(render_json(table))
        assert back.kind == "hm"
        assert back.rows == table.rows
        assert back.cells == table.cells

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_csv_equals_csv_writer_rendering(self, kind):
        table = build_table(kind, max_n=14)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n"] + table.col_labels)
        for n, row in zip(table.rows, table.cells):
            writer.writerow([n] + [str(p) for p in row])
        assert render_csv(table) == buf.getvalue()

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_json_is_a_header_line_plus_one_line_per_row(self, kind):
        table = build_table(kind, max_n=14)
        text = render_json(table)
        payload = {
            "kind": table.kind,
            "rows": table.rows,
            "cols": table.col_labels,
            "cells": [[p.to_json() for p in row] for row in table.cells],
        }
        assert json.loads(text) == payload
        lines = text.splitlines()
        assert len(lines) == 1 + len(table.rows)
        for n, line in enumerate(lines[1:]):
            assert json.loads(line.rstrip(",").removesuffix("]}")) == payload["cells"][n]

    def test_output_is_deterministic(self):
        assert (render_csv(build_table("bm", max_n=9, max_m=3))
                == render_csv(build_table("bm", max_n=9, max_m=3)))


class TestSeriesCache:
    def test_miss_then_hit(self, tmp_path):
        calls = []

        def builder(order):
            calls.append(order)
            return series_Y0(order)

        cache = SeriesCache(tmp_path)
        first = cache.get("epoly_Y0", {}, 6, builder)
        assert calls == [6]
        again = cache.get("epoly_Y0", {}, 6, builder)
        assert again == first
        # the hit only recomputes the single validation probe
        assert len(calls) == 2 and calls[1] <= 6

    def test_corrupted_payload_recomputed(self, tmp_path, capsys):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_Y0", {}, 5, series_Y0)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text("{ not json")
        got = cache.get("epoly_Y0", {}, 5, series_Y0)
        assert got == series_Y0(5)
        assert "recomputing" in capsys.readouterr().err

    def test_stale_coefficients_detected(self, tmp_path, capsys):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_Y0", {}, 5, series_Y0)
        victim = next(tmp_path.glob("*.json"))
        payload = json.loads(victim.read_text())
        for coeff in payload["series"]["coeffs"]:
            coeff["terms"] = [[0, "77"]]
        victim.write_text(json.dumps(payload))
        got = cache.get("epoly_Y0", {}, 5, series_Y0)
        assert got == series_Y0(5)
        assert "stale coefficient" in capsys.readouterr().err

    def test_short_series_under_longer_key_recomputed(self, tmp_path, monkeypatch, capsys):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_Y0", {}, 6, series_Y0)
        victim = next(tmp_path.glob("*.json"))
        payload = json.loads(victim.read_text())
        payload["series"] = series_Y0(2).to_json()  # the key still says order 6
        victim.write_text(json.dumps(payload))
        monkeypatch.setattr(cache.rng, "randint", lambda lo, hi: 0)  # a probe the short series passes
        got = cache.get("epoly_Y0", {}, 6, series_Y0)
        assert got == series_Y0(6)
        assert "recomputing" in capsys.readouterr().err
        assert json.loads(victim.read_text())["series"]["order"] == 6

    def test_failed_write_keeps_old_entry(self, tmp_path, monkeypatch):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_Y0", {}, 5, series_Y0)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text("{ not json")  # forces a rewrite on the next get

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("hilbstrata.cache.os.replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            cache.get("epoly_Y0", {}, 5, series_Y0)
        assert victim.read_text() == "{ not json"
        assert list(tmp_path.iterdir()) == [victim]  # no temp file left behind

    def test_distinct_params_distinct_entries(self, tmp_path):
        from hilbstrata.strata import chi_series

        cache = SeriesCache(tmp_path)
        a = cache.get("chi_B_stratum", {"m": 2}, 6, lambda k: chi_series(2, k))
        b = cache.get("chi_B_stratum", {"m": 3}, 6, lambda k: chi_series(3, k))
        assert a != b
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestCli:
    def test_table_latex_reference_cell(self):
        res = run_cli("table", "bm", "--max-n", "5", "--format", "latex")
        assert res.returncode == 0
        assert "$t^4+2 t^3-t$" in res.stdout

    def test_table_chi_matches_reference(self):
        res = run_cli("table", "chi", "--max-n", "7", "--format", "csv")
        assert res.returncode == 0
        table = table_from_csv(res.stdout, "chi")
        for (n, m), value in CHI_TABLE.items():
            if f"m={m}" in table.col_labels:
                col = table.col_labels.index(f"m={m}")
                assert table.cells[n][col] == LaurentPoly.const(value)

    def test_table_y0_matches_reference(self):
        res = run_cli("table", "y0", "--max-n", "8", "--format", "csv")
        table = table_from_csv(res.stdout, "y0")
        for n, cell in enumerate(Y0_TABLE):
            assert table.cells[n][0] == P(cell)

    def test_csv_reparse_equals_fresh_computation(self):
        res = run_cli("table", "bm", "--max-n", "12", "--format", "csv")
        parsed = table_from_csv(res.stdout, "bm")
        fresh = build_table("bm", max_n=12)
        assert parsed.cells == fresh.cells

    def test_json_reparse_equals_fresh_computation(self):
        res = run_cli("table", "hnnr", "--max-n", "8", "--max-r", "3",
                      "--format", "json")
        parsed = table_from_json(res.stdout)
        fresh = build_table("hnnr", max_n=8, max_r=3)
        assert parsed.cells == fresh.cells

    def test_usage_errors_exit_2(self):
        assert run_cli("table", "nope").returncode == 2
        assert run_cli("table", "bm", "--format", "yaml").returncode == 2
        assert run_cli("frobnicate").returncode == 2
        for args, message in (
            (("bm", "--max-n", "-3"), "max_n must be >= 0"),
            (("bm", "--max-m", "0"), "max_m must be >= 1"),
            (("hnnr", "--max-r", "0"), "max_r must be >= 1"),
        ):
            res = run_cli("table", *args)
            assert res.returncode == 2, args
            assert res.stderr.endswith(f"hilbstrata: error: {message}\n"), args
            assert not res.stdout

    @pytest.mark.parametrize("kind", ["y0", "hnnr"])
    def test_max_m_rejected_for_kinds_without_m_columns(self, kind):
        message = f"max_m applies only to the m-column kinds (bm, hm, chi), not {kind}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_table(kind, max_n=4, max_m=2)
        res = run_cli("table", kind, "--max-n", "4", "--max-m", "2")
        assert res.returncode == 2
        assert res.stderr.endswith(f"hilbstrata: error: {message}\n")
        assert not res.stdout

    @pytest.mark.parametrize("kind", ["bm", "hm", "chi", "y0"])
    def test_max_r_rejected_for_kinds_without_r_columns(self, kind):
        message = f"max_r applies only to the r-column kinds (hnnr), not {kind}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_table(kind, max_n=3, max_r=7)
        res = run_cli("table", kind, "--max-n", "3", "--max-r", "7")
        assert res.returncode == 2
        assert res.stderr.endswith(f"hilbstrata: error: {message}\n")
        assert not res.stdout

    def test_max_r_defaults_to_four_on_hnnr(self):
        assert build_table("hnnr", max_n=6).col_labels == ["r=1", "r=2", "r=3", "r=4"]
        res = run_cli("table", "hnnr", "--max-n", "6", "--max-r", "2", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "n,r=1,r=2"

    def test_verify_fast_passes_within_budget(self):
        import time

        start = time.perf_counter()
        res = run_cli("verify", "--level", "fast")
        elapsed = time.perf_counter() - start
        assert res.returncode == 0
        assert "all identities hold" in res.stdout
        assert elapsed < 10

    def test_verify_full_passes(self):
        res = run_cli("verify", "--level", "full")
        assert res.returncode == 0
        assert "all identities hold" in res.stdout

    def test_verify_full_fixed_point_cells(self, capsys):
        from hilbstrata.cli import main

        assert main(["verify", "--level", "full"]) == 0
        # r <= 4 and C(r, 2) <= n <= 14: no cell that is 0 == 0 by construction
        assert "[ok  ] fixed-point sums == product series (50 cells)" in capsys.readouterr().out

    def test_verify_full_census_column_sum_cells(self, capsys):
        from hilbstrata.cli import main

        assert main(["verify", "--level", "full"]) == 0
        line = "[ok  ] sum_m B[m][n], sum_m X[m][n] == partition census (30 cells)"
        assert line in capsys.readouterr().out  # B and X, n <= 14

    def test_verify_rejects_max_r(self):
        # verify sizes its fixed-point check from the order; --max-r is a
        # table option (hnnr columns) only
        for value in ("4", "0", "-3"):
            res = run_cli("verify", "--max-r", value)
            assert res.returncode == 2, value
            assert "unrecognized arguments: --max-r" in res.stderr
            assert res.stdout == ""

    def test_verify_rejects_level_with_max_n(self, capsys):
        # a level is an order preset, so the two options cannot both be given;
        # in process too, where argv strings may be the very default objects
        from hilbstrata.cli import main

        for argv in (["--level", "full", "--max-n", "20"], ["--max-n", "20", "--level", "fast"]):
            res = run_cli("verify", *argv)
            assert res.returncode == 2, argv
            assert "not allowed with argument" in res.stderr
            assert res.stdout == ""
            with pytest.raises(SystemExit) as exc:
                main(["verify", *argv])
            assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""

    def test_verify_tiny_order(self):
        res = run_cli("verify", "--max-n", "0")
        assert res.returncode == 0

    def test_cache_dir_used_and_repaired(self, tmp_path):
        cache_dir = tmp_path / "cache"
        res = run_cli("table", "y0", "--max-n", "6", "--format", "csv",
                      "--cache-dir", str(cache_dir))
        assert res.returncode == 0
        files = list(cache_dir.glob("*.json"))
        assert files
        files[0].write_text("garbage")
        res2 = run_cli("table", "y0", "--max-n", "6", "--format", "csv",
                       "--cache-dir", str(cache_dir))
        assert res2.returncode == 0
        assert "recomputing" in res2.stderr
        assert res2.stdout == res.stdout

    def test_verify_with_corrupted_cache_warns_and_passes(self, tmp_path):
        import os

        cache_dir = tmp_path / "cache"
        env = dict(os.environ, HILBSTRATA_CACHE_DIR=str(cache_dir))
        res = run_cli("verify", "--max-n", "4", env=env)
        assert res.returncode == 0
        victim = next(cache_dir.glob("*.json"))
        victim.write_text("{ broken")
        res2 = run_cli("verify", "--max-n", "4", env=env)
        assert res2.returncode == 0
        assert "recomputing" in res2.stderr

    def test_verify_screens_every_cached_table_kind(self, tmp_path, capsys):
        from hilbstrata.cli import main
        from hilbstrata.tables import TABLE_KINDS

        cache = SeriesCache(tmp_path)
        for kind in TABLE_KINDS:
            build_table(kind, max_n=6, cache=cache)
        files = sorted(tmp_path.glob("*.json"))
        assert any(f.name.startswith("epoly_H_stratum") for f in files)
        assert any(f.name.startswith("chi_B_stratum") for f in files)
        for f in files:
            f.write_text("garbage")
        assert main(["verify", "--max-n", "6", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err.count("recomputing") == len(files)
        for f in files:
            json.loads(f.read_text())  # every torn entry was rewritten


class TestInProcessCli:
    """cli.main parses with one parser built at import; nothing of one call
    carries over to the next."""

    def test_parser_is_not_rebuilt_per_call(self, monkeypatch, capsys):
        def rebuilt():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "_build_parser", rebuilt)
        assert cli.main(["table", "y0", "--max-n", "3", "--format", "csv"]) == 0
        assert cli.main(["table", "bm", "--max-n", "3", "--format", "csv"]) == 0
        assert "\nn,m=1,m=2,m=3\n" in capsys.readouterr().out

    def test_cache_dir_env_read_per_call(self, tmp_path, monkeypatch, capsys):
        # set after hilbstrata.cli was imported, then unset again
        env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
        argv = ["table", "y0", "--max-n", "4", "--format", "csv"]
        monkeypatch.setenv("HILBSTRATA_CACHE_DIR", str(env_dir))
        assert cli.main(argv) == 0
        assert list(env_dir.glob("*.json"))
        for f in env_dir.glob("*.json"):
            f.unlink()
        assert cli.main(argv + ["--cache-dir", str(flag_dir)]) == 0  # the flag wins
        assert list(flag_dir.glob("*.json")) and not list(env_dir.glob("*.json"))
        monkeypatch.delenv("HILBSTRATA_CACHE_DIR")
        for f in flag_dir.glob("*.json"):
            f.unlink()
        assert cli.main(argv) == 0
        assert not list(tmp_path.glob("*/*.json"))

    def test_successive_calls_share_no_options(self, capsys):
        assert cli.main(["table", "bm", "--max-n", "6", "--max-m", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "n,m=1,m=2"
        assert cli.main(["table", "bm", "--max-n", "6"]) == 0  # latex, every m column
        labels = " & ".join(f"$m={m}$" for m in range(1, mu_max(6) + 1))
        assert capsys.readouterr().out.splitlines()[1] == f"$n$ & {labels} " + r"\\\hline"
