"""Table assembly, rendering round trips, the series cache and the CLI."""

import csv
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hilbstrata import cli
from hilbstrata.cache import SeriesCache, encode_row
from hilbstrata.diagrams import mu_max
from hilbstrata.laurent import LaurentPoly
from hilbstrata.qseries import series_Y0
from hilbstrata.strata import closed_form_B
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

import render_oracle
from reference_data import B_TABLE, CHI_TABLE, Y0_TABLE

P = LaurentPoly.from_string


def table_from_csv(text, kind=""):
    """The Table a CSV rendering describes, its cells re-parsed."""
    header, *records = csv.reader(io.StringIO(text))
    cells = [[P(cell) for cell in rec[1:]] for rec in records]
    return Table(kind, [int(rec[0]) for rec in records], header[1:], cells)


def table_from_latex(text, kind=""):
    """The Table a LaTeX rendering describes, its cells re-parsed: one row
    per line between the tabular header and footer, "$"s stripped."""
    header, *records = [[c.strip().strip("$") for c in ln.removesuffix(r"\\\hline").split(" & ")]
                        for ln in text.strip().splitlines()[1:-1]]
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

    @pytest.mark.parametrize("n", [0, 1, 14])
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_json_text_equals_json_dumps_of_to_json(self, kind, n):
        table = build_table(kind, max_n=n)
        assert render_json(table) == render_oracle.render_json(table)

    @pytest.mark.parametrize("n", [0, 14, 48])
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    @pytest.mark.parametrize("fmt, parse", [("csv", table_from_csv), ("latex", table_from_latex)],
                             ids=["csv", "latex"])
    def test_every_text_cell_re_parses(self, fmt, parse, kind, n):
        table = build_table(kind, max_n=n)
        back = parse(render(table, fmt), kind)
        assert (back.rows, back.col_labels) == (table.rows, table.col_labels)
        assert back.cells == table.cells

    @pytest.mark.parametrize("n", [0, 14, 48])
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_rendered_tables_match_pinned_digests(self, kind, n):
        table = build_table(kind, max_n=n)
        got = {fmt: hashlib.sha256(render(table, fmt).encode()).hexdigest() for fmt in FORMATS}
        assert got == {fmt: RENDER_DIGESTS[kind, n, fmt] for fmt in FORMATS}


# (kind, max_n, format) -> SHA-256 of render(build_table(kind, max_n), format),
# pinned from the term-by-term renderers (render_oracle) before the per-style
# tail memos and the text-written JSON rows replaced them
RENDER_DIGESTS = {
    ("bm", 0, "json"): "2325380df40b33088b75c7172a58dd3d70c017af1efff23b395bcd218b1a1bd6",
    ("bm", 0, "csv"): "0a5db4ab54e6d669710abbf43b4bc5120783ace46669408c5f83afa9d8d945ec",
    ("bm", 0, "latex"): "1d7ccbadabfd7a1c13fe15ad0d4c16d6a04a1b047061138b9de23b3530e31327",
    ("hm", 0, "json"): "f7660b6b27af4ce442a01961ebe7c3be58a69e97db303d57cfdebcf086461a08",
    ("hm", 0, "csv"): "0a5db4ab54e6d669710abbf43b4bc5120783ace46669408c5f83afa9d8d945ec",
    ("hm", 0, "latex"): "1d7ccbadabfd7a1c13fe15ad0d4c16d6a04a1b047061138b9de23b3530e31327",
    ("chi", 0, "json"): "55a10d2081b2b201e95e6f7d913cf0118da31afc6ebd1b8af7e05ed806aca88f",
    ("chi", 0, "csv"): "0a5db4ab54e6d669710abbf43b4bc5120783ace46669408c5f83afa9d8d945ec",
    ("chi", 0, "latex"): "1d7ccbadabfd7a1c13fe15ad0d4c16d6a04a1b047061138b9de23b3530e31327",
    ("y0", 0, "json"): "10ab10975ec69c3b5e5896896cc6f2a0a0441eba04d3dd969772ef499dfc22ef",
    ("y0", 0, "csv"): "36be53ba0b90aa021e673a8aa3df95bc433a464695ea78a99d1fd31911fd4609",
    ("y0", 0, "latex"): "7b927cc52c4c060d3b474b41e452aeeac800d67215f96616c08ccf2dd248eae5",
    ("hnnr", 0, "json"): "ef4629c3922c95d6df6237d8f28205cf4c20a6b6948f0c1d8b4cd60c876fa0ce",
    ("hnnr", 0, "csv"): "24df5cb3e2bcc00195d0eab16deb876eb3cc61d26f03c649510e89c7f8407c65",
    ("hnnr", 0, "latex"): "d618395457801800afc15cf8d80b4f21bdbcbf0d5837f66f0fd3012bf6ac9e72",
    ("bm", 14, "json"): "234216d1df53756606edd0b68adccfbe41a3a958e47fed7b71c4066ce6d3cf28",
    ("bm", 14, "csv"): "dbad54bb15a271d9c77947c471acf4fb32c1fb283bf210cc44e3878eacdbc82d",
    ("bm", 14, "latex"): "208e7097b09fe18575666d067c82546d03b5317bfe1179e0f5ee0ea6f2994c4c",
    ("hm", 14, "json"): "899569d68f2bbe560798bc2eb0703a278f4c17219c481236cf03d728cd5bc29b",
    ("hm", 14, "csv"): "b2d39351c7ba37ffd9f704095deb65fa51c1ee839dfd2ed337e69e28ab35ac73",
    ("hm", 14, "latex"): "2bb83adeb76602f5690952b8cc138a9937358fbbe7c7d49d7c5ff9705ce07b98",
    ("chi", 14, "json"): "49bc156c20ef47fbff3a06e68ef8983f0237ae462cbaf9b4516ca80950f817a5",
    ("chi", 14, "csv"): "eb42724894cdad64ead4bfe371be52ad7185fb94dd6be6deb9880916b26f7b48",
    ("chi", 14, "latex"): "c2cef9bc21d5836d3c3cad41637b0477ff05cf52053e382c94394f0fc9ee1e67",
    ("y0", 14, "json"): "b2b6a3a3fb55ef8578e62ed371fb416e20d45d61fe7c06835363351fd5d08490",
    ("y0", 14, "csv"): "a535ae52f913a8bd635ae5858af57819cf5167210bda8faea80068fd8e311d47",
    ("y0", 14, "latex"): "21e6fa820e422f34e012f32a52bb582202ca1e9abf985061eef5d7fec9721b72",
    ("hnnr", 14, "json"): "6bbfaff9d9b2775f5be814487627ad66481f491afccc99538cdc1de5192e2055",
    ("hnnr", 14, "csv"): "bb59a2255f01084ff95051da8dd798817eab9280c6804a22ac3668dd1287849b",
    ("hnnr", 14, "latex"): "bef3f9e70ca1e56a9a6e2dfde2fe0389609afb8dbfcea7ea012e39987b7bed2a",
    ("bm", 48, "json"): "0e63a86320ef593b01b0057f7be6456518880fe1971c2a803686f07baf6df63a",
    ("bm", 48, "csv"): "d3ba959f8f18155e46322459ca93409976f7a02720d1b69d2265a9b4e5625a3d",
    ("bm", 48, "latex"): "224d2a776d7169fa331af2fd1f389d86cb643ed1591fc7059eccf99b716ec952",
    ("hm", 48, "json"): "b6e2bd5d67d0f1950b8a46a2902290429a787ea1a10f11a84adb565cd22d8e53",
    ("hm", 48, "csv"): "5c3d7a35d33c121c848a83b08e75e32b112e138bb7bbb65d752d117caff696c1",
    ("hm", 48, "latex"): "2f9bc7190ff2834e5a06546f9ca377949044b44991b4d33dff6e50d4818b20e9",
    ("chi", 48, "json"): "6446d5b78c7fb0abf8270f724ea85bd26965ac27fd29e7ca18178298c802a244",
    ("chi", 48, "csv"): "3c42b8e565db73234644439dd6da394037c082cd8ccb9115a72d95f1189b5634",
    ("chi", 48, "latex"): "1f056d178fa643406bf7cac26a52457bf189f1c24a77d022199dabfd4da3e065",
    ("y0", 48, "json"): "75aa4d7f37d5fb6ecb503cb74738407cb477a591ef0cd49ba1c0dfc7e0122511",
    ("y0", 48, "csv"): "0243780d413dc974ddb69945c140561b85787ecf2891cb953f70111923801db6",
    ("y0", 48, "latex"): "78db800f00d0b588d686f3fb486af6783a0afdc679fa543dc32a28704f5bfe5a",
    ("hnnr", 48, "json"): "13245f34a17c7e485133cd81c2f70bd2bc5b1a17b885ad2bf669a8baba57278b",
    ("hnnr", 48, "csv"): "c5968c442c658b8dbf2a9c9142254f0614f586f3dad916fc3a0843cd5185aeb6",
    ("hnnr", 48, "latex"): "3227a6cec5d1cff0cf662936825b707827ae6132c0f8405943e6905cc7a7ff80",
}


def y0_columns(order):
    return [series_Y0(order)]


def bm_columns(order, count=4):
    return [closed_form_B(m, order) for m in range(1, count + 1)]


def entry_of(directory):
    """The path and payload of the only entry in a cache directory."""
    victim, = Path(directory).glob("*.json")
    return victim, json.loads(victim.read_text())


class TestSeriesCache:
    def test_miss_then_hit(self, tmp_path):
        calls = []

        def builder(order):
            calls.append(order)
            return bm_columns(order)

        cache = SeriesCache(tmp_path)
        first = cache.get("epoly_B_stratum", {"max_m": 4}, 9, builder)
        assert calls == [9] and first == bm_columns(9)
        again = cache.get("epoly_B_stratum", {"max_m": 4}, 9, builder)
        assert again == first
        # the hit recomputes every column once, at the single validation probe
        assert len(calls) == 2 and calls[1] <= 9

    def test_corrupted_payload_recomputed(self, tmp_path, capsys):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_Y0", {}, 5, y0_columns)
        victim, _ = entry_of(tmp_path)
        victim.write_text("{ not json")
        got = cache.get("epoly_Y0", {}, 5, y0_columns)
        assert got == y0_columns(5)
        assert "recomputing" in capsys.readouterr().err
        assert entry_of(tmp_path)[1]["columns"] == [[encode_row(c) for c in series_Y0(5).coeffs]]

    def test_stale_coefficients_detected(self, tmp_path, capsys):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_Y0", {}, 5, y0_columns)
        victim, payload = entry_of(tmp_path)
        payload["columns"] = [[[0, 77]] * 6]
        victim.write_text(json.dumps(payload))
        got = cache.get("epoly_Y0", {}, 5, y0_columns)
        assert got == y0_columns(5)
        assert "stale coefficient" in capsys.readouterr().err

    def test_short_series_under_longer_key_recomputed(self, tmp_path, monkeypatch, capsys):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_B_stratum", {"max_m": 4}, 6, bm_columns)
        victim, payload = entry_of(tmp_path)
        payload["columns"][1] = payload["columns"][1][:3]  # the key still says order 6
        victim.write_text(json.dumps(payload))
        monkeypatch.setattr(cache.rng, "randint", lambda lo, hi: 0)  # an index it still holds
        got = cache.get("epoly_B_stratum", {"max_m": 4}, 6, bm_columns)
        assert got == bm_columns(6)
        assert "recomputing" in capsys.readouterr().err
        assert [len(col) for col in entry_of(tmp_path)[1]["columns"]] == [7] * 4

    def test_failed_write_keeps_old_entry(self, tmp_path, monkeypatch):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_Y0", {}, 5, y0_columns)
        victim, _ = entry_of(tmp_path)
        victim.write_text("{ not json")  # forces a rewrite on the next get

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("hilbstrata.cache.os.replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            cache.get("epoly_Y0", {}, 5, y0_columns)
        assert victim.read_text() == "{ not json"
        assert list(tmp_path.iterdir()) == [victim]  # no temp file left behind

    def test_distinct_params_distinct_entries(self, tmp_path):
        from hilbstrata.strata import chi_series

        def columns(count):
            return lambda k: [chi_series(m, k) for m in range(1, count + 1)]

        cache = SeriesCache(tmp_path)
        a = cache.get("chi_B_stratum", {"max_m": 2}, 6, columns(2))
        b = cache.get("chi_B_stratum", {"max_m": 3}, 6, columns(3))
        assert a == b[:2] and len(b) == 3
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_one_stale_column_caught_at_the_shared_probe(self, tmp_path, monkeypatch, capsys):
        calls = []

        def builder(order):
            calls.append(order)
            return bm_columns(order)

        cache = SeriesCache(tmp_path)
        cache.get("epoly_B_stratum", {"max_m": 4}, 9, builder)
        victim, payload = entry_of(tmp_path)
        payload["columns"][2][7] = encode_row(closed_form_B(3, 9).coeff(7) + 1)
        victim.write_text(json.dumps(payload))
        monkeypatch.setattr(cache.rng, "randint", lambda lo, hi: 6)
        got = cache.get("epoly_B_stratum", {"max_m": 4}, 9, builder)
        assert got[2].coeff(7) == closed_form_B(3, 9).coeff(7) + 1  # not probed at index 6
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(cache.rng, "randint", lambda lo, hi: 7)
        assert cache.get("epoly_B_stratum", {"max_m": 4}, 9, builder) == bm_columns(9)
        assert "stale coefficient at q^7 in column 3" in capsys.readouterr().err
        # one probe per entry, all four columns rebuilt at its index; then the rebuild
        assert calls == [9, 6, 7, 9]
        assert entry_of(tmp_path)[1]["columns"][2][7] == encode_row(closed_form_B(3, 9).coeff(7))

    def test_stale_coefficient_below_the_probe_caught(self, tmp_path, monkeypatch, capsys):
        # the rebuild at probe 9 holds q^0..q^9, and every one is compared
        cache = SeriesCache(tmp_path)
        cache.get("epoly_B_stratum", {"max_m": 4}, 12, bm_columns)
        victim, payload = entry_of(tmp_path)
        payload["columns"][2][7] = encode_row(closed_form_B(3, 12).coeff(7) + 1)
        victim.write_text(json.dumps(payload))
        monkeypatch.setattr(cache.rng, "randint", lambda lo, hi: 9)
        assert cache.get("epoly_B_stratum", {"max_m": 4}, 12, bm_columns) == bm_columns(12)
        assert "stale coefficient at q^7 in column 3" in capsys.readouterr().err
        assert entry_of(tmp_path)[1]["columns"][2][7] == encode_row(closed_form_B(3, 12).coeff(7))

    @pytest.mark.parametrize("fault, cell, message", [
        ("column count", None, "3 columns, not 4"),
        ("float cell", "1.0", "invalid literal for int() with base 10: '1.0'"),
        ("string cell", '"1"', "non-integer cell"),
        ("bool cell", "true", "non-integer cell"),
    ])
    def test_malformed_entry_invalid(self, tmp_path, capsys, fault, cell, message):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_B_stratum", {"max_m": 4}, 6, bm_columns)
        victim, payload = entry_of(tmp_path)
        if cell is None:
            payload["columns"].pop()
            victim.write_text(json.dumps(payload))
        else:  # q^6 of column 4 is 1 ([0, 1]): the same value, of another type
            assert payload["columns"][3][6] == [0, 1]
            payload["columns"][3][6] = [0, 424242]
            victim.write_text(json.dumps(payload).replace("424242", cell))
        assert cache.get("epoly_B_stratum", {"max_m": 4}, 6, bm_columns) == bm_columns(6)
        err = capsys.readouterr().err
        assert "recomputing" in err and message in err
        assert len(entry_of(tmp_path)[1]["columns"]) == 4

    def test_truncated_multi_column_entry_repaired(self, tmp_path, capsys):
        cache = SeriesCache(tmp_path)
        cache.get("epoly_B_stratum", {"max_m": 4}, 9, bm_columns)
        victim, payload = entry_of(tmp_path)
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        assert cache.get("epoly_B_stratum", {"max_m": 4}, 9, bm_columns) == bm_columns(9)
        assert "recomputing" in capsys.readouterr().err
        assert entry_of(tmp_path)[1] == payload
        cache.get("epoly_B_stratum", {"max_m": 4}, 9, bm_columns)
        assert capsys.readouterr().err == ""

    def test_old_format_y0_entry_repaired_once(self, tmp_path, capsys):
        # A per-column entry of the older format: coefficients as term lists.
        # The y0 table has one column and no bound, so its name is unchanged.
        old = {"name": "epoly_Y0", "params": {}, "order": 6,
               "series": {"order": 6, "coeffs": [c.to_json() for c in series_Y0(6).coeffs]}}
        (tmp_path / "epoly_Y0_N6.json").write_text(json.dumps(old))
        argv = ["table", "y0", "--max-n", "6", "--format", "csv", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        assert first.err.count("recomputing") == 1 and "epoly_Y0_N6.json" in first.err
        assert cli.main(argv) == 0
        again = capsys.readouterr()
        assert again.err == "" and again.out == first.out
        assert cli.main(argv[:-2]) == 0
        assert capsys.readouterr().out == first.out

    def test_old_per_column_entries_never_read(self, tmp_path, capsys):
        old = tmp_path / "epoly_B_stratum_m1_N6.json"
        old.write_text("{ an old per-column entry")
        argv = ["table", "bm", "--max-n", "6", "--format", "csv", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert old.read_text() == "{ an old per-column entry"
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "epoly_B_stratum_m1_N6.json", f"epoly_B_stratum_max_m{mu_max(6)}_N6.json"]


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
        assert cli.main(["verify", "--level", "full"]) == 0
        # 0 <= r <= 4 and C(r, 2) <= n <= 14: no cell that is 0 == 0 by construction
        assert "[ok  ] fixed-point sums == product series (65 cells)" in capsys.readouterr().out

    def test_verify_full_census_column_sum_cells(self, capsys):
        assert cli.main(["verify", "--level", "full"]) == 0
        # B only, n <= 14: X's column sums are row r = 0 of "R == G.X"
        line = "[ok  ] sum_m B[m][n] == partition census (15 cells)"
        assert line in capsys.readouterr().out

    def test_verify_full_report(self, capsys):
        # every check and its cell count at order 14 (mu_max(14) = 5):
        # Cauchy at size 12, R_0..R_5 against X, and the fixed-point sums
        # over r <= 4 from n = C(r, 2) on, no cell 0 == 0 by construction
        assert cli.main(["verify", "--level", "full"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[ok  ] Cauchy q-binomial theorem (78 cells)",
            "[ok  ] y0 == X_1 (punctured plane) (15 cells)",
            "[ok  ] R == G.X (Grassmannian fibers) (90 cells)",
            "[ok  ] X == B.A (origin/punctured split) (75 cells)",
            "[ok  ] closed forms == matrix pipeline (150 cells)",
            "[ok  ] fixed-point sums == product series (65 cells)",
            "[ok  ] chi == fixed-point census (75 cells)",
            "[ok  ] sum_m B[m][n] == partition census (15 cells)",
            "all identities hold at order 14",
        ]

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

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("argv", [["table", "bm"], ["verify"]], ids=["table", "verify"])
    def test_unusable_cache_dir_is_a_usage_error(self, tmp_path, argv, via):
        # a file where the directory should be: exit 2 and one error line
        # naming the path, not the exit 1 of a mismatch with a traceback
        path = tmp_path / "afile"
        path.write_text("")
        if via == "flag":
            res = run_cli(*argv, "--cache-dir", str(path))
        else:
            res = run_cli(*argv, env=dict(os.environ, HILBSTRATA_CACHE_DIR=str(path)))
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.splitlines()[-1] == (
            f"hilbstrata: error: cannot use the cache directory {path}: File exists")
        assert path.read_text() == ""

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

    @pytest.mark.parametrize("argv", [["table", "bm"], ["verify"]], ids=["table", "verify"])
    def test_failed_cache_write_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # the directory opens, then writing an entry fails: exit 2 and one
        # error line naming the directory, not an exit 1 with a traceback
        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), dst)

        monkeypatch.setattr("hilbstrata.cache.os.replace", refuse)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"hilbstrata: error: cannot use the cache directory {tmp_path}: "
            f"{os.strerror(errno.EACCES)}")
        assert list(tmp_path.iterdir()) == []  # the temp file is gone too

    def test_build_oserror_without_cache_dir_propagates(self, monkeypatch):
        # only a cache directory turns an OSError into a usage error
        def fail(*args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.delenv("HILBSTRATA_CACHE_DIR", raising=False)
        monkeypatch.setattr(cli, "build_table", fail)
        with pytest.raises(OSError, match=os.strerror(errno.EIO)):
            cli.main(["table", "bm", "--max-n", "4"])

    @pytest.mark.parametrize("argv", [["table", "y0", "--max-n", "4"], ["verify", "--max-n", "2"]],
                             ids=["table", "verify"])
    def test_stdout_error_with_cache_dir_is_not_a_cache_error(self, tmp_path, monkeypatch,
                                                              capsys, argv):
        # the mapping wraps the cached build only, never the write to stdout
        class BrokenStdout:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        with pytest.raises(BrokenPipeError):
            cli.main(argv + ["--cache-dir", str(tmp_path)])
        assert "cannot use the cache directory" not in capsys.readouterr().err
        assert list(tmp_path.glob("*.json"))  # the cached build did run

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


def column_variants(kind, n):
    """The column options of a table call: the default, a smaller bound and,
    for the m-columns, a bound past mu_max(n) that is clamped with a warning."""
    if kind == "y0":
        return [[]]
    if kind == "hnnr":
        return [[], ["--max-r", "2"], ["--max-r", "6"]]
    return [[], ["--max-m", str(max(1, mu_max(n) // 2))], ["--max-m", str(mu_max(n) + 1)]]


class TestCachedOutputIsByteIdentical:
    """A cached call prints what an uncached one prints, on a miss and on a hit."""

    @staticmethod
    def call(capsys, argv):
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    @pytest.mark.parametrize("n", [0, 8, 14])
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_table(self, tmp_path, capsys, kind, n):
        for i, variant in enumerate(column_variants(kind, n)):
            for fmt in FORMATS:
                argv = ["table", kind, "--max-n", str(n), "--format", fmt, *variant]
                cache_dir = tmp_path / f"{i}-{fmt}"
                plain = self.call(capsys, argv)
                assert plain[0] == 0
                cached = argv + ["--cache-dir", str(cache_dir)]
                assert self.call(capsys, cached) == plain, argv  # a miss
                entry, = cache_dir.iterdir()
                written = entry.stat()
                assert self.call(capsys, cached) == plain, argv  # a hit
                assert (entry.stat().st_mtime_ns, entry.stat().st_ino) == (
                    written.st_mtime_ns, written.st_ino)

    def test_verify(self, tmp_path, capsys):
        plain = self.call(capsys, ["verify", "--level", "fast"])
        assert plain[0] == 0 and plain[2] == ""
        cached = ["verify", "--level", "fast", "--cache-dir", str(tmp_path)]
        assert self.call(capsys, cached) == plain  # misses
        assert len(list(tmp_path.iterdir())) == len(TABLE_KINDS)
        assert self.call(capsys, cached) == plain  # hits
