"""Correctness references that do not go through the engine under test.

The data package is read with ``csv`` straight into an in-memory SQLite
database built from the generated ``schema.sql``; the generated per-operation
SQL then gives every operation's expected result. ``load_cube`` is not
involved. Engine output (``result_to_csv`` text) is compared with it: keys,
row order and every measure for grouped operations (floats to 1e-9
relative, dates as ISO strings), ``row_count`` for slices and dices.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sqlite3
from pathlib import Path

FLOAT_TOLERANCE = 1e-9
FILTER_KINDS = ("Slice", "Dice")


def _sql_value(raw: str):
    if raw == "":
        return None
    if raw in ("true", "false"):
        return 1 if raw == "true" else 0
    return raw  # column affinity turns numeric text into numbers


def _load(conn: sqlite3.Connection, package: Path, tables: list[str]) -> None:
    manifest = {}
    for line in (package / "manifest.toml").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            manifest[key.strip()] = value.strip().strip('"')
    for table in tables:
        with (package / manifest[table]).open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            columns = ", ".join(f'"{c}"' for c in header)
            holes = ", ".join("?" for _ in header)
            conn.executemany(
                f'INSERT INTO "{table}" ({columns}) VALUES ({holes})',
                ([_sql_value(v) for v in record] for record in reader),
            )


def sqlite_reference(
    package: Path, schema_sql: str, tables: list[str], queries: list[dict], binds: dict, cache_dir: Path
) -> dict:
    """Expected result per operation, cached in ``cache_dir``.

    ``queries`` holds ``{"kind", "sql"}`` per operation, in operation order.
    The cache key covers the package, the SQL text and the binds, so a
    program that generates different SQL gets a fresh reference.
    """
    key = json.dumps([str(package.resolve()), schema_sql, queries, binds], sort_keys=True)
    cache = cache_dir / f"reference-{hashlib.sha256(key.encode('utf-8')).hexdigest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))

    params = {"year": int(binds["year"]), "id": binds["id"]}
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(schema_sql)
        _load(conn, package, tables)
        expected = []
        for query in queries:
            cursor = conn.execute(query["sql"], params)
            rows = cursor.fetchall()
            if query["kind"] in FILTER_KINDS:
                expected.append({"kind": query["kind"], "row_count": len(rows)})
            else:
                columns = [d[0] for d in cursor.description]
                expected.append({"kind": query["kind"], "columns": columns, "rows": [list(r) for r in rows]})
    finally:
        conn.close()
    result = {"operations": expected}
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(result), encoding="utf-8")
    return result


def _cell_matches(cell: str, expected, is_key: bool) -> bool:
    if expected is None:
        return cell == ("(null)" if is_key else "")
    if isinstance(expected, (int, float)):
        try:
            value = float(cell)
        except ValueError:
            return False
        if isinstance(expected, int):
            return value == expected
        return math.isclose(value, expected, rel_tol=FLOAT_TOLERANCE, abs_tol=0.0)
    return cell == str(expected)


def compare(text: str | None, expected: dict) -> str | None:
    """None when ``text`` (engine CSV) matches the reference, else why not."""
    if text is None:
        return "no output"
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return "empty output"
    header, body = rows[0], rows[1:]
    if expected["kind"] in FILTER_KINDS:
        if header[:1] != ["row_count"] or len(body) != 1:
            return f"unexpected slice result shape {header}"
        if body[0][0] != str(expected["row_count"]):
            return f"row_count {body[0][0]} != {expected['row_count']}"
        return None
    if header != expected["columns"]:
        return f"columns {header} != {expected['columns']}"
    if len(body) != len(expected["rows"]):
        return f"{len(body)} rows != {len(expected['rows'])}"
    keys = len(header) - sum(1 for c in header if "." not in c)
    for number, (row, want) in enumerate(zip(body, expected["rows"]), start=1):
        for column, (cell, value) in enumerate(zip(row, want)):
            if not _cell_matches(cell, value, column < keys):
                return f"row {number} column {header[column]}: {cell!r} != {value!r}"
    return None
