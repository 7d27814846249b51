"""Desk-scale OLAP execution over CSV-loaded fact and dimension data.

A data package is a directory holding a plain-text manifest mapping entity
ids to CSV files. Loading enforces headers, declared types, and referential
integrity; queries are read-only over the immutable cube. Decimal arithmetic
is 64-bit float, evaluated left to right, and aggregation iterates rows in
file order so results are reproducible.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from datetime import date, datetime, time
from pathlib import Path

from . import model as m
from .diagnostics import Diagnostic, error, warning
from .plan import Column, EngineError, Filter, Parameter, aggregate_column, column, executable_measures, plan_filters, plan_operation

# Measure results are plain values: int, float, date, or None. Null arises
# only from empty AVERAGE/MIN/MAX groups and division by zero.
MeasureValue = object


_MANIFEST_LINE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\"([^\"]+)\"\s*$")


def parse_manifest(path: Path) -> dict[str, str]:
    """Read ``entity_id = "file.csv"`` lines; ``#`` starts a comment."""
    mapping: dict[str, str] = {}
    for raw_line in path.read_text(encoding="utf-8-sig").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        match = _MANIFEST_LINE.match(line)
        if match is None:
            raise EngineError("ENG001", f"unreadable manifest line: {raw_line.strip()!r}")
        mapping[match.group(1)] = match.group(2)
    return mapping


@dataclass
class Table:
    entity_id: str
    columns: tuple[str, ...]
    rows: list[dict]
    by_pk: dict = field(default_factory=dict)


@dataclass
class Cube:
    """Loaded tables for every entity, keyed joins derived from the model."""

    model: m.SpecificationModel
    tables: dict[str, Table]

    def table(self, entity_id: str) -> Table:
        return self.tables[entity_id]

    def view(self, fact_id: str) -> "CubeView":
        return CubeView(self, fact_id, ())


def _coerce(value: str, attr: m.DataAttribute, enum: m.DataEnumeration | None):
    kind = attr.attr_type.kind
    if kind == "dimension":
        return value
    if kind == "enum":
        if enum is not None and value not in enum.values:
            raise ValueError(f"{value!r} is not a value of enumeration {attr.attr_type.name}")
        return value
    name = attr.attr_type.name
    if name in ("UUID", "String"):
        return value
    if name == "Integer":
        return int(value)
    if name == "Decimal":
        return float(value)
    if name == "Boolean":
        lowered = value.lower()
        if lowered in ("true", "1"):
            return True
        if lowered in ("false", "0"):
            return False
        raise ValueError(f"{value!r} is not a boolean")
    if name == "Date":
        return date.fromisoformat(value)
    if name == "DateTime":
        return datetime.fromisoformat(value)
    if name == "Time":
        return time.fromisoformat(value)
    raise ValueError(f"unsupported type {name}")


def load_cube(model: m.SpecificationModel, data_dir: str | Path) -> tuple[Cube, list[Diagnostic]]:
    """Load a data package; the model must already have passed checks clean."""
    data_dir = Path(data_dir)
    diags: list[Diagnostic] = []
    manifest_path = data_dir / "manifest.toml"
    if not manifest_path.exists():
        diags.append(error("ENG001", f"missing manifest: {manifest_path}"))
        return Cube(model, {}), diags
    try:
        manifest = parse_manifest(manifest_path)
    except EngineError as exc:
        diags.append(error(exc.code, str(exc)))
        return Cube(model, {}), diags

    for key in sorted(manifest):
        if model.entity(key) is None:
            diags.append(warning("ENG001", f"manifest entry {key!r} matches no entity; ignored"))

    tables: dict[str, Table] = {}
    for entity in model.entities:
        filename = manifest.get(entity.id)
        if filename is None or not (data_dir / filename).exists():
            diags.append(error("ENG001", f"no data file for entity {entity.id}"))
            continue
        table = _load_table(entity, model, data_dir / filename, diags)
        if table is not None:
            tables[entity.id] = table

    cube = Cube(model, tables)
    _check_references(cube, diags)
    return cube, diags


def _load_table(entity: m.DataEntity, model: m.SpecificationModel, path: Path, diags: list[Diagnostic]) -> Table | None:
    stored = [a for a in entity.attributes if not a.is_measure]
    expected = tuple(a.id for a in stored)
    enums = {a.id: model.enumeration(a.attr_type.name) for a in stored if a.attr_type.kind == "enum"}

    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(next(reader))
        except StopIteration:
            diags.append(error("ENG002", f"{path.name}: empty file, expected header {', '.join(expected)}"))
            return None
        if header != expected:
            diags.append(
                error(
                    "ENG002",
                    f"{path.name}: header mismatch; expected ({', '.join(expected)}) got ({', '.join(header)})",
                )
            )
            return None

        rows: list[dict] = []
        for line_no, record in enumerate(reader, start=1):
            if len(record) != len(stored):
                diags.append(error("ENG003", f"{path.name} row {line_no}: expected {len(stored)} fields"))
                continue
            row: dict = {}
            bad = False
            for attr, raw in zip(stored, record):
                if raw == "":
                    if attr.not_null:
                        diags.append(
                            error("ENG003", f"{path.name} row {line_no}, column {attr.id}: null in NOT NULL column")
                        )
                        bad = True
                    row[attr.id] = None
                    continue
                try:
                    row[attr.id] = _coerce(raw, attr, enums.get(attr.id))
                except ValueError as exc:
                    diags.append(error("ENG003", f"{path.name} row {line_no}, column {attr.id}: {exc}"))
                    bad = True
            if not bad:
                rows.append(row)

    table = Table(entity.id, expected, rows)
    pk = entity.primary_key
    if pk is not None:
        for line_no, row in enumerate(table.rows, start=1):
            key = row.get(pk.id)
            if key in table.by_pk:
                diags.append(error("ENG003", f"{path.name} row {line_no}, column {pk.id}: duplicate primary key {key!r}"))
            else:
                table.by_pk[key] = row
    return table


def _check_references(cube: Cube, diags: list[Diagnostic]) -> None:
    for entity in cube.model.entities:
        table = cube.tables.get(entity.id)
        if table is None:
            continue
        for attr in entity.dimension_refs:
            target = cube.tables.get(attr.dimension_target)
            if target is None:
                continue
            for line_no, row in enumerate(table.rows, start=1):
                key = row.get(attr.id)
                if key is not None and key not in target.by_pk:
                    diags.append(
                        error(
                            "ENG004",
                            f"{entity.id} row {line_no}, column {attr.id}: no {attr.dimension_target} row with key {key!r}",
                        )
                    )


# ---------------------------------------------------------------------------
# Path access
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Accessor:
    """Reads a plan ``Column`` from a fact row, following its hop chain."""

    chain: tuple[tuple[str, str], ...]
    attribute: str

    def __call__(self, row: dict, cube: Cube):
        current = row
        try:
            for fk_attr, target in self.chain:
                key = current.get(fk_attr)
                if key is None:
                    return None
                current = cube.tables[target].by_pk[key]
        except KeyError:
            if target not in cube.tables:
                raise EngineError("ENG030", f"no data loaded for {target}") from None
            raise EngineError("ENG004", f"{target} has no row with key {key!r}") from None
        return current.get(self.attribute)


def _accessor(col: Column) -> Accessor:
    return Accessor(col.chain, col.attribute.id)


# ---------------------------------------------------------------------------
# Views and predicates
# ---------------------------------------------------------------------------


def _bound_value(filt: Filter, bindings: dict):
    """The filter's literal, or its parameter's binding coerced to the column type."""
    param = filt.value
    if not isinstance(param, Parameter):
        return param
    if param.name in bindings:
        value = bindings[param.name]
    elif param.path in bindings:
        value = bindings[param.path]
    else:
        raise EngineError(
            "ENG010", f"unbound parameter {param.name!r} (for {param.path}); supply --bind {param.name}=<value>"
        )
    if not isinstance(value, str):
        return value
    attr = filt.column.attribute
    try:
        return _coerce(value, attr, None)
    except ValueError:
        raise EngineError(
            "ENG010", f"parameter {param.name!r} expects {attr.attr_type.name}, got {value!r}"
        ) from None


def _check(filt: Filter, bindings: dict | None):
    accessor = _accessor(filt.column)
    target_value = _bound_value(filt, bindings or {})

    def check(row: dict, cube: Cube) -> bool:
        return accessor(row, cube) == target_value

    return check


@dataclass(frozen=True)
class CubeView:
    """Read-only slice of a cube: the fact rows satisfying a conjunction."""

    cube: Cube
    fact_id: str
    filters: tuple = ()

    def rows(self) -> list[dict]:
        table = self.cube.tables.get(self.fact_id)
        if table is None:
            raise EngineError("ENG030", f"no data loaded for {self.fact_id}")
        out = table.rows
        for check in self.filters:
            out = [row for row in out if check(row, self.cube)]
        return out

    def row_count(self) -> int:
        return len(self.rows())


def _filtered(view: CubeView, filters, bindings: dict | None) -> CubeView:
    checks = tuple(_check(filt, bindings) for filt in filters)
    return CubeView(view.cube, view.fact_id, view.filters + checks)


def slice_view(view: CubeView, predicate: m.Predicate, bindings: dict | None = None) -> CubeView:
    return dice_view(view, (predicate,), bindings)


def dice_view(view: CubeView, predicates, bindings: dict | None = None) -> CubeView:
    return _filtered(view, plan_filters(view.cube.model, view.fact_id, predicates), bindings)


# ---------------------------------------------------------------------------
# Measure evaluation
# ---------------------------------------------------------------------------


def evaluate_measure(view: CubeView, expr, rows: list[dict] | None = None, _stack: tuple = ()):
    """Evaluate a measure over a row subset (defaults to the whole view)."""
    if rows is None:
        rows = view.rows()
    model = view.cube.model
    fact_id = view.fact_id

    if isinstance(expr, m.Literal):
        return expr.value

    if isinstance(expr, m.MeasureRef):
        if expr.attribute in _stack:
            raise EngineError("ENG030", f"measure reference cycle at {expr.attribute}")
        target = model.entity(fact_id).attribute(expr.attribute)
        if target is None or target.measure is None:
            raise EngineError("ENG030", f"unknown measure {expr.attribute!r}")
        return evaluate_measure(view, target.measure, rows, _stack + (expr.attribute,))

    if isinstance(expr, m.Arithmetic):
        left = evaluate_measure(view, expr.left, rows, _stack)
        right = evaluate_measure(view, expr.right, rows, _stack)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0:
            return None
        return left / right

    if isinstance(expr, m.Aggregate):
        if isinstance(expr.arg, m.Predicate):
            (filt,) = plan_filters(model, fact_id, (expr.arg,))
            check = _check(filt, None)
            return sum(1 for row in rows if check(row, view.cube))
        accessor = _accessor(aggregate_column(model, fact_id, expr.arg))
        values = [v for v in (accessor(row, view.cube) for row in rows) if v is not None]
        if expr.fn == "COUNT":
            return len(values)
        if expr.fn == "SUM":
            total = 0
            for v in values:
                total += v
            return total
        if not values:
            return None
        if expr.fn == "AVERAGE":
            total = 0.0
            for v in values:
                total += v
            return total / len(values)
        return min(values) if expr.fn == "MIN" else max(values)

    if isinstance(expr, m.OpaqueMeasure):
        raise EngineError("ENG030", f"opaque measure {expr.text!r} cannot be evaluated")
    raise EngineError("ENG030", f"unsupported measure node {expr!r}")


# ---------------------------------------------------------------------------
# Grouping and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultTable:
    group_keys: tuple[str, ...]
    measure_names: tuple[str, ...]
    rows: tuple[tuple, ...]
    axis_order: tuple[str, str] | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        return self.group_keys + self.measure_names


def _sort_token(value):
    """Sort key matching SQL ``ORDER BY``: NULL first, numbers by value."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, str(int(value)))
    if isinstance(value, (int, float)):
        return (2, float(value))
    if isinstance(value, (date, datetime, time)):
        return (3, value.isoformat())
    return (3, str(value))


def aggregate(view: CubeView, group_by) -> ResultTable:
    """Group view rows and evaluate every executable measure per group.

    ``group_by`` holds attribute paths (dotted text or ``AttributePath``) or
    plan ``Column``s. Roll-up and drill-down are both this operation with a
    coarser or finer key list; the distinction is reporting metadata only.
    """
    model = view.cube.model
    keys = [
        key if isinstance(key, Column) else column(model, view.fact_id, m.AttributePath.parse(str(key)))
        for key in group_by
    ]
    accessors = [_accessor(key) for key in keys]
    measure_attrs = executable_measures(model.entity(view.fact_id))

    groups: dict[tuple, list[dict]] = {}
    for row in view.rows():
        key = tuple(acc(row, view.cube) for acc in accessors)
        groups.setdefault(key, []).append(row)

    result_rows = []
    for key in sorted(groups, key=lambda k: tuple(_sort_token(v) for v in k)):
        rows = groups[key]
        cells = [evaluate_measure(view, attr.measure, rows) for attr in measure_attrs]
        result_rows.append(key + tuple(cells))

    key_names = tuple(key.path for key in keys)
    axis = (key_names[0], key_names[1]) if len(key_names) == 2 else None
    return ResultTable(key_names, tuple(a.id for a in measure_attrs), tuple(result_rows), axis)


def pivot(result: ResultTable) -> ResultTable:
    """Swap the row and column axes of a two-dimensional result."""
    if len(result.group_keys) != 2:
        raise EngineError("ENG020", f"pivot requires exactly 2 group keys, found {len(result.group_keys)}")
    swapped_keys = (result.group_keys[1], result.group_keys[0])
    rows = [(row[1], row[0]) + row[2:] for row in result.rows]
    rows.sort(key=lambda r: (_sort_token(r[0]), _sort_token(r[1])))
    axis = (result.axis_order[1], result.axis_order[0]) if result.axis_order else swapped_keys
    return ResultTable(swapped_keys, result.measure_names, tuple(rows), axis)


# ---------------------------------------------------------------------------
# Use case dispatch
# ---------------------------------------------------------------------------


def run_use_case(cube: Cube, use_case_id: str, op_id: str, bindings: dict | None = None) -> ResultTable:
    plan = plan_operation(cube.model, use_case_id, op_id)
    view = cube.view(plan.fact.id)

    if plan.kind in ("Slice", "Dice"):
        filtered = _filtered(view, plan.filters, bindings)
        rows = filtered.rows()
        cells = tuple(evaluate_measure(filtered, attr.measure, rows) for attr in plan.measures)
        return ResultTable((), ("row_count",) + tuple(a.id for a in plan.measures), ((len(rows),) + cells,))

    if plan.kind in ("RollUp", "DrillDown"):
        return aggregate(view, plan.keys)
    return pivot(aggregate(view, plan.keys))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _cell_text(value, is_key: bool) -> str:
    if value is None:
        return "(null)" if is_key else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (date, datetime, time)):
        return value.isoformat()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def result_to_csv(result: ResultTable) -> str:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result.columns)
    key_count = len(result.group_keys)
    for row in result.rows:
        writer.writerow([_cell_text(v, i < key_count) for i, v in enumerate(row)])
    return buffer.getvalue()


def result_to_table(result: ResultTable) -> str:
    key_count = len(result.group_keys)
    rendered = [list(result.columns)]
    for row in result.rows:
        rendered.append([_cell_text(v, i < key_count) for i, v in enumerate(row)])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(result.columns))]
    lines = []
    for idx, row in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"
