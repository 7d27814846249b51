"""Desk-scale OLAP execution over CSV-loaded fact and dimension data.

A data package is a directory holding a plain-text manifest mapping entity
ids to CSV files. Loading enforces headers, declared types, and referential
integrity; queries are read-only over the immutable cube. Decimal arithmetic
is 64-bit float, evaluated left to right, and aggregation iterates rows in
file order so results are reproducible.

A query compiles its plan once: each column it reads becomes a chain of
C-level ``map`` calls, and its measures share aggregate leaves by expression.
"""

from __future__ import annotations

import csv
import re
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime, time
from functools import partial, reduce
from itertools import compress, repeat
from operator import add, eq, is_not, itemgetter, mul, sub, truediv
from pathlib import Path

from . import model as m
from .diagnostics import Diagnostic, error, warning
from .plan import Column, EngineError, Filter, Parameter, aggregate_column, column, executable_measures, plan_filters, plan_operation

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
    # dimension references whose every key was found at load (no ENG004)
    clean_refs: frozenset = frozenset()


@dataclass
class Cube:
    """Loaded tables for every entity, keyed joins derived from the model."""

    model: m.SpecificationModel
    tables: dict[str, Table]

    def table(self, entity_id: str) -> Table:
        return self.tables[entity_id]

    def view(self, fact_id: str) -> "CubeView":
        return CubeView(self, fact_id, ())


_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _boolean(value: str) -> bool:
    if value.lower() not in _BOOLEANS:
        raise ValueError(f"{value!r} is not a boolean")
    return _BOOLEANS[value.lower()]


_PARSERS = {"UUID": str, "String": str, "Integer": int, "Decimal": float, "Boolean": _boolean,
            "Date": date.fromisoformat, "DateTime": datetime.fromisoformat, "Time": time.fromisoformat}


def _coercer(attr: m.DataAttribute, enum: m.DataEnumeration | None):
    """The parser of one non-empty cell of ``attr``; it raises ValueError."""
    kind = attr.attr_type.kind
    if kind == "primitive":
        return _PARSERS[attr.attr_type.name]
    if kind == "dimension" or enum is None:
        return str

    def enum_value(value: str) -> str:
        if value not in enum.values:
            raise ValueError(f"{value!r} is not a value of enumeration {attr.attr_type.name}")
        return value

    return enum_value


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
    coercers = [_coercer(a, model.enumeration(a.attr_type.name) if a.attr_type.kind == "enum" else None) for a in stored]
    required = [i for i, a in enumerate(stored) if a.not_null]

    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(next(reader))
        except StopIteration:
            diags.append(error("ENG002", f"{path.name}: empty file, expected header {', '.join(expected)}"))
            return None
        if header != expected:
            got = ", ".join(header)
            diags.append(error("ENG002", f"{path.name}: header mismatch; expected ({', '.join(expected)}) got ({got})"))
            return None

        rows: list[dict] = []
        for line_no, record in enumerate(reader, start=1):
            if len(record) == len(stored) and ("" not in record or all(map(record.__getitem__, required))):
                try:
                    rows.append({a: coerce(raw) if raw else None for a, coerce, raw in zip(expected, coercers, record)})
                    continue
                except ValueError:
                    pass
            _reject(f"{path.name} row {line_no}", record, stored, coercers, diags)

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


def _reject(where: str, record: list[str], stored, coercers, diags: list[Diagnostic]) -> None:
    """ENG003 for each bad cell of a record that did not load."""
    if len(record) != len(stored):
        diags.append(error("ENG003", f"{where}: expected {len(stored)} fields"))
        return
    for attr, coerce, raw in zip(stored, coercers, record):
        try:
            if raw:
                coerce(raw)
            elif attr.not_null:
                raise ValueError("null in NOT NULL column")
        except ValueError as exc:
            diags.append(error("ENG003", f"{where}, column {attr.id}: {exc}"))


def _check_references(cube: Cube, diags: list[Diagnostic]) -> None:
    for entity in cube.model.entities:
        table = cube.tables.get(entity.id)
        if table is None:
            continue
        clean = []
        for attr in entity.dimension_refs:
            target = cube.tables.get(attr.dimension_target)
            if target is None:
                continue
            if all(map(target.by_pk.__contains__, filter(_not_none, map(itemgetter(attr.id), table.rows)))):
                clean.append(attr.id)
                continue
            for line_no, row in enumerate(table.rows, start=1):
                key = row.get(attr.id)
                if key is not None and key not in target.by_pk:
                    where = f"{entity.id} row {line_no}, column {attr.id}"
                    diags.append(error("ENG004", f"{where}: no {attr.dimension_target} row with key {key!r}"))
        table.clean_refs = frozenset(clean)


# ---------------------------------------------------------------------------
# Column readers
# ---------------------------------------------------------------------------


class _NullRow(dict):
    # the row a null key hops to: every attribute of it reads as null
    def __missing__(self, key):
        return None


_NULL_ROW = _NullRow()
_not_none = partial(is_not, None)


def _hop(cube: Cube, owner_id: str, fk: str, target_id: str):
    """A function from an iterator of ``owner_id.fk`` keys to the rows they name."""
    owner, target = cube.tables.get(owner_id), cube.tables.get(target_id)
    by_pk = target.by_pk if target is not None else None
    if by_pk is not None and owner is not None and fk in owner.clean_refs:
        return lambda keys: map(by_pk.get, keys, repeat(_NULL_ROW))

    def lookup(key):
        if key is None:
            return _NULL_ROW
        if by_pk is None:
            raise EngineError("ENG030", f"no data loaded for {target_id}")
        row = by_pk.get(key)
        if row is None:
            raise EngineError("ENG004", f"{target_id} has no row with key {key!r}")
        return row

    return partial(map, lookup)


def _reader(cube: Cube, fact_id: str, col: Column):
    """A function from fact rows to an iterator of ``col``'s values; ENG004 and
    ENG030 arise only when a row needs the dangling key or unloaded table."""
    owners = (fact_id,) + tuple(target for _, target in col.chain)
    steps = [(itemgetter(fk), _hop(cube, owner, fk, target)) for owner, (fk, target) in zip(owners, col.chain)]
    # a measure attribute is not stored per row and reads as null
    leaf = (lambda row: None) if col.attribute.is_measure else itemgetter(col.attribute.id)

    def read(rows):
        for key_of, hop in steps:
            rows = hop(map(key_of, rows))
        return map(leaf, rows)

    return read


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
        bind = f"--bind {param.name}=<value>"
        raise EngineError("ENG010", f"unbound parameter {param.name!r} (for {param.path}); supply {bind}")
    if not isinstance(value, str):
        return value
    attr = filt.column.attribute
    try:
        return _coercer(attr, None)(value)
    except ValueError:
        raise EngineError("ENG010", f"parameter {param.name!r} expects {attr.attr_type.name}, got {value!r}") from None


@dataclass(frozen=True)
class CubeView:
    """Read-only slice of a cube: the fact rows satisfying a conjunction."""

    cube: Cube
    fact_id: str
    filters: tuple = ()  # (reader, value): a row passes when its value == value

    def rows(self) -> list[dict]:
        table = self.cube.tables.get(self.fact_id)
        if table is None:
            raise EngineError("ENG030", f"no data loaded for {self.fact_id}")
        out = table.rows
        for read, value in self.filters:
            out = list(compress(out, map(eq, read(out), repeat(value))))
        return out

    def row_count(self) -> int:
        return len(self.rows())


def _filtered(view: CubeView, filters, bindings: dict | None) -> CubeView:
    checks = tuple((_reader(view.cube, view.fact_id, f.column), _bound_value(f, bindings or {})) for f in filters)
    return CubeView(view.cube, view.fact_id, view.filters + checks)


def slice_view(view: CubeView, predicate: m.Predicate, bindings: dict | None = None) -> CubeView:
    return dice_view(view, (predicate,), bindings)


def dice_view(view: CubeView, predicates, bindings: dict | None = None) -> CubeView:
    return _filtered(view, plan_filters(view.cube.model, view.fact_id, predicates), bindings)


# ---------------------------------------------------------------------------
# Measure evaluation
# ---------------------------------------------------------------------------

_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": truediv}

# Aggregates over one group's values, nulls dropped. SUM and AVERAGE add left to
# right (the builtin ``sum`` compensates float error from Python 3.12 on); MIN
# and MAX keep the first of tied values. Measure results are plain values (int,
# float, date or None); null arises only from empty AVERAGE/MIN/MAX groups and
# division by zero.
_FOLDS = {
    "COUNT": len,
    "SUM": lambda values: reduce(add, values, 0),
    "AVERAGE": lambda values: reduce(add, values, 0.0) / len(values) if values else None,
    "MIN": lambda values: min(values) if values else None,
    "MAX": lambda values: max(values) if values else None,
}


def _arithmetic(op, a, b):
    """Null when either side is null or a divisor is zero."""
    return None if a is None or b is None or (op is truediv and b == 0) else op(a, b)


def _measure_program(cube: Cube, fact_id: str, exprs):
    """Compile measures into one function from a group's rows to their values; aggregate
    leaves are shared by expression and each distinct input is read once per group."""
    model = cube.model
    # (chain, attribute id, drop nulls), or None for the rows themselves -> (reader, drop nulls, leaf indices)
    inputs: dict = {}
    leaves: dict = {}  # Aggregate -> leaf index
    folds = []  # leaf index -> function from its input's values to the leaf result

    def add_leaf(expr: m.Aggregate) -> int:
        if isinstance(expr.arg, m.Predicate):
            (filt,) = plan_filters(model, fact_id, (expr.arg,))
            value = _bound_value(filt, {})
            col, drop_nulls, fold = filt.column, False, lambda values: sum(map(eq, values, repeat(value)))
        else:
            col = aggregate_column(model, fact_id, expr.arg)
            drop_nulls, fold = bool(col.chain) or not col.attribute.not_null, _FOLDS[expr.fn]
            if expr.fn == "COUNT" and not drop_nulls:
                col = None  # COUNT of a NOT NULL fact column is the number of rows
        key = None if col is None else (col.chain, col.attribute.id, drop_nulls)
        if key not in inputs:
            inputs[key] = (None if col is None else _reader(cube, fact_id, col), drop_nulls, [])
        inputs[key][2].append(len(folds))
        folds.append(fold)
        return len(folds) - 1

    def compile_node(expr, stack: tuple):
        """A function from the leaf results to ``expr``'s value."""
        if isinstance(expr, m.Literal):
            return lambda results: expr.value
        if isinstance(expr, m.MeasureRef):
            if expr.attribute in stack:
                raise EngineError("ENG030", f"measure reference cycle at {expr.attribute}")
            target = model.entity(fact_id).attribute(expr.attribute)
            if target is None or target.measure is None:
                raise EngineError("ENG030", f"unknown measure {expr.attribute!r}")
            return compile_node(target.measure, stack + (expr.attribute,))
        if isinstance(expr, m.Arithmetic):
            left, right, op = compile_node(expr.left, stack), compile_node(expr.right, stack), _ARITHMETIC[expr.op]
            return lambda results: _arithmetic(op, left(results), right(results))
        if isinstance(expr, m.Aggregate):
            if expr not in leaves:
                leaves[expr] = add_leaf(expr)
            return itemgetter(leaves[expr])
        if isinstance(expr, m.OpaqueMeasure):
            raise EngineError("ENG030", f"opaque measure {expr.text!r} cannot be evaluated")
        raise EngineError("ENG030", f"unsupported measure node {expr!r}")

    nodes = [compile_node(expr, ()) for expr in exprs]

    def run(rows: list[dict]) -> tuple:
        results = [None] * len(folds)
        for read, drop_nulls, indices in inputs.values():  # one input's values alive at a time
            values = rows if read is None else list(filter(_not_none, read(rows)) if drop_nulls else read(rows))
            for i in indices:
                results[i] = folds[i](values)
        return tuple(node(results) for node in nodes)

    return run


def evaluate_measure(view: CubeView, expr, rows: list[dict] | None = None):
    """Evaluate a measure over a row subset (defaults to the whole view)."""
    return _measure_program(view.cube, view.fact_id, (expr,))(view.rows() if rows is None else rows)[0]


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
    parse = m.AttributePath.parse
    keys = [key if isinstance(key, Column) else column(model, view.fact_id, parse(str(key))) for key in group_by]
    readers = [_reader(view.cube, view.fact_id, key) for key in keys]
    measure_attrs = executable_measures(model.entity(view.fact_id))

    rows = view.rows()
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for key, row in zip(zip(*(read(rows) for read in readers)) if readers else repeat((), len(rows)), rows):
        groups[key].append(row)

    # compiled only for a non-empty result, so an empty one raises no measure error
    program = _measure_program(view.cube, view.fact_id, [a.measure for a in measure_attrs]) if groups else None
    result_rows = [key + program(groups[key]) for key in sorted(groups, key=lambda k: tuple(map(_sort_token, k)))]

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
        rows = _filtered(view, plan.filters, bindings).rows()
        cells = _measure_program(cube, plan.fact.id, [attr.measure for attr in plan.measures])(rows)
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


def _text_rows(result: ResultTable) -> list[list[str]]:
    """The header, then each row as cell text."""
    key_count = len(result.group_keys)
    return [list(result.columns)] + [[_cell_text(v, i < key_count) for i, v in enumerate(row)] for row in result.rows]


def result_to_csv(result: ResultTable) -> str:
    import io

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(_text_rows(result))
    return buffer.getvalue()


def result_to_table(result: ResultTable) -> str:
    rendered = _text_rows(result)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(result.columns))]
    lines = []
    for idx, row in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"
