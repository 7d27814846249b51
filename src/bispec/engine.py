"""Desk-scale OLAP execution over CSV-loaded fact and dimension data.

A data package is a directory holding a plain-text manifest mapping entity
ids to CSV files. Loading enforces headers, declared types, and referential
integrity; queries are read-only over the immutable cube. Decimal arithmetic
is 64-bit float and Integer sums are exact.

No result depends on the order of the rows: a Decimal SUM is correctly
rounded (``math.fsum``), and the loader stores Decimal -0.0 as 0.0 and an
offset-aware DateTime or Time at UTC, so equal values print alike. A cube
whose load reported an error (``Cube.error``) answers no query, so a query
reads only references that resolved, into tables that loaded.

A table is one list per stored attribute, each ending with a null slot. A
dimension reference holds row positions in its target table, so a hop is a
C-level ``map`` of ``list.__getitem__``. Every query is a ``Plan`` that
``run_plan`` runs over the whole fact, compiled once into column readers
over fact row positions and measures that share aggregate leaves by expression.

A reader (``_reader``) touches each fact position once, through the fact
column or the first reference; its later steps run once per row of the
first hop's target when the query reads at least as many positions as
that target holds rows, a cost rule it applies itself.

``access_plan`` picks every other path as data (``AccessPlan``) from the
plan and the cube as it stands, and ``run_plan`` follows it: each filter a
``FarEnd`` or ``Scan``, the measures ``Folds``, ``Postings``, ``RowLoop`` or
``Positions``. Postings and member folds (``_Members``) are the only data a
query leaves behind: the first query through some references builds their
postings, a later one their member folds, and they die with the cube.
"""

from __future__ import annotations

import csv
import re
from array import array
from collections import defaultdict, deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, time, timezone
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat, tee
from math import fsum, inf, isfinite, prod
from operator import add, countOf, eq, floordiv, is_not, itemgetter, mod, mul, sub, truediv
from pathlib import Path

from . import model as m
from .diagnostics import Diagnostic, error, value, warning
from .plan import Column, EngineError, Filter, Parameter, Plan, measure_program, plan_operation, read_type

# an optional ``entity_id = "file.csv"`` entry, then an optional ``#`` comment
_MANIFEST_LINE = re.compile(r'\s*(?:([A-Za-z_][A-Za-z0-9_]*)\s*=\s*"([^"]+)"\s*)?(?:#.*)?')

CHUNK_ROWS = 2048  # CSV records parsed together, one column at a time


def parse_manifest(path: Path) -> dict[str, str]:
    """Read ``entity_id = "file.csv"`` lines; ``#`` outside the quoted file name
    starts a comment. An entity id or a file name may be mapped once."""
    mapping: dict[str, str] = {}
    seen: dict[str, int] = {}  # entity id or repr of a file name -> the line that maps it
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError:
        raise EngineError("ENG001", f"{path.name} line {_bad_utf8_line(path)}: not UTF-8 text") from None
    for number, line in enumerate(lines, start=1):
        match = _MANIFEST_LINE.fullmatch(line)
        if match is None:
            raise EngineError("ENG001", f"unreadable manifest line: {line.strip()!r}")
        if match.group(1) is not None:
            for name in (match.group(1), repr(match.group(2))):
                if seen.setdefault(name, number) != number:
                    raise EngineError("ENG001", f"{path.name} line {number}: {name} is already mapped on line {seen[name]}")
            mapping[match.group(1)] = match.group(2)
    return mapping


@dataclass
class Table:
    """One entity's stored attributes as column lists.

    Every column has ``size`` values, one per loaded row in file order, then
    a null slot. A reference cell parses as its target's primary key. A
    reference in ``targets`` holds row positions in that table, its null
    slot for a null key or one that names no row (ENG004); a reference to a
    table that did not load holds its keys.
    """

    entity_id: str
    data: dict[str, list]  # stored attribute id -> its column, attributes in header order
    size: int
    pk: str | None = None
    targets: dict[str, "Table"] = field(default_factory=dict)
    postings: dict = field(default_factory=dict, init=False, compare=False, repr=False)  # references tuple -> _postings
    # tuple of fact references -> _Members: each member's row count, member folds, kept groupings and combine plans
    folds: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.data)

    @property
    def rows(self) -> "Rows":
        """Every row as a dict (``Rows``); kept because ``perfbench/spans.py``
        counts a load's rows through it."""
        return Rows(self, range(self.size))

    def values(self, attr_id: str) -> list:
        """The column as loaded: a reference reads as its key."""
        target = self.targets.get(attr_id)
        return self.data[attr_id] if target is None else list(map(target.pk_values().__getitem__, self.data[attr_id]))

    def pk_values(self) -> list:
        """The primary key of each row position, null slot included."""
        return self.data[self.pk] if self.pk is not None else [None] * (self.size + 1)

    def posted(self, refs: tuple) -> tuple[array, array]:
        """The postings of the references ``refs`` (``_postings``), built on
        first use and kept, since a table never changes after load."""
        if refs not in self.postings:
            lists = _member_lists(self, refs)
            self.postings[refs] = _postings(lists, list(map(len, lists)))
        return self.postings[refs]

    def referencing(self, refs: tuple, members) -> Iterator[int]:
        """The positions of the rows whose references ``refs`` hold one of the
        member ids ``members`` (``_member_lists``), ascending within each
        member, members in the order of ``members``."""
        offsets, positions = self.posted(refs)
        return chain.from_iterable(positions[offsets[member]:offsets[member + 1]] for member in members)


def _member_space(table: Table, refs: tuple) -> int:
    """How many members the references ``refs`` of ``table`` have (``_member_lists``)."""
    return prod(table.targets[ref].size + 1 for ref in refs)


def _position_code(rows: int) -> str:
    """The typecode of the arrays holding row positions and row counts of a
    table of ``rows`` rows: 32-bit while every one fits in 31 bits."""
    return "i" if rows < 2**31 else "q"


def _member_lists(table: Table, refs: tuple) -> list[array]:
    """The positions of the table's rows per member of the references
    ``refs``, ascending, in one array per member (``_position_code``). A
    member is one combination of target rows, one row (or the null slot) of
    each reference's target, and its id is mixed-radix: the first
    reference's row, plus the next one's times the first target's size + 1,
    and so on; one reference's members are its target's rows. The rows go
    into their arrays in one C-level pass, the pass a row loop groups in,
    with no list of ids beside them and no Python int kept per row."""
    size = table.size
    ids = islice(table.data[refs[0]], size)
    radix = table.targets[refs[0]].size + 1
    for ref in refs[1:]:
        ids = map(add, ids, map(mul, islice(table.data[ref], size), repeat(radix)))
        radix *= table.targets[ref].size + 1
    code = _position_code(size)
    members = [array(code) for _ in range(radix)]
    deque(map(array.append, map(members.__getitem__, ids), range(size)), maxlen=0)
    return members


def _postings(members: list[array], counts: Sequence[int]) -> tuple[array, array]:
    """``_member_lists`` as ``(offsets, positions)``, given each member's
    rows: the rows of member ``m`` are ``positions[offsets[m]:offsets[m +
    1]]``, in two flat arrays of the members' typecode."""
    code = members[0].typecode
    positions = array(code)
    deque(map(positions.extend, members), maxlen=0)
    return array(code, accumulate(counts, initial=0)), positions


def _member_rows(table: Table, refs: tuple, ref: str) -> Iterator[int]:
    """The row of ``ref``'s target (``size`` for the null slot) that each
    member of ``refs`` holds, members in id order (``_member_lists``)."""
    stride = _member_space(table, refs[:refs.index(ref)])
    radix = table.targets[ref].size + 1
    space = _member_space(table, refs)
    rows = range(space) if stride == 1 else map(floordiv, range(space), repeat(stride))
    return rows if stride * radix == space else map(mod, rows, repeat(radix))


class Rows(Sequence):
    """The rows of ``table`` at ``positions`` as dicts, each built when read;
    the engine itself never reads them. Kept for ``Table.rows`` and
    ``CubeView.rows``, which ``perfbench/spans.py`` looks up by name."""

    def __init__(self, table: Table, positions):
        self.table = table
        self.positions = positions

    @cached_property
    def _columns(self) -> list:
        return [(name, self.table.values(name)) for name in self.table.columns]

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index: int) -> dict:
        position = self.positions[index]
        return {name: values[position] for name, values in self._columns}

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, Rows) else other)


@dataclass
class Cube:
    """Loaded tables for every entity, keyed joins derived from the model;
    ``error`` is the first error its load reported, and then no query runs."""

    model: m.SpecificationModel
    tables: dict[str, Table]
    error: Diagnostic | None = None

    def table(self, entity_id: str) -> Table:
        return self.tables[entity_id]

    def view(self, fact_id: str) -> "CubeView":
        table = self.tables.get(fact_id)
        return CubeView(self, fact_id, range(table.size if table is not None else 0))


_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}
_BOOLEAN_CELLS = {**_BOOLEANS, "": None}  # a chunk's Boolean cell, lower-cased -> its value


def _boolean(value: str) -> bool:
    if value.lower() not in _BOOLEANS:
        raise ValueError(f"{value!r} is not a boolean")
    return _BOOLEANS[value.lower()]


_INT64 = range(-2**63, 2**63)  # an Integer cell or bound value is a signed 64-bit integer, as in SQLite


def _numeric_text(text: str, decimal: bool) -> bool:
    """Whether text that ``int`` or ``float`` reads is a number to SQLite too:
    ASCII, without digit-group underscores and, for a Decimal, not nan, inf or
    infinity (each spelling of which holds an ``n``)."""
    return text.isascii() and "_" not in text and not (decimal and "n" in text.lower())


def _integer(value: str) -> int:
    try:
        if not _numeric_text(value, False):
            raise ValueError
        number = int(value)
    except ValueError:
        raise ValueError(f"{value!r} is not an Integer") from None
    if number not in _INT64:
        raise ValueError(f"{value!r} is outside the 64-bit Integer range")
    return number


def _decimal(value: str) -> float:
    try:
        if not _numeric_text(value, True):
            raise ValueError
        return float(value) + 0.0  # -0.0 loads as 0.0, as SQLite stores it
    except ValueError:
        raise ValueError(f"{value!r} is not a Decimal") from None


_PARSERS = {"UUID": str, "String": str, "Integer": _integer, "Decimal": _decimal, "Boolean": _boolean,
            "Date": date.fromisoformat, "DateTime": datetime.fromisoformat, "Time": time.fromisoformat}
_NUMBERS = {_integer: int, _decimal: float}  # a numeric coercer -> what parses a chunk's column once its text is checked


def _coercer(model: m.SpecificationModel, attr_type: m.AttributeType | None):
    """The parser of one non-empty cell or bound value of a column whose values
    read as ``attr_type`` (``plan.read_type``); it raises ValueError."""
    kind = attr_type.kind if attr_type is not None else None
    if kind == "primitive":
        parse = _PARSERS[attr_type.name]
        return _one_awareness(parse) if attr_type.name in ("DateTime", "Time") else parse
    enum = model.enumeration(attr_type.name) if kind == "enum" else None
    return str if enum is None else _Enumeration(attr_type.name, enum.values)


class _Enumeration:
    """The parser of one enumeration's cells; ``own`` maps each of its values to
    itself, so every cell of a value holds the enumeration's own object."""

    def __init__(self, name: str, values):
        self.name = name
        self.own = dict(zip(values, values))

    def __call__(self, value: str) -> str:
        own = self.own.get(value)
        if own is None:
            raise ValueError(f"{value!r} is not a value of enumeration {self.name}")
        return own


def _one_awareness(parse):
    """``parse`` of DateTime or Time cells, refusing a value that is offset-aware
    where the first value it parsed is offset-naive, or the other way round:
    the two kinds do not compare, so MIN and MAX could not fold a column of both.
    An offset-aware value moves to UTC, a Time wrapping past midnight, so one
    instant prints one way and group keys sort by instant."""
    first = []  # whether the first value parsed is offset-aware

    def parse_alike(value: str):
        parsed = parse(value)
        aware = parsed.tzinfo is not None
        if not first:
            first.append(aware)
        elif aware != first[0]:
            kinds = ("offset-aware", "offset-naive") if aware else ("offset-naive", "offset-aware")
            raise ValueError(f"{value!r} is {kinds[0]} but the column's first value is {kinds[1]}")
        if not aware:
            return parsed
        try:
            if parsed.__class__ is time:
                return datetime.combine(date(2000, 1, 2), parsed).astimezone(timezone.utc).timetz()
            return parsed.astimezone(timezone.utc)
        except OverflowError:
            raise ValueError(f"{value!r} lies outside the DateTime range at UTC") from None

    return parse_alike


def load_cube(model: m.SpecificationModel, data_dir: str | Path) -> tuple[Cube, list[Diagnostic]]:
    """Load a data package; the model must already have passed checks clean.

    Tables load in ``model.reference_order()``, the order of the DDL, so most
    references resolve to row positions chunk by chunk; the rest (reference
    cycles and self-references) resolve once every table is in. Diagnostics
    come per entity in declaration order, then every ENG004 per entity and
    reference.
    """
    data_dir = Path(data_dir)
    diags: list[Diagnostic] = []
    manifest_path = data_dir / "manifest.toml"
    if not manifest_path.is_file():
        failed = error("ENG001", f"missing manifest: {manifest_path}")
        return Cube(model, {}, failed), [failed]
    try:
        manifest = parse_manifest(manifest_path)
    except EngineError as exc:
        failed = error(exc.code, str(exc))
        return Cube(model, {}, failed), [failed]

    for key in sorted(manifest):
        if model.entity(key) is None:
            diags.append(warning("ENG001", f"manifest entry {key!r} matches no entity; ignored"))

    tables: dict[str, Table] = {}
    indexes: dict[str, dict] = {}  # entity id some reference targets -> {primary key: first row position}
    referenced = {attr.dimension_target for entity in model.entities for attr in entity.dimension_refs}
    table_diags: dict[str, list[Diagnostic]] = {}
    dangling: dict[tuple[str, str], list[Diagnostic]] = defaultdict(list)  # (entity id, reference) -> ENG004s
    ordered, cyclic = model.reference_order()
    for entity in ordered + cyclic:
        own = table_diags[entity.id] = []
        filename = manifest.get(entity.id)
        if filename is None or not (data_dir / filename).is_file():
            own.append(error("ENG001", f"no data file for entity {entity.id}"))
            continue
        table = _load_table(entity, model, data_dir / filename, tables, indexes, own, dangling, entity.id in referenced)
        if table is not None:
            tables[entity.id] = table

    for table in tables.values():
        entity = model.entity(table.entity_id)
        for attr in entity.dimension_refs:
            target = tables.get(attr.dimension_target)
            if target is not None and attr.id not in table.targets:  # its target loaded later
                keys = table.data[attr.id]
                table.data[attr.id] = _resolve(keys, 0, indexes[target.entity_id], target, entity.id, attr.id, dangling)
                table.targets[attr.id] = target
        for attr_id, values in table.data.items():
            target = table.targets.get(attr_id)
            values.append(None if target is None else target.size)  # the null slot

    for entity in model.entities:
        diags.extend(table_diags[entity.id])
    for entity in model.entities:
        for attr in entity.dimension_refs:
            diags.extend(dangling.get((entity.id, attr.id), ()))
    return Cube(model, tables, next((d for d in diags if d.is_error), None)), diags


def _load_table(entity: m.DataEntity, model: m.SpecificationModel, path: Path, tables: dict[str, Table],
                indexes: dict[str, dict], diags: list[Diagnostic], dangling, referenced: bool) -> Table | None:
    """Read one CSV in chunks of ``CHUNK_ROWS`` records into column lists (no
    null slot yet). A reference to a table in ``tables`` resolves chunk by chunk
    through its index; any other keeps its keys. Duplicate primary keys
    are reported after the rejected rows; the first row with a key is the one
    references reach. Only a ``referenced`` entity, one that some reference
    targets, keeps its index in ``indexes``; any other checks its keys
    through a set."""
    stored = [a for a in entity.attributes if not a.is_measure]
    expected = tuple(a.id for a in stored)
    coercers = [_coercer(model, read_type(model, a)) for a in stored]
    refs = [(i, a.id, tables[a.dimension_target]) for i, a in enumerate(stored) if a.dimension_target in tables]
    pk = entity.primary_key
    pk_at = expected.index(pk.id) if pk is not None else None
    index: dict | set = {} if referenced else set()
    duplicates: list[Diagnostic] = []
    columns: list[list] = [[] for _ in stored]
    size = 0
    done = 0  # lines read before the first line of ``reader``
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                diags.append(error("ENG002", f"{path.name}: empty file, expected header {', '.join(expected)}"))
                return None
            if tuple(header) != expected:
                got = ", ".join(header)
                diags.append(error("ENG002", f"{path.name}: header mismatch; expected ({', '.join(expected)}) got ({got})"))
                return None
            done, reader = reader.line_num, None  # split plain chunks until the first that is not
            records = 0
            while chunk := list(islice(handle if reader is None else reader, CHUNK_ROWS)):
                read = len(chunk)
                if reader is not None:
                    texts = list(zip(*chunk)) if set(map(len, chunk)) == {len(stored)} else None
                elif (texts := _plain_columns(chunk, len(stored))) is not None:
                    done += read
                    chunk = zip(*texts)  # its records, read only if the chunk goes row by row
                else:
                    reader = csv.reader(chain(chunk, handle))  # this chunk and the rest of the file
                    continue
                count, cells = _parse_chunk(texts, chunk, read, f"{path.name} row", records + 1, stored, coercers, diags)
                records += read
                if pk_at is not None:
                    duplicates += [
                        error("ENG003", f"{path.name} row {position + 1}, column {pk.id}: duplicate primary key {key!r}")
                        for position, key in _claim_keys(cells[pk_at], size, index)
                    ]
                for i, attr_id, target in refs:
                    cells[i] = _resolve(cells[i], size, indexes[target.entity_id], target, entity.id, attr_id, dangling)
                for values, new in zip(columns, cells):
                    values += new
                size += count
    except UnicodeDecodeError:
        diags.append(error("ENG002", f"{path.name} line {_bad_utf8_line(path)}: not UTF-8 text"))
        return None
    except csv.Error as exc:
        diags.append(error("ENG002", f"{path.name} line {done + reader.line_num}: {exc}"))
        return None
    diags += duplicates
    if referenced:
        index.pop(None, None)  # a null key reaches the null slot
        indexes[entity.id] = index
    return Table(entity.id, dict(zip(expected, columns)), size, pk.id if pk is not None else None,
                 {attr_id: target for _, attr_id, target in refs})


def _claim_keys(keys: list, first: int, index: dict | set) -> list[tuple[int, object]]:
    """``(position, key)`` of each row whose primary key an earlier row holds,
    in row order, for keys whose first row is at position ``first``; ``index``
    takes the others, as ``{key: position}`` or, as a set, the keys alone. A
    chunk of keys new to a set joins it at once."""
    if index.__class__ is dict:
        positions = range(first, first + len(keys))
        claimed = list(map(index.setdefault, keys, positions))
        if claimed == list(positions):
            return []
        return [(position, key) for position, held, key in zip(positions, claimed, keys) if held != position]
    fresh = set(keys)
    if len(fresh) == len(keys) and index.isdisjoint(fresh):
        index |= fresh
        return []
    repeated = []
    for position, key in enumerate(keys, first):
        if key in index:
            repeated.append((position, key))
        else:
            index.add(key)
    return repeated


def _bad_utf8_line(path: Path) -> int:
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 1


def _plain_columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The columns of a chunk of CSV lines (a file's lines, their line ends
    kept) that ``csv.reader`` would split exactly as ``,`` does, else None: no
    ``"``, ``\\r`` or NUL, no blank line, exactly ``width`` - 1 commas on each
    line and no line longer than ``csv.field_size_limit()``. Such a chunk is
    split once and ``lines`` is emptied, so the lines and their cells are not
    held at once."""
    if (countOf(map(str.count, lines, repeat(",")), width - 1) != len(lines) or "\n" in lines
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text:
        return None
    end = len(lines) * width  # past the last line's cells, before the empty one its line end (if any) leaves
    lines.clear()
    text = text.replace("\n", ",")
    cells = text.split(",")
    del text
    return [cells[i:end:width] for i in range(width)]


def _parse_column(coerce, cells: tuple) -> list:
    """One column of a chunk; an Integer or Decimal column checks its text once,
    then parses with ``int`` or ``float``, and an Integer column checks its range
    once, by its least and greatest value; a Decimal column holding a ``-``
    turns -0.0 into 0.0, as ``_decimal`` does. A Boolean column is looked up in
    one table, lower-cased, and an enumeration column in its values. Any other
    column holding an empty cell parses each distinct text once, in the order
    the texts first occur, so a DateTime column's first value is the file's.
    A failed check sends the chunk row by row."""
    if coerce in _NUMBERS:
        text = "".join(cells)
        if not _numeric_text(text, coerce is _decimal):
            raise ValueError("text that is no number to SQLite")
        values = _parse_column(_NUMBERS[coerce], cells)
        if coerce is _integer:
            least, greatest = min(filter(None, values), default=0), max(filter(None, values), default=0)
            if least not in _INT64 or greatest not in _INT64:
                raise ValueError("an Integer outside the 64-bit range")
        elif "-" in text:
            values = [None if value is None else value + 0.0 for value in values]
        return values
    if coerce is _boolean:
        try:
            return list(map(_BOOLEAN_CELLS.__getitem__, map(str.lower, cells)))
        except KeyError:
            raise ValueError("a cell that is no Boolean") from None
    if coerce.__class__ is _Enumeration:
        values = list(map(coerce.own.get, cells))
        if values.count(None) != cells.count(""):
            raise ValueError("a cell that is no value of the enumeration")
        return values
    if "" not in cells:
        return list(cells) if coerce is str else list(map(coerce, cells))
    if coerce is str:
        return [raw or None for raw in cells]
    texts = dict.fromkeys(cells)
    del texts[""]
    parsed = dict(zip(texts, map(coerce, texts)))
    parsed[""] = None
    return list(map(parsed.__getitem__, cells))


def _parse_chunk(texts: list | None, records, read: int, where: str, first: int, stored, coercers,
                 diags: list[Diagnostic]) -> tuple[int, list]:
    """The chunk's records that load, counted and as one list per column.
    ``texts`` holds the chunk's columns of cell text when each of its ``read``
    records has the table's width, else None; ``records`` yields its records.
    A chunk holding a bad record goes row by row, and ``_reject`` reports it."""
    if texts is not None and not any(attr.not_null and "" in values for attr, values in zip(stored, texts)):
        try:
            return read, [_parse_column(coerce, values) for coerce, values in zip(coercers, texts)]
        except ValueError:
            pass
    width = len(stored)
    required = [i for i, a in enumerate(stored) if a.not_null]
    rows = []
    for number, record in enumerate(records, start=first):
        if len(record) == width and ("" not in record or all(map(record.__getitem__, required))):
            try:
                rows.append([coerce(raw) if raw else None for coerce, raw in zip(coercers, record)])
                continue
            except ValueError:
                pass
        _reject(f"{where} {number}", record, stored, coercers, diags)
    return len(rows), [list(values) for values in zip(*rows)] if rows else [[] for _ in stored]


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


def _resolve(keys: list, first: int, index: dict, target: Table, entity_id: str, attr_id: str, dangling) -> list:
    """Row positions in ``target`` for references whose first row is at position
    ``first``; a null key gets the null slot, and so does a dangling key (ENG004)."""
    null = target.size
    positions = list(map(index.get, keys, repeat(null)))
    if positions.count(null) != keys.count(None):
        for i, key in enumerate(keys):
            if key is not None and key not in index:
                where = f"{entity_id} row {first + i + 1}, column {attr_id}"
                dangling[entity_id, attr_id].append(error("ENG004", f"{where}: no {target.entity_id} row with key {key!r}"))
    return positions


# ---------------------------------------------------------------------------
# Column readers
# ---------------------------------------------------------------------------

_not_none = partial(is_not, None)


def _null(position):
    return None


def _steps(cube: Cube, fact_id: str, col: Column, test=None) -> tuple:
    """``col``'s read, or ``test(value)``'s, as ``(steps, hops)``.

    The first step takes the one fact-side step per position, through the
    fact column or the first reference; each later one maps the value before
    it. A list is read at that value, any other step is called on it.
    ``hops`` holds ``(table, reference)`` for each leading step through a
    reference, a reference read as its key included.
    """
    table = cube.tables[fact_id]
    steps = []  # a list is read at the value before it; a function maps it
    hops = []
    for fk, _ in col.chain:
        hops.append((table, fk))
        steps.append(table.data[fk])
        table = table.targets[fk]
    attr = col.attribute
    if attr.is_measure:  # not stored per row: reads as null
        steps.append(_null)
    elif attr.id in table.targets:  # a reference reads as its key
        hops.append((table, attr.id))
        steps += [table.data[attr.id], table.targets[attr.id].pk_values()]
    else:
        steps.append(table.data[attr.id])
    if test is not None:
        steps.append(test)
    return steps, hops


def _first_reference(col: Column) -> str:
    """The fact attribute ``col`` is read through."""
    return col.chain[0][0] if col.chain else col.attribute.id


def _function(step):
    """``_steps``' step as a function of the value before it."""
    return step.__getitem__ if step.__class__ is list else step


def _mapped(functions, values):
    """``values`` mapped through each of ``functions`` in turn."""
    for function in functions:
        values = map(function, values)
    return values


def _reader(cube: Cube, fact_id: str, col: Column, reads: int, test=None, distinct: bool = False):
    """A function from fact row positions to an iterator of ``col``'s values,
    or of ``test(value)`` (see ``_steps``).

    When the query reads at least as many positions in all (``reads``) as
    the first hop's target holds rows, the later steps run once per target
    row into one dimension-side list, which the fact-side step then
    indexes; else they stay chained. A ``range`` over the whole fact walks
    the stored fact-side column itself, and ``read(positions, gather)``
    reads it with ``gather``, an ``itemgetter`` of the positions, in one
    call. With ``distinct`` the later steps run once per distinct first-hop
    value.
    """
    fact = cube.tables[fact_id]
    steps, _ = _steps(cube, fact_id, col, test)
    column = steps[0] if steps[0].__class__ is list else None
    first, *rest = map(_function, steps)
    if len(rest) > 1 and reads >= (landing := fact.targets[_first_reference(col)]).size:
        rest = [list(_mapped(rest, range(landing.size + 1))).__getitem__]  # its rows and null slot
    size = fact.size
    whole = range(size)

    def read(positions, gather=None):
        if column is not None and positions == whole:
            values = islice(column, size)
        elif column is not None and gather is not None:
            values = gather(column)
        else:
            values = map(first, positions)
        if distinct:
            values = dict.fromkeys(values)
        for step in rest:
            values = map(step, values)
        return values

    return read


def _far_end(cube: Cube, fact_id: str, col: Column, test) -> list[int]:
    """The rows (null slot included) of the first hop's target that the fact
    positions whose ``col`` passes ``test`` reference: ``test`` runs once per
    row of the last table ``_steps``' hops reach, and the hits walk back
    through each later hop's postings, a null slot hitting when the next one does."""
    steps, hops = _steps(cube, fact_id, col, test)
    table, ref = hops[-1]
    hits = list(compress(count(), _mapped(map(_function, steps[len(hops):]), range(table.targets[ref].size + 1))))
    for table, ref in reversed(hops[1:]):
        rows = list(table.referencing((ref,), hits))
        if hits and hits[-1] == table.targets[ref].size:  # the null slot comes last
            rows.append(table.size)
        hits = rows
    return hits


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def _bound_value(model: m.SpecificationModel, filt: Filter, bindings: dict):
    """The filter's literal, or its parameter's binding coerced to the column type."""
    param = filt.value
    if not isinstance(param, Parameter):
        return param
    key = param.key(bindings)
    if key is None:
        bind = f"--bind {param.name}=<value>"
        raise EngineError("ENG010", f"unbound parameter {param.name!r} (for {param.path}); supply {bind}")
    value = bindings[key]
    if not isinstance(value, str):
        return value
    attr_type = read_type(model, filt.column.attribute)
    try:
        return _coercer(model, attr_type)(value)
    except ValueError:
        raise EngineError("ENG010", f"parameter {param.name!r} expects {attr_type.name}, got {value!r}") from None


@value
class CubeView:
    """Fact row positions of a cube. ``Cube.view`` makes one over the whole
    fact, which ``run_plan`` takes as its ENG030 gate; ``rows`` is kept
    because ``perfbench/spans.py`` looks it up by name."""

    cube: Cube
    fact_id: str
    positions: Sequence[int]

    def __post_init__(self):
        """Every query passes here, so a cube whose load reported an error answers none."""
        error = self.cube.error
        if error is not None:
            raise EngineError("ENG030", f"the data package did not load: {error.code} {error.message}")
        if self.fact_id not in self.cube.tables:
            raise EngineError("ENG030", f"no data loaded for {self.fact_id}")

    def rows(self) -> Rows:
        return Rows(self.cube.tables[self.fact_id], self.positions)


def _filtered(cube: Cube, fact_id: str, filters, paths, values) -> Sequence[int]:
    """The fact positions that ``filters`` keep, each along its path in ``paths``
    with its bound value in ``values``, testing what the filters before it
    kept; a far end keeps the positions that reference its rows, in postings order."""
    fact = cube.tables[fact_id]
    positions = range(fact.size)
    for filt, path, value in zip(filters, paths, values):
        test = partial(eq, value)
        if path.__class__ is FarEnd:
            positions = list(fact.referencing((path.ref,), _far_end(cube, fact_id, filt.column, test)))
        else:
            positions = list(compress(positions, _reader(cube, fact_id, filt.column, len(positions), test)(positions)))
    return positions


def _sliced(cube: Cube, fact_id: str, filters, access: AccessPlan, values, exprs) -> tuple[int, tuple]:
    """``(row_count, cells)``: how many fact rows the filters keep, and the
    measures over them, by ``access.measures``: the member folds of a
    Slice's far end (``Folds``), or the kept positions (``Positions``)."""
    if access.measures.__class__ is Folds:
        rows = _far_end(cube, fact_id, filters[0].column, partial(eq, values[0]))
        return _member_program(cube, fact_id, access.measures.refs, exprs)(_gather(rows))
    positions = _filtered(cube, fact_id, filters, access.filters, values)
    return len(positions), _measure_program(cube, fact_id, exprs, len(positions))(positions)


# ---------------------------------------------------------------------------
# Measure evaluation
# ---------------------------------------------------------------------------

_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": truediv}


# Aggregates over one group's values as read, nulls included, each one C-level
# pass: COUNT counts the non-nulls, and AVERAGE is SUM over COUNT. An Integer
# SUM is exact; a Decimal SUM is correctly rounded, so it does not depend on
# the order of its values (``filter(None)`` would turn an all-zero sum's ``0.0``
# into ``0``). MIN and MAX drop nulls. Measure results are plain values (int,
# float, date or None); null arises only from empty AVERAGE/MIN/MAX groups and
# division by zero.
def _count(values) -> int:
    return len(values) - values.count(None)


def _average(total):
    def average(values):
        count = _count(values)
        return total(values) / count if count else None

    return average


def _decimal_sum(values):
    """The correctly rounded sum, the Integer 0 of no values: the sum of the
    infinities where there are any (nan for inf with -inf), else the exact
    sum rounded once, ±inf past the float range."""
    if not _count(values):
        return 0
    try:
        return fsum(filter(_not_none, values))
    except (ValueError, OverflowError):  # inf with -inf, or partial sums past the float range
        values = list(filter(_not_none, values))
    if not all(map(isfinite, values)):
        return sum(filterfalse(isfinite, values))
    from fractions import Fraction  # imported only here, off the import path of ``bispec``

    exact = sum(map(Fraction, values))
    past = abs(exact) >= 2**1024 - 2**970  # rounds past the largest float
    return (inf if exact > 0 else -inf) if past else float(exact)


def _integer_sum(values) -> int:
    return sum(filter(None, values))


def _min(values):
    return min(filter(_not_none, values), default=None)


def _max(values):
    return max(filter(_not_none, values), default=None)


_decimal_average, _integer_average = _average(_decimal_sum), _average(_integer_sum)
_FOLDS = {"COUNT": _count, "SUM": _decimal_sum, "AVERAGE": _decimal_average, "MIN": _min, "MAX": _max}
_INTEGER_FOLDS = {**_FOLDS, "SUM": _integer_sum, "AVERAGE": _integer_average}


def _hits(values) -> int:
    """COUNT of the rows a predicate holds for."""
    return countOf(values, True)


def _leaf_input(model: m.SpecificationModel, leaf) -> tuple:
    """A measure leaf's ``(column, test, distinct, fold)``: the column it reads
    (None where the fold takes the positions themselves), the ``==`` of a
    predicate leaf, whether MIN or MAX reads its distinct first-hop values,
    and the fold of the values read."""
    if isinstance(leaf.input, Filter):
        return leaf.input.column, partial(eq, leaf.input.value), False, _hits
    col = leaf.input
    if leaf.fn == "COUNT" and not col.chain and col.attribute.not_null:
        return None, None, False, len  # COUNT of a NOT NULL fact column is the number of rows
    attr_type = read_type(model, col.attribute)
    integer = attr_type is not None and (attr_type.kind, attr_type.name) == ("primitive", "Integer")
    return col, None, leaf.fn in ("MIN", "MAX") and bool(col.chain), (_INTEGER_FOLDS if integer else _FOLDS)[leaf.fn]


def _input_key(leaf, col: Column | None, test, distinct: bool):
    """What a measure leaf reads (``_leaf_input``), as a key the leaves that
    read the same share: ``(chain, attribute id, distinct)`` or ``(chain,
    attribute id, "=", predicate value)``, or None for the positions themselves."""
    if col is None:
        return None
    return (col.chain, col.attribute.id, distinct) if test is None else (col.chain, col.attribute.id, "=", leaf.input.value)


def _arithmetic(op, a, b):
    """Null when either side is null or a divisor is zero."""
    return None if a is None or b is None or (op is truediv and b == 0) else op(a, b)


def _root(node):
    """A function from the leaf results to a measure program root's value."""
    if isinstance(node, int):
        return itemgetter(node)
    if isinstance(node, m.Literal):
        return lambda results: node.value
    op, left, right = _ARITHMETIC[node[0]], _root(node[1]), _root(node[2])
    return lambda results: _arithmetic(op, left(results), right(results))


def _measure_program(cube: Cube, fact_id: str, exprs, reads: int):
    """Compile the planner's measure program into one function from a group's
    row positions to the measures' values; ``reads`` counts the positions of
    every group together. Each distinct input is read once per group, its
    stored fact-side column through one ``itemgetter`` of the group's
    positions, and each distinct fold of it runs once: a predicate counts its
    hits as they are read, any other input is read into one tuple, MIN or
    MAX through a hop over the distinct first-hop values."""
    model = cube.model
    program = measure_program(model, fact_id, exprs)
    inputs: dict = {}  # _input_key -> (reader, listed, {fold: leaf indices})
    for index, leaf in enumerate(program.leaves):
        col, test, distinct, fold = _leaf_input(model, leaf)
        key = _input_key(leaf, col, test, distinct)
        if key not in inputs:
            inputs[key] = (None if col is None else _reader(cube, fact_id, col, reads, test, distinct), test is None, {})
        inputs[key][2].setdefault(fold, []).append(index)
    nodes = [_root(root) for root in program.roots]
    width = len(program.leaves)

    def run(positions) -> tuple:
        results = [None] * width
        gather = itemgetter(*positions) if len(positions) > 1 else None  # of one position it returns no tuple
        for read, listed, folds in inputs.values():  # one input's values alive at a time
            values = positions if read is None else tuple(read(positions, gather)) if listed else read(positions, gather)
            for fold, indices in folds.items():
                result = fold(values)
                for i in indices:
                    results[i] = result
        return tuple(node(results) for node in nodes)

    return run


def evaluate_measure(view: CubeView, expr, rows: Rows | None = None):
    """Evaluate a measure over a subset of the view's rows, as ``CubeView.rows()``
    returns them (defaults to the whole view). No query calls it: it is kept
    because ``perfbench/spans.py`` looks it up by name."""
    positions = view.positions if rows is None else rows.positions
    return _measure_program(view.cube, view.fact_id, (expr,), len(positions))(positions)[0]


# ---------------------------------------------------------------------------
# Member folds
# ---------------------------------------------------------------------------

# A member is one combination of target rows of a tuple of fact references
# (``_member_lists``); one reference's members are its target's rows, null slot
# included. A member fold is one fold run over each member's values of one
# input, one slot per member, and a group of members combines its slots:
# COUNT, a predicate COUNT and an Integer SUM by adding them, MIN and MAX by
# folding them again. Members without rows hold 0 or None, which combine to
# nothing.
_COMBINE = {_count: sum, _hits: sum, _integer_sum: sum, _min: _min, _max: _max}


def _member_folds(folds, values: tuple, offsets) -> list:
    """Each of ``folds`` over each member's values (``values`` in postings
    order, member ``m``'s at ``offsets[m]:offsets[m + 1]``), one slot per fold:
    each member's values are sliced once, for every fold in turn. Counts and
    sums go in one machine integer each when every one fits in 64 bits, else
    in a list."""
    slots = [[] for _ in folds]
    segments = tee(map(values.__getitem__, map(slice, offsets, islice(offsets, 1, None))), len(folds))
    # the folds take each member's slice in lockstep, so the tee holds one slice at a time
    deque(zip(*(map(slot.append, map(fold, each)) for slot, fold, each in zip(slots, folds, segments))), maxlen=0)
    for i, fold in enumerate(folds):
        if _COMBINE[fold] is sum:
            try:
                slots[i] = array("q", slots[i])
            except OverflowError:  # a sum past 64 bits
                pass
    return slots


def _counts(offsets: array) -> Iterator[int]:
    """Each member's rows, from the offsets of its postings (``_postings``)."""
    return map(sub, islice(offsets, 1, None), offsets)


def _gather(members: Sequence[int]):
    """A function from one slot per member to a sequence of its values at ``members``."""
    if len(members) > 1:
        return itemgetter(*members)
    return itemgetter(slice(members[0], members[0] + 1) if members else slice(0))  # a sequence, as for several


def _row_count(rows: int) -> int:
    return rows


def _total(rows: int, total):
    return total


def _quotient(rows: int, total: int, counted: int):
    return total / counted if counted else None


# How each fold but a Decimal SUM or AVERAGE is computed from member folds (a
# sum of correctly rounded sums would round twice): the folds of its input it
# reads per member, and its value from the group's row count and their
# combinations over the group, which is what it gives over the group's rows.
_MEMBER_FOLDS = {len: ((), _row_count), _hits: ((_hits,), _total), _count: ((_count,), _total),
                 _integer_sum: ((_integer_sum,), _total), _integer_average: ((_integer_sum, _count), _quotient),
                 _min: ((_min,), _total), _max: ((_max,), _total)}


@dataclass
class _Members:
    """What a fact keeps for a tuple of its references once they have served
    a query: each member's row count, the member folds measures have needed,
    the members grouped by each key list queried and each measure program's
    combine plan. It changes only by growing, and dies with the cube."""

    counts: array  # each member's rows
    slots: dict = field(default_factory=dict)  # (_input_key, fold run per member) -> one slot per member
    groupings: dict = field(default_factory=dict)  # keys -> [(key value, _gather of its members, their rows)]
    plans: dict = field(default_factory=dict)  # id of a measure program -> (that program, held so the id is not reused; its plan)

    @cached_property
    def ids(self) -> list[int]:
        """The member ids, one int object each, which every kept grouping shares."""
        return list(range(len(self.counts)))


def _member_program(cube: Cube, fact_id: str, refs: tuple, exprs):
    """A function from a ``_gather`` of members of the fact references ``refs``
    (and their row count, when known) to ``(row_count, cells)`` over their fact
    rows, combining member folds (``Folds``); it is kept per measure program."""
    fact, program = cube.tables[fact_id], measure_program(cube.model, fact_id, exprs)
    kept = fact.folds.get(refs)
    if kept is None:
        offsets = fact.postings[refs][0]
        kept = fact.folds[refs] = _Members(array(offsets.typecode, _counts(offsets)))
    if id(program) not in kept.plans:
        kept.plans[id(program)] = (program, _combine_plan(cube, fact_id, refs, program))
    return kept.plans[id(program)][1]


def _combine_plan(cube: Cube, fact_id: str, refs: tuple, program):
    """``_member_program``'s function for one measure program: the member folds
    its measures need that are missing are built first, and kept, each input
    read once over the whole fact in postings order; a group then combines
    each slot it reads through one gather of its members."""
    model = cube.model
    fact = cube.tables[fact_id]
    kept = fact.folds[refs]
    offsets, positions = fact.postings[refs]
    inputs: dict = {}  # _input_key -> (column, test, the folds it runs per member)
    leaves = []  # per leaf: (its value from the row count and totals, the (key, fold) slots it reads)
    for leaf in program.leaves:
        col, test, distinct, fold = _leaf_input(model, leaf)
        key = _input_key(leaf, col, test, distinct)
        per_member, finish = _MEMBER_FOLDS[fold]
        inputs.setdefault(key, (col, test, {}))[2].update(dict.fromkeys(per_member))
        leaves.append((finish, [(key, each) for each in per_member]))
    for key, (col, test, per_member) in inputs.items():
        missing = [each for each in per_member if (key, each) not in kept.slots]
        if missing:
            values = tuple(_reader(cube, fact_id, col, fact.size, test)(positions))
            kept.slots.update(zip([(key, each) for each in missing], _member_folds(missing, values, offsets)))
    names = list(dict.fromkeys(name for _, each in leaves for name in each))
    slots = [(kept.slots[name], _COMBINE[name[1]]) for name in names]
    leaves = [(finish, [names.index(name) for name in each]) for finish, each in leaves]
    counts = kept.counts
    nodes = [_root(root) for root in program.roots]

    def run(gather, row_count: int | None = None) -> tuple[int, tuple]:
        if row_count is None:
            row_count = sum(gather(counts))
        totals = [combine(gather(slot)) for slot, combine in slots]
        results = [finish(row_count, *map(totals.__getitem__, at)) for finish, at in leaves]
        return row_count, tuple(node(results) for node in nodes)

    return run


# ---------------------------------------------------------------------------
# Grouping and results
# ---------------------------------------------------------------------------


@value
class ResultTable:
    group_keys: tuple[str, ...]
    measure_names: tuple[str, ...]
    rows: tuple[tuple, ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return self.group_keys + self.measure_names


def _sort_token(value):
    """Sort key matching SQL ``ORDER BY``: NULL first, numbers by value."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, str(int(value)))
    if isinstance(value, (int, float)):  # an int and a float compare exactly
        return (2, value)
    if isinstance(value, (date, datetime, time)):
        return (3, value.isoformat())
    return (3, str(value))


def _key_order(single: bool):
    """The sort key of group keys: a bare value for one key, else a tuple."""
    return _sort_token if single else lambda key: tuple(map(_sort_token, key))


def _member_grouping(fact: Table, refs: tuple, reads, counts, ids) -> list:
    """``(key value, members)`` in key order for each value of the keys that
    some member with rows holds: bare for one key, a tuple for several, with
    the ids of those members (``_member_lists``), taken from ``ids``. ``reads``
    holds, per key, its first reference and its later steps as functions,
    which run once per row of that reference's target, null slot included;
    ``counts`` holds each member's rows."""
    values = []
    for ref, functions in reads:
        per_row = list(_mapped(functions, range(fact.targets[ref].size + 1)))
        values.append(map(per_row.__getitem__, _member_rows(fact, refs, ref)))
    groups = defaultdict(list)
    for value, member in compress(zip(values[0] if len(reads) == 1 else zip(*values), ids), counts):
        groups[value].append(member)
    order = _key_order(len(reads) == 1)
    return sorted(groups.items(), key=lambda group: order(group[0]))


def _member_groups(cube: Cube, fact_id: str, keys, exprs, path) -> list:
    """``(key value, cells)`` in key order for each group of the whole fact by
    ``keys``, by member of ``path.refs`` (``Postings`` or ``Folds``, whose
    grouping is kept); a group no fact row reaches is left out."""
    fact, refs = cube.tables[fact_id], path.refs
    reads = [(_first_reference(key), list(map(_function, _steps(cube, fact_id, key)[0][1:]))) for key in keys]
    if path.__class__ is Postings:
        program = _measure_program(cube, fact_id, exprs, fact.size)
        grouping = _member_grouping(fact, refs, reads, _counts(fact.posted(refs)[0]), count())
        return [(value, program(list(fact.referencing(refs, members)))) for value, members in grouping]
    combine = _member_program(cube, fact_id, refs, exprs)
    kept = fact.folds[refs]
    name = tuple((key.chain, key.attribute.id) for key in keys)
    grouping = kept.groupings.get(name)
    if grouping is None:
        by_value = _member_grouping(fact, refs, reads, kept.counts, kept.ids)
        gathers = [(value, _gather(members)) for value, members in by_value]
        grouping = kept.groupings[name] = [(value, gather, sum(gather(kept.counts))) for value, gather in gathers]
    return [(value, combine(gather, rows)[1]) for value, gather, rows in grouping]


def aggregate(cube: Cube, plan: Plan, path) -> ResultTable:
    """Group the fact's rows by ``plan.keys`` along ``path``, by member or reading
    every position (``RowLoop``), and evaluate ``plan.measures`` per group, for a
    roll-up, drill-down or pivot; ``perfbench/spans.py`` wraps it by name."""
    fact_id, keys = plan.fact.id, plan.keys
    positions, exprs = range(cube.tables[fact_id].size), [a.measure for a in plan.measures]

    single = len(keys) == 1  # groups on bare values, made 1-tuples once per group
    if path.__class__ is not RowLoop:
        grouped = _member_groups(cube, fact_id, keys, exprs, path)  # (group key, cells) in key order
    else:
        readers = [_reader(cube, fact_id, key, len(positions)) for key in keys]
        groups = defaultdict(list)  # each in file order
        values = readers[0](positions) if single else zip(*(read(positions) for read in readers)) if readers else repeat(())
        for key, position in zip(values, positions):
            groups[key].append(position)
        # compiled only for a non-empty result, so an empty one raises no measure error
        program = _measure_program(cube, fact_id, exprs, len(positions)) if groups else None
        order = sorted(groups, key=_key_order(single))
        grouped = zip(order, map(program, map(groups.__getitem__, order)))  # in key order
    result_rows = [((key,) if single else key) + row for key, row in grouped]

    return ResultTable(tuple(key.path for key in keys), tuple(a.id for a in plan.measures), tuple(result_rows))


def pivot(result: ResultTable) -> ResultTable:
    """Swap the row and column axes of a two-dimensional result."""
    if len(result.group_keys) != 2:
        raise EngineError("ENG020", f"pivot requires exactly 2 group keys, found {len(result.group_keys)}")
    swapped_keys = (result.group_keys[1], result.group_keys[0])
    rows = [(row[1], row[0]) + row[2:] for row in result.rows]
    rows.sort(key=lambda r: (_sort_token(r[0]), _sort_token(r[1])))
    return ResultTable(swapped_keys, result.measure_names, tuple(rows))


# ---------------------------------------------------------------------------
# Use case dispatch
# ---------------------------------------------------------------------------


def run_use_case(cube: Cube, use_case_id: str, op_id: str, bindings: dict | None = None) -> ResultTable:
    return run_plan(cube, plan_operation(cube.model, use_case_id, op_id), bindings)


def run_plan(cube: Cube, plan: Plan, bindings: dict | None = None) -> ResultTable:
    """Run one query along its ``access_plan``: a Slice or Dice answers ``row_count``
    and every measure over the kept rows, a roll-up or drill-down one row per
    group, a pivot the same groups with their keys swapped."""
    cube.view(plan.fact.id)  # ENG030 for a cube whose load reported an error, or a fact with no table
    access = access_plan(cube, plan)
    if plan.kind in ("Slice", "Dice"):
        values = [_bound_value(cube.model, f, bindings or {}) for f in plan.filters]
        row_count, cells = _sliced(cube, plan.fact.id, plan.filters, access, values, [a.measure for a in plan.measures])
        return ResultTable((), ("row_count",) + tuple(a.id for a in plan.measures), ((row_count,) + cells,))
    if plan.kind in ("RollUp", "DrillDown"):
        return aggregate(cube, plan, access.measures)
    return pivot(aggregate(cube, plan, access.measures))


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------


@value
class FarEnd:
    """A filter tested at the far end of its path, from the fact reference ``ref`` (``_far_end``)."""

    ref: str


@value
class Scan:
    """A filter that tests each fact position it is given, for ``reason``."""

    reason: str


@value
class Folds:
    """Combine the member folds (``_Members``) the fact keeps for its references ``refs``."""

    refs: tuple[str, ...]


@value
class Postings:
    """Group by member of ``refs`` through their postings; ``reason``: why no folds combine."""

    refs: tuple[str, ...]
    reason: str


@value
class RowLoop:
    """Group by the keys read at every fact position, for ``reason``."""

    reason: str


@value
class Positions:
    """Run the measures over the fact positions the filters keep, for ``reason``."""

    reason: str


@value
class AccessPlan:
    """Each filter's ``FarEnd`` or ``Scan``, and how the measures read the fact rows (``access_plan``)."""

    filters: tuple
    measures: object


def access_plan(cube: Cube, plan: Plan) -> AccessPlan:
    """The access paths ``run_plan`` follows for ``plan`` on ``cube`` as it
    stands: what postings and folds exist decides some, so each run makes one."""
    fact, exprs = cube.tables[plan.fact.id], [attr.measure for attr in plan.measures]
    filters = tuple(_filter_path(fact, f.column) if not i else Scan("after an earlier filter") for i, f in enumerate(plan.filters))
    if plan.kind not in ("Slice", "Dice"):
        return AccessPlan(filters, _grouping_path(cube, fact, plan.keys, exprs))
    if len(filters) != 1 or filters[0].__class__ is Scan:
        return AccessPlan(filters, Positions("several filters" if len(filters) > 1 else filters[0].reason if filters else "no filter"))
    return AccessPlan(filters, _member_path(cube, fact, (filters[0].ref,), exprs, Positions))


def _filter_path(fact: Table, col: Column):
    """A filter over the whole fact on ``col``: ``FarEnd`` unless no hop leaves
    the fact or the fact holds fewer rows than the first hop's target."""
    ref = _first_reference(col)
    if ref not in fact.targets:
        return Scan("no hop leaves the fact")
    return FarEnd(ref) if fact.size >= fact.targets[ref].size else Scan("fact smaller than first target")


def _grouping_path(cube: Cube, fact: Table, keys, exprs):
    """By member of the keys' distinct first references, where each is a fact
    reference and they have no more members than the fact has rows + 1."""
    refs = tuple(dict.fromkeys(map(_first_reference, keys)))
    reason = ("no group keys" if not keys else "empty fact" if not fact.size
              else "key not read through a fact reference" if not fact.targets.keys() >= set(refs)
              else "more members than fact rows" if _member_space(fact, refs) > fact.size + 1 else None)
    return RowLoop(reason) if reason else _member_path(cube, fact, refs, exprs, partial(Postings, refs))


def _member_path(cube: Cube, fact: Table, refs: tuple, exprs, other):
    """``Folds(refs)`` once ``refs`` have postings and every fold combines from member folds, else ``other(reason)``."""
    if refs not in fact.postings:
        return other("references have no postings yet")
    program, kept = measure_program(cube.model, fact.entity_id, exprs), fact.folds.get(refs)
    if kept is not None and id(program) in kept.plans:  # it has combined them before
        return Folds(refs)
    foldable = all(_leaf_input(cube.model, leaf)[3] in _MEMBER_FOLDS for leaf in program.leaves)
    return Folds(refs) if foldable else other("Decimal SUM or AVERAGE")


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
