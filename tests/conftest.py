import math
import sqlite3
from datetime import date, time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

import oracle
from bispec import engine, parse_asl, parse_cnlbi
from bispec import model as m
from bispec.engine import ResultTable, load_cube, pivot
from bispec.generators import gen_schema_sql
from bispec.plan import Column, Filter, Plan, column, executable_measures, plan_filters

ROOT = Path(__file__).resolve().parent.parent
CORPUS_CNLBI = ROOT / "corpus" / "medbuddy.cnlbi"
CORPUS_ASL = ROOT / "corpus" / "medbuddy.asl"
DATA_DIR = ROOT / "fixtures" / "medbuddy_data"

# Property tests run the same examples on every run and write no example database.
# ``--hypothesis-profile deep`` runs 20 times as many, as CI does for the lexer and writer properties.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None, max_examples=100)
settings.register_profile("deep", derandomize=True, deadline=None, database=None, max_examples=2000)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cnlbi_source() -> str:
    return CORPUS_CNLBI.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def asl_source() -> str:
    return CORPUS_ASL.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def medbuddy(cnlbi_source):
    model, diags = parse_cnlbi(cnlbi_source, str(CORPUS_CNLBI))
    assert not any(d.is_error for d in diags), [f"{d.code} {d.message}" for d in diags]
    return model


@pytest.fixture(scope="session")
def medbuddy_asl(asl_source):
    model, diags = parse_asl(asl_source, str(CORPUS_ASL))
    assert not any(d.is_error for d in diags), [f"{d.code} {d.message}" for d in diags]
    return model


@pytest.fixture(scope="session")
def medbuddy_measure_cycle(cnlbi_source):
    """The corpus with ``CountAppointments`` reading ``(CancellationRate + 1)``: a
    measure reference cycle (SEM010) that no query may turn into a RecursionError."""
    assert cnlbi_source.count("(operation COUNT(id))") == 1
    model, _ = parse_cnlbi(cnlbi_source.replace("(operation COUNT(id))", "(operation (CancellationRate + 1))"), "cycle.cnlbi")
    return model


@pytest.fixture(scope="session")
def cube(medbuddy):
    cube, diags = load_cube(medbuddy, DATA_DIR)
    assert not any(d.is_error for d in diags), [f"{d.code} {d.message}" for d in diags]
    return cube


def postings_built(cube) -> list[tuple[str, str]]:
    """``(entity id, references)`` for every tuple of references that has
    postings, sorted; several references read as ``"institution+state"``."""
    return sorted((entity_id, "+".join(refs)) for entity_id, table in cube.tables.items() for refs in table.postings)


def folds_built(cube) -> list[tuple[str, str]]:
    """``(entity id, references)`` for every tuple of references that keeps
    member folds, sorted, named as ``postings_built`` names them."""
    return sorted((entity_id, "+".join(refs)) for entity_id, table in cube.tables.items() for refs in table.folds)


def load_both_ways(model, data_dir):
    """``load_cube`` of ``data_dir``, after checking that it equals the load
    that reads every chunk through ``csv.reader``: each table (its columns,
    size, key and targets), the cube's error and each diagnostic. Every cell
    of a resolved reference is a row position in its target, null slot
    included, a dangling key's too."""
    cube, diags = load_cube(model, data_dir)
    with mock.patch.object(engine, "_plain_columns", lambda lines, width: None):
        read_cube, read_diags = load_cube(model, data_dir)
    assert cube.tables == read_cube.tables and cube.error == read_cube.error
    assert diags == read_diags
    for table in cube.tables.values():
        for ref, target in table.targets.items():
            assert all(cell.__class__ is int and 0 <= cell <= target.size for cell in table.data[ref]), (table.entity_id, ref)
    return cube, diags


def _sql_value(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (date, time)):
        return value.isoformat()
    return value


def _loaded_columns(table) -> list[list]:
    """The table's columns without their null slots, each reference mapped
    from row positions in its target to the target's primary keys."""
    columns = []
    for attr_id, values in table.data.items():
        target = table.targets.get(attr_id)
        if target is not None:
            values = list(map(target.data[target.pk].__getitem__, values))
        columns.append(values[:table.size])
    return columns


def sqlite_from_cube(model, cube) -> sqlite3.Connection:
    """An in-memory database built from the generated DDL and the cube's columns."""
    conn = sqlite3.connect(":memory:")
    conn.executescript(gen_schema_sql(model))
    for entity in model.entities:
        table = cube.table(entity.id)
        columns = ", ".join(f'"{c}"' for c in table.columns)
        holes = ", ".join("?" for _ in table.columns)
        rows = zip(*([_sql_value(value) for value in values] for values in _loaded_columns(table)))
        conn.executemany(f'INSERT INTO "{entity.id}" ({columns}) VALUES ({holes})', rows)
    conn.commit()
    return conn


def measure(name: str, expr) -> m.DataAttribute:
    """A measure attribute the model does not declare, for ``query``."""
    return m.DataAttribute(name, m.AttributeType("primitive", "Decimal"), measure=expr)


def query(model, fact_id: str, where=None, group_by=None, measures=None) -> Plan:
    """An ad-hoc ``Plan`` over ``fact_id`` for ``run_plan``: a roll-up by
    ``group_by`` (attribute paths as dotted text or ``AttributePath``, or
    planned ``Column``s; none for the grand total), else a Dice of the
    predicates or planned ``Filter``s ``where`` (none keeps every row).
    ``measures`` holds measure attributes, by default the fact's executable
    ones; ``measure`` makes one of any expression."""
    fact = model.entity(fact_id)
    where = tuple(where or ())
    planned = all(isinstance(f, Filter) for f in where)
    filters = where if planned else plan_filters(model, fact_id, where)
    keys = tuple(key if isinstance(key, Column) else column(model, fact_id, m.AttributePath.parse(str(key))) for key in group_by or ())
    operation = m.OlapOperation("AdHoc", "Dice" if group_by is None else "RollUp", where_clauses=() if planned else where)
    return Plan("AdHoc", operation, fact, filters, keys, executable_measures(fact) if measures is None else tuple(measures))


def kept_positions(cube, plan: Plan, bindings=None) -> list[int]:
    """The fact positions ``plan``'s filters keep, in the engine's order (a
    far end's in postings order), each filter along the path that
    ``engine.access_plan`` picks for it and its value bound as ``run_plan`` binds it."""
    values = [engine._bound_value(cube.model, f, bindings or {}) for f in plan.filters]
    return engine._filtered(cube, plan.fact.id, plan.filters, engine.access_plan(cube, plan).filters, values)


def oracle_result(model, tables, plan: Plan, bindings=None) -> ResultTable:
    """What ``run_plan`` answers for ``plan``, from ``tests/oracle.py`` over
    ``tables``: for a Slice or Dice of predicates, the row count and the
    measures over the kept rows; else the measures per group of the keys,
    in the engine's key order, swapped for a Pivot."""
    fact_id = plan.fact.id

    def cells(rows) -> tuple:
        return tuple(oracle.eval_measure(model, tables, fact_id, a.measure, rows) for a in plan.measures)

    names = tuple(a.id for a in plan.measures)
    if plan.kind in ("Slice", "Dice"):
        kept = oracle.filter_rows(model, tables, fact_id, plan.operation.where_clauses, bindings)
        return ResultTable((), ("row_count",) + names, ((len(kept),) + cells(kept),))
    keys = [(key.chain, key.attribute.id) for key in plan.keys]
    rows = [key + cells(members) for key, members in oracle.group_rows(model, tables, fact_id, tables[fact_id], keys)]
    rows.sort(key=lambda row: tuple(map(engine._sort_token, row[:len(keys)])))
    result = ResultTable(tuple(key.path for key in plan.keys), names, tuple(rows))
    return pivot(result) if plan.kind == "Pivot" else result


def assert_rows_match_sql(result, db_rows, context) -> None:
    """Engine result == SQLite rows: every column, in row order, floats to 1e-9 relative."""
    assert len(db_rows) == len(result.rows), context
    for engine_row, db_row in zip(result.rows, db_rows):
        for name, value, db_value in zip(result.columns, engine_row, db_row):
            expected = _sql_value(value)
            if isinstance(expected, float) and db_value is not None:
                assert math.isclose(db_value, expected, rel_tol=1e-9), (context, name, engine_row, db_row)
            else:
                assert db_value == expected, (context, name, engine_row, db_row)
