import dataclasses
import math
import re
from datetime import date, datetime
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate
from operator import add

import pytest
from hypothesis import given, strategies as st

import oracle
from bispec import model as m
from bispec import engine, parse_cnlbi
from bispec.cli import main
from bispec.engine import (
    CubeView,
    EngineError,
    aggregate,
    dice_view,
    evaluate_measure,
    load_cube,
    pivot,
    result_to_csv,
    run_plan,
    run_use_case,
    slice_view,
)
from bispec.generators import gen_olap_sql
from bispec.plan import Column, operation_plan, plan_operation
from conftest import DATA_DIR, assert_rows_match_sql, folds_built, postings_built, sqlite_from_cube

YEAR_PRED = m.Predicate(
    m.AttributePath(("AppointmentRequest", "scheduled_date", "year")),
    m.AttributePath(("Time", "year")),
)
CITY_PRED = m.Predicate(
    m.AttributePath(("Institution", "city")),
    m.AttributePath(("City", "id")),
)


@pytest.fixture(scope="module")
def tables(medbuddy):
    return oracle.load_tables(medbuddy, DATA_DIR)


def close(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, abs_tol=1e-9)
    return a == b


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_cube_loads_with_expected_joins(cube):
    fact = cube.model.entity("AppointmentRequest")
    assert len(fact.dimension_refs) == 5
    assert len(cube.table("AppointmentRequest").rows) == 10
    assert set(cube.tables) == {"City", "Time", "RequestState", "Patient", "Institution", "AppointmentRequest"}


def test_missing_file_reports_eng001(medbuddy, tmp_path):
    (tmp_path / "manifest.toml").write_text('City = "City.csv"\n')
    _, diags = load_cube(medbuddy, tmp_path)
    assert any(d.code == "ENG001" for d in diags)


def test_header_mismatch_reports_eng002(medbuddy, tmp_path):
    for name in DATA_DIR.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    (tmp_path / "City.csv").write_text("id,lat,lon,name\nc1,1,2,X\n")
    _, diags = load_cube(medbuddy, tmp_path)
    assert any(d.code == "ENG002" for d in diags)


def test_type_coercion_failure_reports_row_and_column(medbuddy, tmp_path):
    for name in DATA_DIR.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    (tmp_path / "Time.csv").write_text(
        "id,date,day,month,quarter,semester,year\nt1,2023-01-05,notanumber,1,1,1,2023\n"
    )
    _, diags = load_cube(medbuddy, tmp_path)
    bad = [d for d in diags if d.code == "ENG003"]
    assert bad and "row 1" in bad[0].message and "day" in bad[0].message


def test_manifest_comments_start_outside_the_quoted_file_name(medbuddy, tmp_path):
    for name in DATA_DIR.iterdir():
        (tmp_path / name.name.replace("Time.csv", "Time #2.csv")).write_bytes(name.read_bytes())
    manifest = tmp_path / "manifest.toml"
    lines = manifest.read_text().replace('"Time.csv"', '"Time #2.csv"# dates').splitlines()
    manifest.write_text("\n".join(["  # Time = \"none.csv\"", "", *lines, ""]))
    assert engine.parse_manifest(manifest)["Time"] == "Time #2.csv"
    assert oracle.load_tables(medbuddy, tmp_path) == oracle.load_tables(medbuddy, DATA_DIR)
    manifest.write_text('Time = "Time #2.csv" dates\n')
    with pytest.raises(EngineError, match="unreadable manifest line: 'Time = \"Time #2.csv\" dates'"):
        engine.parse_manifest(manifest)


@pytest.mark.parametrize("line, message", [
    ('City = "Nope.csv"', "manifest.toml line 8: City is already mapped on line 2"),
    ('Ward = "City.csv"  # the file of City', "manifest.toml line 8: 'City.csv' is already mapped on line 2"),
], ids=["entity", "file"])
def test_a_second_manifest_line_for_an_entity_or_a_file_is_eng001(medbuddy, tmp_path, line, message):
    data = _package(tmp_path)
    with (data / "manifest.toml").open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    cube, diags = load_cube(medbuddy, data)
    assert [(d.code, d.is_error, d.message) for d in diags] == [("ENG001", True, message)] and cube.error == diags[0]


@pytest.mark.parametrize("chunk_rows", [2, engine.CHUNK_ROWS])
def test_boolean_cells_load_by_table_and_a_bad_one_is_eng003(medbuddy, tmp_path, monkeypatch, chunk_rows):
    for name in DATA_DIR.iterdir():
        (tmp_path / name.name).write_bytes(name.read_bytes())
    states = "id,is_final,is_initial,name\ns1,FALSE,1,Booked\ns2,True,0,Held\ns3,true,False,Cancelled\ns4,yes,false,Held\n"
    (tmp_path / "RequestState.csv").write_text(states)
    monkeypatch.setattr(engine, "CHUNK_ROWS", chunk_rows)
    cube, diags = load_cube(medbuddy, tmp_path)
    assert [d.message for d in diags if d.code == "ENG003"] == [
        "RequestState.csv row 4, column is_final: 'yes' is not a boolean"]
    data = cube.table("RequestState").data
    assert (data["is_final"], data["is_initial"]) == ([False, True, True, None], [True, False, False, None])


@pytest.mark.parametrize("chunk_rows", [2, engine.CHUNK_ROWS])
def test_integer_cells_outside_64_bits_are_eng003(medbuddy, tmp_path, monkeypatch, chunk_rows):
    ages = {"p1": 2**63 - 1, "p2": -(2**63), "p3": 2**63, "p4": -(2**63) - 1}
    data = _package(tmp_path, Patient=partial(re.sub, r"^(p\d),(\d+),\d+,", lambda match: f"{match[1]},{match[2]},{ages[match[1]]},", flags=re.M))
    monkeypatch.setattr(engine, "CHUNK_ROWS", chunk_rows)
    cube, diags = load_cube(medbuddy, data)
    assert [d.message for d in diags if d.code == "ENG003"] == [
        f"Patient.csv row {row}, column age: '{ages[key]}' is outside the 64-bit Integer range" for row, key in ((3, "p3"), (4, "p4"))
    ]
    patients = cube.table("Patient")
    assert patients.data["id"][:patients.size] == ["p1", "p2"] and patients.data["age"][:patients.size] == [2**63 - 1, -(2**63)]


@pytest.mark.parametrize("chunk_rows", [2, engine.CHUNK_ROWS])
def test_numeric_text_that_sqlite_keeps_as_text_is_eng003(medbuddy, cube, tmp_path, monkeypatch, chunk_rows):
    # ' 7 ', '+5' and '1e999' are numbers to SQLite 3.40 too (7, 5 and a REAL Inf); so is -0.0, which loads as 0.0
    ages = {"p1": "3_4", "p2": "\u0663", "p3": " 7 ", "p4": "+5"}
    latitudes = {"i1": "nan", "i2": "1_0.5", "i3": "1e999", "c1": "inf", "c2": "Infinity", "c3": "-0.0"}
    data = _package(tmp_path, Patient=partial(re.sub, r"^(p\d),(\d+),\d+,", lambda match: f"{match[1]},{match[2]},{ages[match[1]]},", flags=re.M),
                    Institution=partial(re.sub, r"^(i\d),(\w+),([^,]+),[^,]+,",
                                        lambda match: f"{match[1]},{match[2]},{match[3]},{latitudes[match[1]]},", flags=re.M),
                    City=partial(re.sub, r"^(c\d),[^,]+,", lambda match: f"{match[1]},{latitudes[match[1]]},", flags=re.M))
    monkeypatch.setattr(engine, "CHUNK_ROWS", chunk_rows)
    loaded, diags = load_cube(medbuddy, data)
    assert [d.message for d in diags if d.code == "ENG003"] == [
        "Patient.csv row 1, column age: '3_4' is not an Integer", "Patient.csv row 2, column age: '\u0663' is not an Integer",
        "Institution.csv row 1, column latitude: 'nan' is not a Decimal",
        "Institution.csv row 2, column latitude: '1_0.5' is not a Decimal",
        "City.csv row 1, column latitude: 'inf' is not a Decimal", "City.csv row 2, column latitude: 'Infinity' is not a Decimal",
    ]
    patients, institutions, cities = loaded.table("Patient"), loaded.table("Institution"), loaded.table("City")
    assert patients.data["age"][:patients.size] == [7, 5] and institutions.data["latitude"][:institutions.size] == [math.inf]
    assert repr(cities.data["latitude"][:cities.size]) == "[0.0]"
    with pytest.raises(EngineError) as exc:
        run_use_case(cube, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear", {"year": "2_023"})
    assert (exc.value.code, str(exc.value)) == ("ENG010", "parameter 'year' expects Integer, got '2_023'")


def test_utf8_bom_on_a_header_is_ignored(medbuddy, tmp_path):
    for name in DATA_DIR.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    (tmp_path / "City.csv").write_text("\ufeff" + (DATA_DIR / "City.csv").read_text(), encoding="utf-8")
    cube, diags = load_cube(medbuddy, tmp_path)
    assert not any(d.is_error for d in diags), [f"{d.code} {d.message}" for d in diags]
    assert [row["id"] for row in cube.table("City").rows] == ["c1", "c2", "c3"]


def test_empty_fact_csv_is_a_valid_cube(medbuddy, tmp_path):
    for name in DATA_DIR.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    header = (DATA_DIR / "AppointmentRequest.csv").read_text().splitlines()[0]
    (tmp_path / "AppointmentRequest.csv").write_text(header + "\n")
    cube, diags = load_cube(medbuddy, tmp_path)
    assert not any(d.is_error for d in diags)
    assert cube.table("AppointmentRequest").rows == []
    view = cube.view("AppointmentRequest")
    fact = medbuddy.entity("AppointmentRequest")
    # empty-set semantics: COUNT -> 0, AVERAGE/MIN/MAX -> null, 0/0 -> null
    assert evaluate_measure(view, fact.attribute("CountAppointments").measure) == 0
    assert evaluate_measure(view, fact.attribute("AvgWaitingTime").measure) is None
    assert evaluate_measure(view, fact.attribute("MinDate").measure) is None
    assert evaluate_measure(view, fact.attribute("CancellationRate").measure) is None
    patients = "AnalysisAppointmentsPatientOnNationalLevel"
    assert run_use_case(cube, patients, "AppointmentsByGender").rows == ()
    dice = run_use_case(cube, patients, "ScheduledAppointmentsBySpecificPatientResidenceCityAndYear", {"id": "c1", "year": "2023"})
    assert dice.rows[0][:3] == (0, 0, 0)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def test_hand_counted_measures(cube):
    fact = cube.model.entity("AppointmentRequest")
    view = cube.view("AppointmentRequest")
    assert evaluate_measure(view, fact.attribute("CountAppointments").measure) == 10
    assert evaluate_measure(view, fact.attribute("CountCancelledAppointments").measure) == 3
    assert close(evaluate_measure(view, fact.attribute("CancellationRate").measure), 0.3)
    # non-null waiting times: 12+40+31+5+2+18+60 = 168 over 7 rows
    assert close(evaluate_measure(view, fact.attribute("AvgWaitingTime").measure), 168 / 7)
    assert evaluate_measure(view, fact.attribute("MinDate").measure) == date(2022, 3, 15)
    assert evaluate_measure(view, fact.attribute("MaxDate").measure) == date(2023, 12, 30)


def test_measures_match_oracle(cube, medbuddy, tables):
    fact = medbuddy.entity("AppointmentRequest")
    view = cube.view("AppointmentRequest")
    rows = view.rows()
    for attr in fact.measures:
        engine_value = evaluate_measure(view, attr.measure, rows)
        oracle_value = oracle.eval_measure(medbuddy, tables, "AppointmentRequest", attr.measure, tables["AppointmentRequest"])
        assert close(engine_value, oracle_value), attr.id


# ---------------------------------------------------------------------------
# Slice / dice
# ---------------------------------------------------------------------------


def test_year_slice_matches_oracle_and_hand_count(cube, medbuddy, tables):
    view = slice_view(cube.view("AppointmentRequest"), YEAR_PRED, {"year": "2023"})
    expected = oracle.filter_rows(medbuddy, tables, "AppointmentRequest", [YEAR_PRED], {"year": 2023})
    assert view.row_count() == len(expected) == 8


def test_slice_is_idempotent(cube):
    once = slice_view(cube.view("AppointmentRequest"), YEAR_PRED, {"year": "2023"})
    twice = slice_view(once, YEAR_PRED, {"year": "2023"})
    assert [r["id"] for r in once.rows()] == [r["id"] for r in twice.rows()]


def test_empty_slice_is_not_an_error(cube):
    view = slice_view(cube.view("AppointmentRequest"), YEAR_PRED, {"year": "1999"})
    assert view.rows() == []


def test_unbound_parameter_raises_eng010(cube):
    with pytest.raises(EngineError) as exc:
        slice_view(cube.view("AppointmentRequest"), YEAR_PRED, {}).rows()
    assert exc.value.code == "ENG010"


def test_dice_equals_composed_slices(cube):
    bindings = {"id": "c2", "year": "2023"}
    diced = dice_view(cube.view("AppointmentRequest"), [CITY_PRED, YEAR_PRED], bindings)
    composed = slice_view(
        slice_view(cube.view("AppointmentRequest"), CITY_PRED, bindings), YEAR_PRED, bindings
    )
    assert [r["id"] for r in diced.rows()] == [r["id"] for r in composed.rows()]
    assert diced.row_count() == 4


def test_contradictory_predicates_yield_empty_view(cube):
    p2022 = m.Predicate(YEAR_PRED.left, m.Literal(2022))
    p2023 = m.Predicate(YEAR_PRED.left, m.Literal(2023))
    assert dice_view(cube.view("AppointmentRequest"), [p2022, p2023]).rows() == []


def test_dice_matches_oracle(cube, medbuddy, tables):
    bindings = {"id": "c2", "year": 2023}
    engine_rows = dice_view(cube.view("AppointmentRequest"), [CITY_PRED, YEAR_PRED], bindings).rows()
    oracle_rows = oracle.filter_rows(medbuddy, tables, "AppointmentRequest", [CITY_PRED, YEAR_PRED], bindings)
    assert sorted(r["id"] for r in engine_rows) == sorted(r["id"] for r in oracle_rows)


def test_enum_literal_slice(cube, medbuddy, tables):
    pred = m.Predicate(m.AttributePath(("state",)), m.EnumLiteral("States", "Cancelled"))
    engine_rows = slice_view(cube.view("AppointmentRequest"), pred).rows()
    oracle_rows = oracle.filter_rows(medbuddy, tables, "AppointmentRequest", [pred])
    assert sorted(r["id"] for r in engine_rows) == sorted(r["id"] for r in oracle_rows)
    assert {r["id"] for r in engine_rows} == {"r02", "r04", "r10"}


# ---------------------------------------------------------------------------
# Aggregate / pivot
# ---------------------------------------------------------------------------

GROUPINGS = [
    ["Institution.city"],
    ["Institution.name"],
    ["Patient.gender"],
    ["Patient.age"],
    ["AppointmentRequest.scheduled_date.year"],
    ["AppointmentRequest.closed_date.year"],  # exercises the null hop
    ["institution"],
    ["Institution.city", "AppointmentRequest.scheduled_date.year"],
    [],
]


@pytest.mark.parametrize("keys", GROUPINGS, ids=lambda k: "+".join(k) or "grand-total")
def test_aggregate_matches_oracle(cube, medbuddy, tables, keys):
    paths = [m.AttributePath.parse(k) for k in keys]
    result = aggregate(cube.view("AppointmentRequest"), paths)
    expected = oracle.aggregate(medbuddy, tables, "AppointmentRequest", tables["AppointmentRequest"], paths)
    engine_by_key = {row[: len(keys)]: row[len(keys) :] for row in result.rows}
    assert set(engine_by_key) == set(expected)
    for key, measures in expected.items():
        engine_row = engine_by_key[key]
        for name, value in zip(result.measure_names, engine_row):
            assert close(value, measures[name]), (key, name)


def test_city_rollup_hand_counts(cube):
    result = aggregate(cube.view("AppointmentRequest"), [m.AttributePath.parse("Institution.city")])
    counts = {row[0]: row[result.columns.index("CountAppointments")] for row in result.rows}
    assert counts == {"c1": 4, "c2": 6}


def test_null_hop_rows_fall_into_null_group(cube):
    result = aggregate(cube.view("AppointmentRequest"), [m.AttributePath.parse("AppointmentRequest.closed_date.year")])
    keyed = {row[0]: row[result.columns.index("CountAppointments")] for row in result.rows}
    assert keyed == {None: 3, 2022: 2, 2023: 5}
    assert result.rows[0][0] is None  # null group sorts first
    assert result_to_csv(result).splitlines()[1].startswith("(null),")


def test_group_by_primary_key_is_finest_granularity(cube):
    result = aggregate(cube.view("AppointmentRequest"), [m.AttributePath.parse("id")])
    assert len(result.rows) == 10
    count_col = result.columns.index("CountAppointments")
    assert all(row[count_col] == 1 for row in result.rows)


def test_group_by_nothing_is_grand_total(cube):
    result = aggregate(cube.view("AppointmentRequest"), [])
    assert len(result.rows) == 1
    assert result.rows[0][result.columns.index("CountAppointments")] == 10


def test_count_conservation_under_every_grouping(cube):
    for keys in GROUPINGS:
        result = aggregate(cube.view("AppointmentRequest"), [m.AttributePath.parse(k) for k in keys])
        count_col = result.columns.index("CountAppointments")
        assert sum(row[count_col] for row in result.rows) == 10, keys


def test_slicing_never_increases_group_counts(cube):
    keys = [m.AttributePath.parse("Institution.city")]
    before = aggregate(cube.view("AppointmentRequest"), keys)
    sliced_view = slice_view(cube.view("AppointmentRequest"), YEAR_PRED, {"year": "2023"})
    after = aggregate(sliced_view, keys)
    count_col = before.columns.index("CountAppointments")
    before_counts = {row[0]: row[count_col] for row in before.rows}
    for row in after.rows:
        assert row[count_col] <= before_counts[row[0]]


def test_pivot_swaps_axes_and_preserves_cells(cube):
    keys = [m.AttributePath.parse("Institution.city"), m.AttributePath.parse("AppointmentRequest.scheduled_date.year")]
    result = aggregate(cube.view("AppointmentRequest"), keys)
    swapped = pivot(result)
    assert swapped.group_keys == (str(keys[1]), str(keys[0]))
    original_cells = {(row[0], row[1]): row[2:] for row in result.rows}
    swapped_cells = {(row[1], row[0]): row[2:] for row in swapped.rows}
    assert original_cells == swapped_cells


def test_pivot_is_an_involution(cube):
    keys = [m.AttributePath.parse("Institution.city"), m.AttributePath.parse("Patient.gender")]
    result = aggregate(cube.view("AppointmentRequest"), keys)
    assert pivot(pivot(result)) == result


def test_pivot_requires_two_keys(cube):
    result = aggregate(cube.view("AppointmentRequest"), [m.AttributePath.parse("Institution.city")])
    with pytest.raises(EngineError) as exc:
        pivot(result)
    assert exc.value.code == "ENG020"


# ---------------------------------------------------------------------------
# Use case dispatch
# ---------------------------------------------------------------------------


def test_run_slice_returns_summary(cube):
    result = run_use_case(
        cube, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear", {"year": "2023"}
    )
    assert result.group_keys == ()
    row = dict(zip(result.columns, result.rows[0]))
    assert row["row_count"] == 8
    assert row["CountAppointments"] == 8
    assert row["CountCancelledAppointments"] == 2


def test_run_rollup_matches_oracle(cube, medbuddy, tables):
    result = run_use_case(cube, "AnalysisAppointmentsPatientOnNationalLevel", "AppointmentsByGender")
    expected = oracle.aggregate(
        medbuddy, tables, "AppointmentRequest", tables["AppointmentRequest"],
        [m.AttributePath.parse("Patient.gender")],
    )
    counts = {row[0]: row[result.columns.index("CountAppointments")] for row in result.rows}
    assert counts == {key[0]: measures["CountAppointments"] for key, measures in expected.items()}
    assert counts == {"Female": 6, "Male": 4}


def test_run_unknown_operation_raises_eng030(cube):
    with pytest.raises(EngineError) as exc:
        run_use_case(cube, "AnalysisAppointmentsInstitutionOnNationalLevel", "Nope")
    assert exc.value.code == "ENG030"


def test_run_missing_binding_raises_eng010(cube):
    with pytest.raises(EngineError) as exc:
        run_use_case(cube, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear")
    assert exc.value.code == "ENG010"


def test_underspecified_operation_raises_eng031(medbuddy_asl, cube):
    asl_cube = dataclasses.replace(cube, model=medbuddy_asl)
    with pytest.raises(EngineError) as exc:
        run_use_case(asl_cube, "Analysis_Appointments_National_Level", "AppointmentsByInstitutionCity")
    assert exc.value.code == "ENG031"


def test_synthetic_pivot_operation(cube, medbuddy):
    pivot_op = m.OlapOperation(id="CityByState", kind="Pivot", swap=("Institution", "RequestState"))
    uc = medbuddy.use_case("AnalysisAppointmentsInstitutionOnNationalLevel")
    patched_uc = dataclasses.replace(uc, operations=uc.operations + (pivot_op,))
    patched = dataclasses.replace(
        medbuddy, use_cases=tuple(patched_uc if u.id == uc.id else u for u in medbuddy.use_cases)
    )
    patched_cube = dataclasses.replace(cube, model=patched)
    result = run_use_case(patched_cube, uc.id, "CityByState")
    assert len(result.group_keys) == 2
    count_col = result.columns.index("CountAppointments")
    assert sum(row[count_col] for row in result.rows) == 10


SELF_REFERENCE = """
DataEntity Employee ("Employee") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull),
  manager refers to Dimension Employee
described as employees.

DataEntity Sale ("Sale") is a Transactional Fact with attributes
  id is a UUID (PrimaryKey),
  seller refers to Dimension Employee (NotNull),
  amount is a Decimal (NotNull),
  Total is a Decimal (operation SUM(amount))
described as sales.
"""


def test_self_reference_resolves_once_its_table_has_loaded(tmp_path):
    # a reference cycle cannot load its target first: manager keys name rows further down the same file
    model, diags = parse_cnlbi(SELF_REFERENCE, "self_reference.cnlbi")
    assert not [d for d in diags if d.is_error]
    (tmp_path / "Employee.csv").write_text("id,name,manager\ne1,Ann,e3\ne2,Bob,e1\ne3,Cid,\ne4,Dan,e9\n")
    (tmp_path / "Sale.csv").write_text("id,seller,amount\ns1,e1,1.5\ns2,e2,2.5\ns3,e3,3.0\ns4,e2,0.1\n")
    (tmp_path / "manifest.toml").write_text('Employee = "Employee.csv"\nSale = "Sale.csv"\n')
    cube, diags = load_cube(model, tmp_path)
    assert [(d.code, d.message) for d in diags] == [("ENG004", "Employee row 4, column manager: no Employee row with key 'e9'")]
    assert cube.table("Employee").data["manager"] == [2, 0, 4, 4, 4]  # e4's dangling manager at the null slot, as e3's null one
    (tmp_path / "Employee.csv").write_text("id,name,manager\ne1,Ann,e3\ne2,Bob,e1\ne3,Cid,\ne4,Dan,\n")
    cube, diags = load_cube(model, tmp_path)
    assert diags == [] and [row["manager"] for row in cube.table("Employee").rows] == ["e3", "e1", None, None]
    view = cube.view("Sale")
    assert aggregate(view, [m.AttributePath.parse("Employee.name")]).rows == (("Ann", 1.5), ("Bob", 2.6), ("Cid", 3.0))
    assert aggregate(view, [m.AttributePath.parse("Employee.manager")]).rows == ((None, 3.0), ("e1", 2.6), ("e3", 1.5))


# ---------------------------------------------------------------------------
# Typed keys and ordering
# ---------------------------------------------------------------------------

FACT = "AppointmentRequest"


def _package(directory, **edits):
    """The fixture package written to ``directory``, each named CSV passed through its edit."""
    directory.mkdir(exist_ok=True)
    for path in DATA_DIR.iterdir():
        text = path.read_text(encoding="utf-8")
        (directory / path.name).write_text(edits.get(path.stem, str)(text), encoding="utf-8")
    return directory


def _integer_key(value):
    """A group key of the fixture as the Integer-keyed City package reads it."""
    return int(value[1:]) if isinstance(value, str) and re.fullmatch("c[123]", value) else value


def test_integer_primary_key_is_read_through_every_reference(medbuddy, cube, tmp_path, cnlbi_source, capsys):
    city = 'DataEntity City ("City") is a Reference Dimension with attributes\n  id is a UUID (PrimaryKey),'
    assert cnlbi_source.count(city) == 1
    spec = tmp_path / "integer_city.cnlbi"
    spec.write_text(cnlbi_source.replace(city, city.replace("a UUID", "an Integer")), encoding="utf-8")
    model, diags = parse_cnlbi(spec.read_text(encoding="utf-8"), str(spec))
    assert not [d for d in diags if d.is_error]
    numbered = partial(re.sub, r"\bc([123])\b", r"\1")
    data = _package(tmp_path / "data", City=numbered, Patient=numbered, Institution=numbered)
    integer_cube, diags = load_cube(model, data)
    assert [d.code for d in diags] == []
    assert [row["residence"] for row in integer_cube.table("Patient").rows] == [1, 2, 3, 1]

    conn = sqlite_from_cube(model, integer_cube)
    try:
        for uc in medbuddy.use_cases:
            for op in uc.operations:
                result = run_use_case(integer_cube, uc.id, op.id, {"year": "2023", "id": "2"})
                expected = run_use_case(cube, uc.id, op.id, {"year": "2023", "id": "c2"})
                keys = len(result.group_keys)
                assert result.rows == tuple(tuple(map(_integer_key, row[:keys])) + row[keys:] for row in expected.rows), op.id
                db_rows = conn.execute(gen_olap_sql(model, uc.id, op.id), {"year": 2023, "id": 2}).fetchall()
                if op.kind in ("Slice", "Dice"):
                    assert len(db_rows) == result.rows[0][0], op.id
                else:
                    assert_rows_match_sql(result, db_rows, op.id)
    finally:
        conn.close()

    with pytest.raises(EngineError) as exc:
        run_use_case(integer_cube, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsBySpecificCityAndYear",
                     {"id": "c2", "year": "2023"})
    assert (exc.value.code, str(exc.value)) == ("ENG010", "parameter 'id' expects Integer, got 'c2'")
    code = main(["olap", str(spec), "--data", str(data), "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel",
                 "--op", "ScheduledAppointmentsBySpecificCityAndYear", "--bind", "id=2", "--bind", "year=2023",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[1].startswith("4,4,")  # r03, r07, r08, r10: Porto in 2023


def test_integer_group_keys_sort_by_exact_value(medbuddy, tmp_path):
    # 2**53 + 1 is seen first (p1 is on r01) and equals 2**53 as a float
    ages = {"34": str(2**53 + 1), "61": str(2**53)}
    data = _package(tmp_path, Patient=partial(re.sub, r",(34|61),", lambda match: f",{ages[match.group(1)]},"))
    big_cube, diags = load_cube(medbuddy, data)
    assert not [d for d in diags if d.is_error]
    uc, op = "AnalysisAppointmentsPatientOnNationalLevel", "AppointmentsByAgeGroup"
    result = run_use_case(big_cube, uc, op)
    assert [row[0] for row in result.rows] == [8, 45, 2**53, 2**53 + 1]
    conn = sqlite_from_cube(medbuddy, big_cube)
    try:
        assert_rows_match_sql(result, conn.execute(gen_olap_sql(medbuddy, uc, op)).fetchall(), op)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# A cube whose load reported an error answers no query
# ---------------------------------------------------------------------------


def _path(text):
    return m.AttributePath.parse(text)


# one package per load error: its edits, the table whose CSV is removed, and the first error the load reports
LOAD_ERRORS = {
    "ENG001 missing file": ({}, "Patient", ("ENG001", "no data file for entity Patient")),
    "ENG001 missing later-hop file": ({}, "City", ("ENG001", "no data file for entity City")),
    "ENG002 header mismatch": ({"City": lambda text: text.replace("latitude", "lat", 1)}, None,
                               ("ENG002", "City.csv: header mismatch; expected (id, latitude, longitude, name) got (id, lat, longitude, name)")),
    "ENG003 bad cell": ({"Patient": lambda text: text.replace(",61,", ",sixty,")}, None,
                        ("ENG003", "Patient.csv row 2, column age: 'sixty' is not an Integer")),
    "ENG003 duplicate primary key": ({"Patient": lambda text: text + "p2,999,70,Rui Dias,Male,c3\n"}, None,
                                     ("ENG003", "Patient.csv row 5, column id: duplicate primary key 'p2'")),
    "ENG004 dangling first hop": ({"AppointmentRequest": lambda text: text + "r11,i1,p999,s1,t1,,10,,false\n"}, None,
                                  ("ENG004", "AppointmentRequest row 11, column patient: no Patient row with key 'p999'")),
    "ENG004 dangling later hop": ({"Patient": lambda text: text.replace("Female,c3", "Female,c404")}, None,
                                  ("ENG004", "Patient row 3, column residence: no City row with key 'c404'")),
    # no fact row reaches p5, so no query would read its residence
    "ENG004 dangling key no fact reaches": ({"Patient": lambda text: text + "p5,555,50,Eva Lima,Female,c404\n"}, None,
                                            ("ENG004", "Patient row 5, column residence: no City row with key 'c404'")),
    # a dangling key in a nullable reference is an error too
    "ENG004 dangling nullable hop": ({"AppointmentRequest": lambda text: text + "r11,i1,p1,s1,t1,t404,10,,false\n"}, None,
                                     ("ENG004", "AppointmentRequest row 11, column closed_date: no Time row with key 't404'")),
}


def _plans(model) -> dict:
    """A plan of each kind of operation over the fixture's fact; the Pivot swaps Institution and RequestState."""
    use_case = model.use_case("AnalysisAppointmentsInstitutionOnNationalLevel")
    plans = {op.kind: operation_plan(model, use_case, op) for op in use_case.operations}
    plans["Pivot"] = operation_plan(model, use_case, m.OlapOperation(id="CityByState", kind="Pivot", swap=("Institution", "RequestState")))
    assert sorted(plans) == ["Dice", "DrillDown", "Pivot", "RollUp", "Slice"]
    return plans


@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_a_cube_whose_load_reported_an_error_answers_no_query(medbuddy, tmp_path, case):
    edits, missing, (code, message) = LOAD_ERRORS[case]
    data = _package(tmp_path, **edits)
    if missing:
        (data / f"{missing}.csv").unlink()
    cube, diags = load_cube(medbuddy, data)
    assert [d for d in diags if d.is_error][0] == cube.error and (cube.error.code, cube.error.message) == (code, message)
    bindings = {"year": "2023", "id": "c2"}
    queries = {kind: partial(run_plan, cube, plan, bindings) for kind, plan in _plans(medbuddy).items()}
    queries["aggregate"] = lambda: aggregate(cube.view(FACT), [_path("Patient.gender")])
    queries["slice_view"] = lambda: slice_view(cube.view(FACT), m.Predicate(_path("Patient.gender"), m.Literal("Male")))
    queries["CubeView"] = lambda: aggregate(CubeView(cube, FACT, range(10)), [_path("Patient.gender")])  # built directly
    for name, query in [*queries.items()] * 2:  # a repeat query would build member folds
        with pytest.raises(EngineError) as exc:
            query()
        assert (exc.value.code, str(exc.value)) == ("ENG030", f"the data package did not load: {code} {message}"), name
    assert postings_built(cube) == folds_built(cube) == []


def test_a_view_of_an_entity_with_no_table_is_eng030(cube):
    for view in (lambda: cube.view("Ward"), lambda: CubeView(cube, "Ward", [])):
        with pytest.raises(EngineError) as exc:
            view()
        assert (exc.value.code, str(exc.value)) == ("ENG030", "no data loaded for Ward")


def test_a_package_with_warnings_only_answers(medbuddy, cube, tmp_path):
    data = _package(tmp_path)
    with (data / "manifest.toml").open("a", encoding="utf-8") as handle:
        handle.write('Ward = "Ward.csv"\n')
    warned, diags = load_cube(medbuddy, data)
    assert [(d.code, d.is_error) for d in diags] == [("ENG001", False)] and warned.error is None
    for kind, plan in _plans(medbuddy).items():
        assert run_plan(warned, plan, {"year": "2023", "id": "c2"}) == run_plan(cube, plan, {"year": "2023", "id": "c2"}), kind


# ---------------------------------------------------------------------------
# Reference postings: built once per table and reference
# ---------------------------------------------------------------------------


def _counted_postings(monkeypatch) -> list:
    """The references each build of postings groups, as it builds them."""
    build, built = engine._member_lists, []

    def counted(table, refs):
        built.append((table.entity_id, "+".join(refs)))
        return build(table, refs)

    monkeypatch.setattr(engine, "_member_lists", counted)
    return built


def test_postings_are_built_once_per_table_and_reference_and_kept_out_of_equality(medbuddy, monkeypatch):
    cube, _ = load_cube(medbuddy, DATA_DIR)
    built = _counted_postings(monkeypatch)
    operations = [(uc.id, op.id) for uc in medbuddy.use_cases for op in uc.operations]
    first = [result_to_csv(run_use_case(cube, *op, {"year": "2023", "id": "c2"})) for op in operations]
    again = [result_to_csv(run_use_case(cube, *op, {"year": "2023", "id": "c2"})) for op in operations]
    assert first == again
    # the year slices, and the city and residence dices walked back from City
    expected = [(FACT, "institution"), (FACT, "patient"), (FACT, "scheduled_date"), ("Institution", "city"), ("Patient", "residence")]
    assert sorted(built) == postings_built(cube) == expected
    fresh, _ = load_cube(medbuddy, DATA_DIR)
    for entity_id in (FACT, "Patient"):
        table, unused = cube.table(entity_id), fresh.table(entity_id)
        assert table == unused and repr(table) == repr(unused) and table.postings and unused.postings == {}


# r01 and r03: fewer positions than any dimension holds rows, so every hop is read
# chained; r03 has no closed_date, so its null first hop forms the null group
SMALL = [0, 2]


@pytest.mark.parametrize("keys", GROUPINGS, ids=lambda k: "+".join(k) or "grand-total")
def test_a_view_smaller_than_its_dimensions_matches_the_oracle(cube, medbuddy, tables, keys):
    view = CubeView(cube, FACT, SMALL)
    rows = [tables[FACT][i] for i in SMALL]
    paths = [_path(k) for k in keys]
    expected = oracle.aggregate(medbuddy, tables, FACT, rows, paths)
    result = aggregate(view, paths)
    assert {row[: len(keys)]: row[len(keys):] for row in result.rows} == {
        key: tuple(values[name] for name in result.measure_names) for key, values in expected.items()
    }
    for pred, binds in ((YEAR_PRED, {"year": "2023"}), (CITY_PRED, {"id": "c1"})):
        kept = [row["id"] for row in oracle.filter_rows(medbuddy, tables, FACT, (pred,), {"year": 2023, "id": "c1"})]
        assert [row["id"] for row in slice_view(view, pred, binds).rows()] == [i for i in kept if i in ("r01", "r03")]


@pytest.mark.parametrize("positions", [range(10), list(range(10)), SMALL], ids=["whole", "list", "small"])
def test_measure_predicates_matching_no_and_two_dimension_rows(medbuddy, tmp_path, positions):
    data = _package(tmp_path, RequestState=lambda text: text.replace("s2,true,false,Held", "s2,true,false,Cancelled"))
    states, _ = load_cube(medbuddy, data)
    tables = oracle.load_tables(medbuddy, data)
    view = CubeView(states, FACT, positions)
    rows = [tables[FACT][i] for i in positions]
    for value, count in (("Held", 0), ("Cancelled", {10: 7, 2: 1}[len(rows)])):
        expr = m.Aggregate("COUNT", m.Predicate(_path("state"), m.EnumLiteral("States", value)))
        assert evaluate_measure(view, expr) == oracle.eval_measure(medbuddy, tables, FACT, expr, rows) == count, value
    by_name = aggregate(view, [_path("Institution.name")])
    expected = oracle.aggregate(medbuddy, tables, FACT, rows, [_path("Institution.name")])
    column = by_name.columns.index("CountCancelledAppointments")
    assert {row[0]: row[column] for row in by_name.rows} == {k[0]: v["CountCancelledAppointments"] for k, v in expected.items()}


@pytest.mark.parametrize("positions", [range(10), list(range(2, 10))])
def test_min_and_max_through_a_hop_of_tied_zeros_read_0_0(medbuddy, tmp_path, positions):
    latitudes = {"i1": "0.0", "i2": "-0.0", "i3": "-0.0"}  # r01 reads i1, r03 reads i2; -0.0 loads as 0.0
    data = _package(tmp_path, Institution=partial(re.sub, r"^(i\d),(\w+),([^,]+),[^,]+,",
                                                  lambda match: f"{match[1]},{match[2]},{match[3]},{latitudes[match[1]]},",
                                                  flags=re.M))
    zeros, _ = load_cube(medbuddy, data)
    tables = oracle.load_tables(medbuddy, data)
    rows = [tables[FACT][i] for i in positions]
    for fn in ("MIN", "MAX"):
        expr = m.Aggregate(fn, _path("Institution.latitude"))
        value = evaluate_measure(CubeView(zeros, FACT, positions), expr)
        expected = oracle.eval_measure(medbuddy, tables, FACT, expr, rows)
        assert value == expected == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, expected) == 1.0, fn


# ---------------------------------------------------------------------------
# Measure folds: one C-level pass per input, AVERAGE as SUM over COUNT
# ---------------------------------------------------------------------------

# The folds before they became single C-level calls, kept as the reference: each
# takes the group's non-null values; SUM and AVERAGE add left to right, which
# is exact for the Integers here.
_REDUCED = {
    "COUNT": len,
    "SUM": lambda values: reduce(add, values, 0),
    "AVERAGE": lambda values: reduce(add, values, 0.0) / len(values) if values else None,
    "MIN": lambda values: min(values) if values else None,
    "MAX": lambda values: max(values) if values else None,
}
_INTEGERS = st.lists(st.one_of(st.none(), st.integers(-(2**40), 2**40)), max_size=40)


def _reduced(fn, values):
    return _REDUCED[fn]([v for v in values if v is not None])


@given(_INTEGERS)
def test_integer_folds_equal_the_reduced_folds_while_running_sums_stay_exact(values):
    assert all(abs(total) <= 2**53 for total in accumulate(v for v in values if v is not None))
    for fn, fold in engine._INTEGER_FOLDS.items():
        assert repr(fold(values)) == repr(_reduced(fn, values)), fn


def _rounded(values):
    """A Decimal SUM's reference: the infinities' and nans' left-to-right sum,
    when there are any, else the exact sum rounded once to the nearest float."""
    special = [v for v in values if not math.isfinite(v)]
    if special:
        return reduce(add, special)
    exact = sum(map(Fraction, values), Fraction(0))
    if abs(exact) >= 2**1024 - 2**970:  # half an ulp past the largest float
        return math.inf if exact > 0 else -math.inf
    return float(exact)


_ROUNDED = {**_REDUCED, "SUM": lambda values: _rounded(values) if values else 0,
            "AVERAGE": lambda values: _rounded(values) / len(values) if values else None}


@given(st.lists(st.one_of(st.none(), st.floats()), max_size=40))
def test_decimal_folds_equal_the_reduced_folds(values):
    for fn, fold in engine._FOLDS.items():
        assert repr(fold(values)) == repr(_ROUNDED[fn]([v for v in values if v is not None])), fn


@pytest.mark.parametrize("values, total", [
    ([1e16, 1.0, -1e16, 1.0], 2.0),  # 1.0 when added left to right
    ([0.1] * 10, 1.0),  # 0.9999999999999999 left to right
    ([1e308, 1e308, -1e308], 1e308),  # finite, where fsum's partial sums overflow
    ([1e308, 1e308], math.inf), ([-1e308, -1e308, 1.0], -math.inf),
    ([math.inf, 1e308, 1e308], math.inf), ([math.inf, -math.inf, 1.0], math.nan),
    ([None, None], 0), ([0.0, None], 0.0),
])
def test_a_decimal_sum_is_correctly_rounded_in_any_order(values, total):
    for order in (values, values[::-1], values[1:] + values[:1]):
        assert repr(engine._decimal_sum(order)) == repr(total), order


@given(st.lists(st.booleans()))
def test_a_predicate_count_is_the_number_of_hits(hits):
    assert engine._hits(iter(hits)) == hits.count(True)


def test_an_integer_average_past_2_53_is_the_exact_mean(medbuddy, tmp_path):
    # i1's waiting times are 2**53, 1, 1 and a null: a float running sum stays at 2**53
    times = {"r01,i1,p1,s2,t1,t2,30,12,": f"r01,i1,p1,s2,t1,t2,30,{2**53},", "r02,i1,p2,s3,t1,t3,20,40,": "r02,i1,p2,s3,t1,t3,20,1,",
             "r06,i1,p3,s2,t6,t6,45,2,": "r06,i1,p3,s2,t6,t6,45,1,"}
    data = _package(tmp_path, AppointmentRequest=partial(re.sub, "|".join(times), lambda match: times[match[0]]))
    big, diags = load_cube(medbuddy, data)
    assert [d.code for d in diags] == []
    exact = float(Fraction(2**53 + 2, 3))
    result = run_use_case(big, "AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitution")
    averages = {row[0]: row[result.columns.index("AvgWaitingTime")] for row in result.rows}
    assert averages["Hospital de Santa Maria"] == exact != _REDUCED["AVERAGE"]([2**53, 1, 1])
    tables = oracle.load_tables(medbuddy, data)
    rows = [row for row in tables[FACT] if row["institution"] == "i1"]
    measure = medbuddy.entity(FACT).attribute("AvgWaitingTime").measure
    assert oracle.eval_measure(medbuddy, tables, FACT, measure, rows) == exact


# ---------------------------------------------------------------------------
# Order-free by value: equal values print alike, Decimal sums are correctly rounded
# ---------------------------------------------------------------------------

# One measure per case: each once depended on the order of the rows.
ORDER_MODEL = """
DataEntity Site ("Site") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  region is a String (NotNull),
  latitude is a Decimal (NotNull),
  opened is a DateTime (NotNull),
  shift is a Time (NotNull)
described as sites.

DataEntity Visit ("Visit") is a Transactional Fact with attributes
  id is a UUID (PrimaryKey),
  site refers to Dimension Site (NotNull),
  cost is a Decimal (NotNull),
  Result is a {type} (operation {operation})
described as visits.

Actor Analyst "Analyst" is a User described as an analyst.

UseCase Visits is a BIAnalysis
  actor Analyst,
  data source Visit,
  performs
    OLAP Operation ByRegion is a Roll-up
      group by Site.region
      described as rolls up the visits per region,
    OLAP Operation ByLatitude is a Roll-up
      group by Site.latitude
      described as rolls up the visits per latitude,
    OLAP Operation North is a Slice
      where Site.region = "North"
      described as slices the visits in the north,

  described as it shows the visits.
"""
# s1 and s2 hold equal values written apart (0.0 and -0.0; one instant at two
# UTC offsets). The fact reads s2 first, the postings of Site row s1 come first,
# and the costs of the north add to 1.0 left to right in file order, to 2.0 in
# postings order, and to 2.0 correctly rounded.
ORDER_SITES = """id,region,latitude,opened,shift
s1,North,0.0,2024-01-01T10:00:00+01:00,10:00:00+01:00
s2,North,-0.0,2024-01-01T09:00:00+00:00,09:00:00+00:00
s3,South,1.5,2024-02-01T08:00:00+00:00,08:00:00+00:00
"""
ORDER_VISITS = "id,site,cost\nv1,s2,1e16\nv2,s1,1.0\nv3,s2,-1e16\nv4,s1,1.0\nv5,s3,2.5\n"
# the type and operation of the measure, and its text over the north (s1 and s2)
ORDER_CASES = {
    "Decimal SUM": ("Decimal", "SUM(cost)", "2.0"),
    "Decimal AVERAGE": ("Decimal", "AVERAGE(cost)", "0.5"),
    "MIN of tied zeros": ("Decimal", "MIN(Site.latitude)", "0.0"),
    "MAX of tied zeros": ("Decimal", "MAX(Site.latitude)", "0.0"),
    "MIN of one instant at two offsets": ("DateTime", "MIN(Site.opened)", "2024-01-01T09:00:00+00:00"),
    "MAX of one time at two offsets": ("Time", "MAX(Site.shift)", "09:00:00+00:00"),
    "group keys of tied zeros": ("Integer", "COUNT(id)", "4"),
}


def order_package(directory, case: str):
    """The model of one ``ORDER_CASES`` case, with ``ORDER_SITES`` and ``ORDER_VISITS`` written to ``directory``."""
    attr_type, operation, _ = ORDER_CASES[case]
    model, diags = parse_cnlbi(ORDER_MODEL.format(type=attr_type, operation=operation), "order.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    directory.mkdir(exist_ok=True)
    (directory / "Site.csv").write_text(ORDER_SITES, encoding="utf-8")
    (directory / "Visit.csv").write_text(ORDER_VISITS, encoding="utf-8")
    (directory / "manifest.toml").write_text('Site = "Site.csv"\nVisit = "Visit.csv"\n', encoding="utf-8")
    return model


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_tied_values_and_decimal_sums_give_one_answer_and_match_the_oracle(tmp_path, case):
    """The north is one group by region and, its latitudes both 0.0, by
    latitude; the first run reads the fact rows, the later ones member folds
    where the measure has them."""
    model = order_package(tmp_path, case)
    cube, diags = load_cube(model, tmp_path)
    assert diags == [] and cube.error is None
    tables = oracle.load_tables(model, tmp_path)
    north = ORDER_CASES[case][2]
    for op, path in (("ByRegion", "Site.region"), ("ByLatitude", "Site.latitude")):
        grouped = oracle.aggregate(model, tables, "Visit", tables["Visit"], [_path(path)])
        expected = sorted((repr(key), repr((values["Result"],))) for key, values in grouped.items())
        for _ in range(3):
            result = run_use_case(cube, "Visits", op)
            assert sorted((repr(row[:1]), repr(row[1:])) for row in result.rows) == expected, path
            assert result_to_csv(result).splitlines()[1] == ("North" if op == "ByRegion" else "0.0") + "," + north, path
    kept = oracle.filter_rows(model, tables, "Visit", (m.Predicate(_path("Site.region"), m.Literal("North")),))
    measure = model.entity("Visit").attribute("Result").measure
    for _ in range(3):
        result = run_use_case(cube, "Visits", "North")
        assert repr(result.rows) == repr(((4, oracle.eval_measure(model, tables, "Visit", measure, kept)),))
        assert result_to_csv(result).splitlines()[1] == f"4,{north}"


@pytest.mark.parametrize("chunk_rows", [2, engine.CHUNK_ROWS])
def test_a_datetime_or_time_column_mixing_naive_and_aware_values_is_eng003(tmp_path, monkeypatch, chunk_rows):
    """Each column takes the awareness of its first value; s2 differs in both,
    and its row does not load, so MIN and MAX compare only values of one kind."""
    model, _ = parse_cnlbi(ORDER_MODEL.format(type="DateTime", operation="MIN(Site.opened)"), "order.cnlbi")
    (tmp_path / "Site.csv").write_text("id,region,latitude,opened,shift\n"
                                       "s1,North,0.0,2024-01-01T10:00:00,10:00:00+01:00\n"
                                       "s2,North,1.0,2024-01-01T09:00:00+00:00,09:00:00\n"
                                       "s3,South,1.5,2023-12-31T08:00:00,08:00:00+00:00\n", encoding="utf-8")
    (tmp_path / "Visit.csv").write_text("id,site,cost\nv1,s1,1.0\nv2,s3,2.0\n", encoding="utf-8")
    (tmp_path / "manifest.toml").write_text('Site = "Site.csv"\nVisit = "Visit.csv"\n', encoding="utf-8")
    monkeypatch.setattr(engine, "CHUNK_ROWS", chunk_rows)
    cube, diags = load_cube(model, tmp_path)
    assert [(d.code, d.message) for d in diags] == [
        ("ENG003", "Site.csv row 2, column opened: '2024-01-01T09:00:00+00:00' is offset-aware but the column's first value is offset-naive"),
        ("ENG003", "Site.csv row 2, column shift: '09:00:00' is offset-naive but the column's first value is offset-aware"),
    ]
    sites = cube.table("Site")
    assert sites.data["id"] == ["s1", "s3", None]
    assert sites.data["opened"][:2] == [datetime(2024, 1, 1, 10), datetime(2023, 12, 31, 8)]
    assert [value.tzinfo for value in sites.data["opened"][:2]] == [None, None]
    assert [value.isoformat() for value in sites.data["shift"][:2]] == ["09:00:00+00:00", "08:00:00+00:00"]
    with pytest.raises(EngineError) as exc:
        run_use_case(cube, "Visits", "ByRegion")
    assert str(exc.value) == f"the data package did not load: ENG003 {diags[0].message}"


def test_offset_aware_values_load_at_utc_and_a_time_wraps_past_midnight(tmp_path):
    """s3's opening lies before year 1 at UTC, so its row does not load, and
    v5's reference to it dangles."""
    model = order_package(tmp_path, "MIN of one instant at two offsets")
    (tmp_path / "Site.csv").write_text("id,region,latitude,opened,shift\n"
                                       "s1,North,0.0,2024-01-01T00:30:00.250000+01:00,00:30:00+01:00\n"
                                       "s2,North,-0.0,2023-12-31T19:00:00-05:00,23:45:00-00:30\n"
                                       "s3,South,1.5,0001-01-01T00:30:00+01:00,08:00:00+00:00\n", encoding="utf-8")
    cube, diags = load_cube(model, tmp_path)
    assert [(d.code, d.message) for d in diags] == [
        ("ENG003", "Site.csv row 3, column opened: '0001-01-01T00:30:00+01:00' lies outside the DateTime range at UTC"),
        ("ENG004", "Visit row 5, column site: no Site row with key 's3'")]
    assert cube.error == diags[0]
    sites = cube.table("Site")
    assert [value.isoformat() for value in sites.data["opened"][:sites.size]] == [
        "2023-12-31T23:30:00.250000+00:00", "2024-01-01T00:00:00+00:00"]
    assert [value.isoformat() for value in sites.data["shift"][:sites.size]] == ["23:30:00+00:00", "00:15:00+00:00"]
    assert repr(sites.data["latitude"][:sites.size]) == "[0.0, 0.0]"


# ---------------------------------------------------------------------------
# Member folds: repeat roll-ups and slices combine one partial per dimension row
# ---------------------------------------------------------------------------

FOLD_MODEL = """
DataEntity Ward ("Ward") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  wing is a String
described as wards.

DataEntity Stay ("Stay") is a Transactional Fact with attributes
  id is a UUID (PrimaryKey),
  ward refers to Dimension Ward,
  cost is an Integer,
  fee is a Decimal (NotNull),
  Stays is an Integer (operation COUNT(id)),
  Costed is an Integer (operation COUNT(cost)),
  EastStays is an Integer (operation COUNT(ward.wing = "East")),
  TotalCost is a Decimal (operation SUM({summed})),
  MeanCost is a Decimal (operation AVERAGE(cost)),
  LeastCost is an Integer (operation MIN(cost)),
  MostCost is an Integer (operation MAX(cost)),
  CostPerStay is a Decimal (operation (TotalCost / Stays))
described as stays.

Actor Analyst "Analyst" is a User described as an analyst.

UseCase Stays is a BIAnalysis
  actor Analyst,
  data source Stay,
  performs
    OLAP Operation ByWard is a Roll-up
      group by Ward.id
      described as rolls up the stays per ward,
    OLAP Operation ByWing is a Roll-up
      group by Ward.wing
      described as rolls up the stays per wing,
    OLAP Operation InWing is a Slice
      where Ward.wing = Ward.wing
      described as slices the stays in one wing,

  described as it shows the stays.
"""
# w2's costs are all null; w4 has no wing, so its stays join the null-slot
# member (s7, no ward) in the null wing; w5 has no stays. Each member's cost
# sum fits in 64 bits, the East wing's (w1, w2 and w6) does not.
FOLD_WARDS = "id,wing\nw1,East\nw2,East\nw3,West\nw4,\nw5,West\nw6,East\n"
FOLD_STAYS = f"""id,ward,cost,fee
s1,w1,{2**62},1.5
s2,w1,{2**62 - 1},2.5
s3,w2,,1.0
s4,w2,,1.0
s5,w3,5,0.5
s6,w6,{2**62},0.5
s7,,7,1.0
s8,w4,-3,1.0
"""
FOLD_OPS = {"ByWard": {}, "ByWing": {}, "InWing East": {"wing": "East"}, "InWing none": {"wing": "Nowhere"}}


def _fold_cube(directory, stays=FOLD_STAYS, wards=FOLD_WARDS, summed="cost"):
    model, diags = parse_cnlbi(FOLD_MODEL.format(summed=summed), "folds.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    directory.mkdir(exist_ok=True)
    (directory / "Ward.csv").write_text(wards, encoding="utf-8")
    (directory / "Stay.csv").write_text(stays, encoding="utf-8")
    (directory / "manifest.toml").write_text('Ward = "Ward.csv"\nStay = "Stay.csv"\n', encoding="utf-8")
    cube, diags = load_cube(model, directory)
    assert diags == []
    return model, cube


def _fold_results(model, cube, directory) -> dict:
    """Each of ``FOLD_OPS`` run three times on ``cube`` (the second run through
    a reference builds its member folds); all three print the CSV the oracle's
    rows give. Returns each operation's result."""
    tables = oracle.load_tables(model, directory)
    measures = [a.id for a in model.entity("Stay").measures]
    results = {}
    for name, binds in FOLD_OPS.items():
        op = name.split()[0]
        runs = [run_use_case(cube, "Stays", op, binds) for _ in range(3)]
        plan = plan_operation(model, "Stays", op)
        if binds:
            kept = oracle.filter_rows(model, tables, "Stay", plan.operation.where_clauses, binds)
            rows = ((len(kept),) + tuple(oracle.eval_measure(model, tables, "Stay", model.entity("Stay").attribute(a).measure, kept)
                                         for a in measures),)
        else:
            grouped = oracle.aggregate(model, tables, "Stay", tables["Stay"], [_path(plan.keys[0].path)])
            rows = sorted((key + tuple(values[a] for a in measures) for key, values in grouped.items()),
                          key=lambda row: engine._sort_token(row[0]))
        expected = result_to_csv(engine.ResultTable(runs[0].group_keys, runs[0].measure_names, rows))
        assert [result_to_csv(result) for result in runs] == [expected] * 3, name
        results[name] = runs[0]
    return results


def test_member_folds_combine_to_what_the_rows_give(tmp_path):
    model, cube = _fold_cube(tmp_path)
    results = _fold_results(model, cube, tmp_path)
    assert folds_built(cube) == [("Stay", "ward")]
    by_ward = {row[0]: row[1:] for row in results["ByWard"].rows}
    assert set(by_ward) == {None, "w1", "w2", "w3", "w4", "w6"}  # w5 has no stays
    assert by_ward["w2"] == (2, 0, 2, 0, None, None, None, 0.0)  # an all-null AVERAGE input
    assert by_ward[None] == (1, 1, 0, 7, 7.0, 7, 7, 7.0)  # the null-slot member
    by_wing = {row[0]: row[1:] for row in results["ByWing"].rows}
    assert by_wing[None][:4] == (2, 2, 0, 4)  # the null slot and the wingless w4
    assert by_wing["East"][3] == 2**63 + 2**62 - 1 == results["InWing East"].rows[0][4]  # exact past 2**63
    assert results["InWing none"].rows == ((0, 0, 0, 0, 0, None, None, None, None),)
    # a count or sum per member in a machine integer, a MIN or MAX in a list; none for COUNT(id)
    kinds = sorted((fold.__name__, type(slot).__name__) for (_, fold), slot in cube.table("Stay").folds["ward",].slots.items())
    assert kinds == [("_count", "array"), ("_hits", "array"), ("_integer_sum", "array"), ("_max", "list"), ("_min", "list")]


def test_a_member_sum_past_64_bits_is_kept_as_python_ints(tmp_path):
    stays = FOLD_STAYS + f"s9,w3,{2**63 - 1},1.0\ns10,w3,{2**63 - 1},1.0\n"  # w3 sums to 2**64 + 3
    model, cube = _fold_cube(tmp_path, stays=stays)
    results = _fold_results(model, cube, tmp_path)
    sums = [slot for (key, fold), slot in cube.table("Stay").folds["ward",].slots.items() if fold is engine._integer_sum]
    assert [type(slot) for slot in sums] == [list] and 2**64 + 3 in sums[0]
    assert {row[0]: row[4] for row in results["ByWard"].rows}["w3"] == 2**64 + 3


@pytest.mark.parametrize("wards", [FOLD_WARDS, "id,wing\n"], ids=["wards", "no wards"])
def test_a_0_row_fact_combines_no_rows(tmp_path, wards):
    model, cube = _fold_cube(tmp_path, stays="id,ward,cost,fee\n", wards=wards)
    results = _fold_results(model, cube, tmp_path)
    assert results["ByWard"].rows == () and results["InWing none"].rows == results["InWing East"].rows
    # a slice walks the postings only when the fact holds at least as many rows as Ward
    assert folds_built(cube) == ([] if wards == FOLD_WARDS else [("Stay", "ward")])


def test_a_decimal_sum_builds_no_member_folds_and_reads_the_kept_postings(tmp_path, monkeypatch):
    model, cube = _fold_cube(tmp_path, summed="fee")
    built = _counted_postings(monkeypatch)
    _fold_results(model, cube, tmp_path)
    assert postings_built(cube) == built == [("Stay", "ward")] and folds_built(cube) == []


def test_member_folds_are_built_by_the_second_query_through_a_reference_once(medbuddy, monkeypatch):
    """The first query on a fresh cube, as one ``bispec olap`` runs it, builds
    postings and no member folds; the second through the same reference
    builds each of its folds once, and later ones read them."""
    cube, _ = load_cube(medbuddy, DATA_DIR)
    build, built = engine._member_folds, []

    def counted(folds, values, offsets):
        built.extend(folds)
        return build(folds, values, offsets)

    monkeypatch.setattr(engine, "_member_folds", counted)
    uc = "AnalysisAppointmentsInstitutionOnNationalLevel"
    queries = [(uc, "ScheduledAppointmentsInSpecificYear", {"year": "2023"}), (uc, "AppointmentsByInstitutionCity", {})]
    first = [result_to_csv(run_use_case(cube, *query)) for query in queries]
    assert postings_built(cube) == [(FACT, "institution"), (FACT, "scheduled_date")] and folds_built(cube) == [] == built
    again = [result_to_csv(run_use_case(cube, *query)) for query in queries]
    assert folds_built(cube) == [(FACT, "institution"), (FACT, "scheduled_date")]
    # per reference: COUNT(state = Cancelled), the sum and count of AVERAGE(actual_response_time), MIN and MAX(scheduled_date)
    assert sorted(fold.__name__ for fold in built) == sorted(["_hits", "_integer_sum", "_count", "_min", "_max"] * 2)
    slots = {refs: dict(kept.slots) for refs, kept in cube.table(FACT).folds.items()}
    run_use_case(cube, uc, "AppointmentsByInstitution")
    assert again == first and len(built) == 10
    assert all(cube.table(FACT).folds[refs].slots[key] is slot for refs, kept in slots.items() for key, slot in kept.items())
    fresh, _ = load_cube(medbuddy, DATA_DIR)
    assert cube.table(FACT) == fresh.table(FACT) and repr(cube.table(FACT)) == repr(fresh.table(FACT))
    assert fresh.table(FACT).folds == {} != cube.table(FACT).folds


# ---------------------------------------------------------------------------
# Composite members: the pivot and other multi-key roll-ups over the whole fact
# ---------------------------------------------------------------------------

PIVOT_MODEL = """
DataEntity Ward ("Ward") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  wing is a String
described as wards.

DataEntity Shift ("Shift") is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull)
described as shifts.

DataEntity Stay ("Stay") is a Transactional Fact with attributes
  id is a UUID (PrimaryKey),
  ward refers to Dimension Ward,
  shift refers to Dimension Shift,
  cost is an Integer,
  fee is a Decimal (NotNull),
  Stays is an Integer (operation COUNT(id)),
  TotalCost is a Decimal (operation SUM({summed})),
  LeastCost is an Integer (operation MIN(cost))
described as stays.

Actor Analyst "Analyst" is a User described as an analyst.

UseCase Stays is a BIAnalysis
  actor Analyst,
  data source Stay,
  performs
    OLAP Operation WardsByShift is a Pivot
      swap Ward with Shift
      described as pivots the stays per ward and shift,

  described as it shows the stays.
"""
# 3 wards and 2 shifts make (3 + 1) * (2 + 1) = 12 members, null slots
# included, so the pivot groups by member from 11 stays on
PIVOT_WARDS = "id,wing\nw1,East\nw2,East\nw3,West\n"
PIVOT_SHIFTS = "id,name\nn,Night\nd,Day\n"
PIVOT_STAYS = "id,ward,shift,cost,fee\n" + "".join(
    f"s{i},{ward},{shift},{cost},{fee}\n"
    for i, (ward, shift, cost, fee) in enumerate([("w1", "n", 5, 0.5), ("w1", "d", "", 1.0), ("w2", "n", -3, 2.5),
                                                  ("", "d", 7, 1.5), ("w3", "", 2, 0.25), ("w1", "n", 9, 1.0),
                                                  ("w3", "d", 4, 3.0), ("w2", "n", "", 0.5), ("w1", "d", 1, 1.0),
                                                  ("w3", "d", 6, 2.0), ("", "", 8, 0.5), ("w2", "d", 3, 1.0)]))


def _pivot_cube(directory, stays=PIVOT_STAYS, summed="cost"):
    model, diags = parse_cnlbi(PIVOT_MODEL.format(summed=summed), "pivot.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    directory.mkdir(exist_ok=True)
    for name, text in (("Ward", PIVOT_WARDS), ("Shift", PIVOT_SHIFTS), ("Stay", stays)):
        (directory / f"{name}.csv").write_text(text, encoding="utf-8")
    (directory / "manifest.toml").write_text("".join(f'{n} = "{n}.csv"\n' for n in ("Ward", "Shift", "Stay")), encoding="utf-8")
    cube, diags = load_cube(model, directory)
    assert diags == []
    return model, cube


def _looped(cube, plan) -> str:
    """The pivot of ``plan`` grouped row by row, over a list of the fact's positions."""
    listed = CubeView(cube, plan.fact.id, list(range(cube.table(plan.fact.id).size)))
    return result_to_csv(pivot(aggregate(listed, plan.keys)))


def test_a_composite_with_more_members_than_fact_rows_groups_row_by_row(medbuddy, cube):
    """The fixture's 3 institutions and 3 request states make 16 members for 10 appointments."""
    pivot_op = m.OlapOperation(id="StatesByInstitution", kind="Pivot", swap=("Institution", "RequestState"))
    plan = operation_plan(medbuddy, medbuddy.use_case("AnalysisAppointmentsInstitutionOnNationalLevel"), pivot_op)
    fresh, _ = load_cube(medbuddy, DATA_DIR)
    assert [result_to_csv(run_plan(fresh, plan)) for _ in range(3)] == [_looped(fresh, plan)] * 3
    assert postings_built(fresh) == folds_built(fresh) == []


def test_the_first_pivot_builds_postings_and_the_second_member_folds(tmp_path):
    model, cube = _pivot_cube(tmp_path)
    plan = plan_operation(model, "Stays", "WardsByShift")
    looped = _looped(cube, plan)
    assert result_to_csv(run_plan(cube, plan)) == looped
    assert postings_built(cube) == [("Stay", "ward+shift")] and folds_built(cube) == []
    assert [result_to_csv(run_plan(cube, plan)) for _ in range(2)] == [looped] * 2
    assert folds_built(cube) == [("Stay", "ward+shift")]
    # the null-slot members: (no ward, Day) holds s3, (w3, no shift) s4 and (no ward, no shift) s10
    rows = {row[:2]: row[2:] for row in run_plan(cube, plan).rows}
    assert rows["Day", None] == (1, 7.0, 7) and rows[None, "w3"] == (1, 2.0, 2) and rows[None, None] == (1, 8.0, 8)
    assert rows["Night", "w1"] == (2, 14.0, 5) and rows["Night", "w2"] == (2, -3.0, -3)


def test_a_fact_with_fewer_rows_than_members_builds_no_composite_postings(tmp_path):
    stays = "".join(PIVOT_STAYS.splitlines(keepends=True)[:11])  # 10 stays for 12 members
    model, cube = _pivot_cube(tmp_path, stays=stays)
    plan = plan_operation(model, "Stays", "WardsByShift")
    assert [result_to_csv(run_plan(cube, plan)) for _ in range(3)] == [_looped(cube, plan)] * 3
    assert postings_built(cube) == folds_built(cube) == []


def test_a_decimal_sum_pivot_builds_postings_once_and_no_member_folds(tmp_path, monkeypatch):
    model, cube = _pivot_cube(tmp_path, summed="fee")
    built = _counted_postings(monkeypatch)
    plan = plan_operation(model, "Stays", "WardsByShift")
    assert [result_to_csv(run_plan(cube, plan)) for _ in range(3)] == [_looped(cube, plan)] * 3
    assert postings_built(cube) == built == [("Stay", "ward+shift")] and folds_built(cube) == []


def test_a_repeat_rollup_builds_no_grouping_and_no_counts(tmp_path, monkeypatch):
    """The second query through a tuple of references takes each member's row
    count, the grouping of its keys and the combine plan of its measures once;
    a third builds none of them, and a new key list only its grouping."""
    model, cube = _pivot_cube(tmp_path)
    calls = []

    def counted(name, build):
        def call(*args):
            calls.append(name)
            return build(*args)

        monkeypatch.setattr(engine, name, call)

    for name in ("_Members", "_member_grouping", "_combine_plan"):
        counted(name, getattr(engine, name))
    plan = plan_operation(model, "Stays", "WardsByShift")
    runs = []
    for expected in (["_member_grouping"], ["_Members", "_combine_plan", "_member_grouping"], []):
        runs.append(result_to_csv(run_plan(cube, plan)))
        assert calls == expected
        calls.clear()
    assert runs == [_looped(cube, plan)] * 3
    by_wing = [Column("ward.wing", (("ward", "Ward"),), model.entity("Ward").attribute("wing")), plan.keys[1]]
    looped = aggregate(CubeView(cube, "Stay", list(range(12))), by_wing)
    assert [aggregate(cube.view("Stay"), by_wing) for _ in range(2)] == [looped] * 2
    assert calls == ["_member_grouping"]
