import dataclasses
import json
import math
import shutil
import sqlite3

import pytest

from bispec import model as m, parse_cnlbi
from bispec.plan import column, source_fact
from bispec.engine import load_cube, run_use_case
from bispec.generators import (
    GeneratorError,
    gen_dashboard_manifest,
    gen_olap_sql,
    gen_requirements_doc,
    gen_schema_sql,
)
from conftest import DATA_DIR, assert_rows_match_sql, sqlite_from_cube


@pytest.fixture(scope="module")
def connection(medbuddy, cube):
    """An in-memory database loaded from the generated DDL plus the fixture."""
    conn = sqlite_from_cube(medbuddy, cube)
    yield conn
    conn.close()


def test_schema_has_one_table_per_entity(medbuddy):
    sql = gen_schema_sql(medbuddy)
    assert sql.count("CREATE TABLE") == 6
    # dimensions precede the fact that references them
    assert sql.index('CREATE TABLE "City"') < sql.index('CREATE TABLE "Institution"')
    assert sql.index('CREATE TABLE "Institution"') < sql.index('CREATE TABLE "AppointmentRequest"')
    fact_block = sql[sql.index('CREATE TABLE "AppointmentRequest"') :]
    assert fact_block.count("FOREIGN KEY") == 5
    # measures are commented, never stored
    assert '"CountAppointments"' not in sql
    assert "--   CountAppointments = COUNT(id)" in sql


def test_city_table_shape(medbuddy):
    sql = gen_schema_sql(medbuddy)
    block = sql[sql.index('CREATE TABLE "City"') : sql.index('CREATE TABLE "Institution"')]
    assert block.count('"') >= 8
    assert '"id" CHAR(36) PRIMARY KEY' in block
    assert block.count(",\n") == 3  # four columns


def test_type_mapping(medbuddy):
    sql = gen_schema_sql(medbuddy)
    assert '"latitude" DECIMAL(18,6) NOT NULL' in sql
    assert '"year" INTEGER NOT NULL' in sql
    assert '"closed" BOOLEAN NOT NULL' in sql
    assert '"date" DATE NOT NULL' in sql
    assert "CHECK (\"gender\" IN ('Male', 'Female'))" in sql


def test_string_length_maps_to_varchar():
    source = """
DataEntity E is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  short is a String (NotNull).
"""
    model, _ = parse_cnlbi(source)
    entity = model.entity("E")
    sized = dataclasses.replace(
        entity,
        attributes=entity.attributes
        + (m.DataAttribute(id="code", attr_type=m.AttributeType.primitive("String", 50)),),
    )
    sql = gen_schema_sql(dataclasses.replace(model, entities=(sized,)))
    assert '"short" VARCHAR(255) NOT NULL' in sql
    assert '"code" VARCHAR(50)' in sql


def test_foreign_key_of_a_dimension_reference_is_written_once():
    model, diags = parse_cnlbi(
        """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull, ForeignKey(D)).
"""
    )
    assert not diags
    assert gen_schema_sql(model).count("FOREIGN KEY") == 1


def test_empty_model_emits_header_only():
    sql = gen_schema_sql(m.SpecificationModel())
    assert "CREATE TABLE" not in sql
    assert sql.startswith("--")


def test_reference_cycle_reports_gen001():
    a = m.DataEntity(
        id="A",
        entity_type="Reference",
        sub_type="Dimension",
        attributes=(
            m.DataAttribute(id="id", attr_type=m.AttributeType.primitive("UUID"), constraints=frozenset({m.Constraint("PrimaryKey")})),
            m.DataAttribute(id="b", attr_type=m.AttributeType.dimension("B")),
        ),
    )
    b = m.DataEntity(
        id="B",
        entity_type="Reference",
        sub_type="Dimension",
        attributes=(
            m.DataAttribute(id="id", attr_type=m.AttributeType.primitive("UUID"), constraints=frozenset({m.Constraint("PrimaryKey")})),
            m.DataAttribute(id="a", attr_type=m.AttributeType.dimension("A")),
        ),
    )
    with pytest.raises(GeneratorError) as exc:
        gen_schema_sql(m.SpecificationModel(entities=(a, b)))
    assert exc.value.code == "GEN001"


ENUM_KEYED = """
Data enumeration Colour with values Red and Blue.
DataEntity Paint is a Reference Dimension with attributes
  colour is a Colour (PrimaryKey).
DataEntity Order is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  paint refers to Dimension Paint (NotNull).
"""


def test_reference_column_takes_the_type_the_engine_reads():
    # the engine reads a reference as its target's key, here the Colour enumeration
    model, diags = parse_cnlbi(ENUM_KEYED)
    assert not [d for d in diags if d.is_error]
    sql = gen_schema_sql(model)
    assert '"colour" VARCHAR(255) PRIMARY KEY NOT NULL CHECK ("colour" IN (\'Red\', \'Blue\'))' in sql
    assert '"paint" VARCHAR(255) NOT NULL' in sql


def test_a_null_primary_key_is_refused_by_the_ddl_and_the_loader(medbuddy, tmp_path):
    # SQLite keeps NULL keys in a PRIMARY KEY column that is not INTEGER unless NOT NULL is declared
    conn = sqlite3.connect(":memory:")
    conn.executescript(gen_schema_sql(medbuddy))
    insert = 'INSERT INTO "City" ("id", "latitude", "longitude", "name") VALUES (?, 1.0, 2.0, ?)'
    conn.execute(insert, ("c1", "Lisboa"))
    with pytest.raises(sqlite3.IntegrityError, match="NOT NULL constraint failed: City.id"):
        conn.execute(insert, (None, "Porto"))
    conn.close()
    data = shutil.copytree(DATA_DIR, tmp_path / "data")
    city = data / "City.csv"
    city.write_text(city.read_text(encoding="utf-8").replace("\nc1,", "\n,", 1), encoding="utf-8")
    _, diags = load_cube(medbuddy, data)
    assert [(d.code, d.message) for d in diags if d.is_error][0] == ("ENG003", "City.csv row 1, column id: null in NOT NULL column")


def test_schema_loads_and_fixture_inserts(connection):
    count = connection.execute('SELECT COUNT(*) FROM "AppointmentRequest"').fetchone()[0]
    assert count == 10


GROUP_BY_OPS = [
    ("AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitutionCity"),
    ("AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitution"),
    ("AnalysisAppointmentsPatientOnNationalLevel", "AppointmentsByGender"),
    ("AnalysisAppointmentsPatientOnNationalLevel", "AppointmentsByAgeGroup"),
]


@pytest.mark.parametrize("uc_id,op_id", GROUP_BY_OPS)
def test_group_by_queries_match_engine(connection, medbuddy, cube, uc_id, op_id):
    sql = gen_olap_sql(medbuddy, uc_id, op_id)
    db_rows = connection.execute(sql).fetchall()
    engine_result = run_use_case(cube, uc_id, op_id)
    count_cols = [
        engine_result.columns.index("CountAppointments"),
        engine_result.columns.index("CountCancelledAppointments"),
    ]
    engine_set = {(row[0], row[count_cols[0]], row[count_cols[1]]) for row in engine_result.rows}
    db_set = {(row[0], row[count_cols[0]], row[count_cols[1]]) for row in db_rows}
    assert db_set == engine_set
    # decimal columns agree to 1e-9 as well
    avg_col = engine_result.columns.index("AvgWaitingTime")
    engine_avg = {row[0]: row[avg_col] for row in engine_result.rows}
    for row in db_rows:
        expected = engine_avg[row[0]]
        if expected is None:
            assert row[avg_col] is None
        else:
            assert math.isclose(row[avg_col], expected, abs_tol=1e-9)


def test_negative_and_large_group_keys_sort_like_sql(medbuddy, tmp_path):
    for name in DATA_DIR.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    ages = {",34,": ",-5,", ",61,": ",-10,", ",8,": f",{10**16},", ",45,": f",{2 * 10**15},"}
    patients = (DATA_DIR / "Patient.csv").read_text()
    for old, new in ages.items():
        patients = patients.replace(old, new)
    (tmp_path / "Patient.csv").write_text(patients)
    cube, diags = load_cube(medbuddy, tmp_path)
    assert not any(d.is_error for d in diags)

    uc_id, op_id = "AnalysisAppointmentsPatientOnNationalLevel", "AppointmentsByAgeGroup"
    result = run_use_case(cube, uc_id, op_id)
    assert [row[0] for row in result.rows] == [-10, -5, 2 * 10**15, 10**16]
    conn = sqlite_from_cube(medbuddy, cube)
    assert_rows_match_sql(result, conn.execute(gen_olap_sql(medbuddy, uc_id, op_id)).fetchall(), op_id)
    conn.close()


def test_slice_query_uses_named_placeholder(connection, medbuddy, cube):
    sql = gen_olap_sql(medbuddy, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear")
    assert ":year" in sql
    rows = connection.execute(sql, {"year": 2023}).fetchall()
    summary = run_use_case(
        cube, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear", {"year": "2023"}
    )
    assert len(rows) == summary.rows[0][summary.columns.index("row_count")] == 8


def test_dice_query_filters_conjunction(connection, medbuddy):
    sql = gen_olap_sql(
        medbuddy, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsBySpecificCityAndYear"
    )
    rows = connection.execute(sql, {"id": "c2", "year": 2023}).fetchall()
    assert len(rows) == 4


def test_pivot_query_groups_both_axes(medbuddy):
    pivot_op = m.OlapOperation(id="P", kind="Pivot", swap=("Institution", "Time"))
    uc = medbuddy.use_case("AnalysisAppointmentsInstitutionOnNationalLevel")
    patched_uc = dataclasses.replace(uc, operations=uc.operations + (pivot_op,))
    patched = dataclasses.replace(
        medbuddy, use_cases=tuple(patched_uc if u.id == uc.id else u for u in medbuddy.use_cases)
    )
    sql = gen_olap_sql(patched, uc.id, "P")
    assert "GROUP BY" in sql and sql.count('"j_') >= 2
    assert "pivot" in sql.lower()


def test_measure_cycle_reports_gen010(medbuddy_measure_cycle):
    with pytest.raises(GeneratorError) as exc:
        gen_olap_sql(medbuddy_measure_cycle, "AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitutionCity")
    assert (exc.value.code, str(exc.value)) == ("GEN010", "measure reference cycle at CancellationRate")


def test_underspecified_operation_reports_gen010(medbuddy_asl):
    with pytest.raises(GeneratorError) as exc:
        gen_olap_sql(medbuddy_asl, "Analysis_Appointments_National_Level", "AppointmentsByInstitutionCity")
    assert exc.value.code == "GEN010"


# ---------------------------------------------------------------------------
# Dashboard manifest
# ---------------------------------------------------------------------------


def test_manifest_matches_institution_page_elements(medbuddy):
    manifest = json.loads(gen_dashboard_manifest(medbuddy))
    pages = {c["id"]: c for c in manifest["containers"]}
    institution = pages["InstitutionOverviewPage"]
    assert [(c["id"], c["subtype"] or c["type"]) for c in institution["components"]] == [
        ("TimeRangeFilter", "Form"),
        ("LocationMap", "InteractiveGeographicalMap"),
        ("InstitutionTable", "Table"),
        ("CancellationRateChart", "InteractiveLineChart"),
        ("PatientPageNavigationButton", "Detail"),
    ]
    location_map = institution["components"][1]
    bindings = {p["kind"]: p["binding"] for p in location_map["parts"]}
    assert bindings["Latitude"] == {"path": "Institution.latitude", "entity": "Institution", "attribute": "latitude"}
    assert bindings["Longitude"]["attribute"] == "longitude"
    assert bindings["Value"]["attribute"] == "CountAppointments"
    assert location_map["actions"] == ["DrillDown", "TooltipAndHoverDetail", "ZoomAndPanUpdate"]


def test_manifest_matches_patient_page_elements(medbuddy):
    manifest = json.loads(gen_dashboard_manifest(medbuddy))
    pages = {c["id"]: c for c in manifest["containers"]}
    patient = pages["PatientOverviewPage"]
    visual = [(c["id"], c["subtype"]) for c in patient["components"] if c["subtype"] and c["subtype"] != "Table"]
    assert visual == [
        ("PatientAppointmentScatter", "InteractiveScatterPlot"),
        ("GenderChart", "InteractivePieChart"),
        ("AgeBarChart", "InteractiveBarChart"),
    ]
    ids = [c["id"] for c in patient["components"]]
    assert "PatientTable" in ids and "TimeRangeFilter" in ids and "InstitutionPageNavigationButton" in ids
    nav = [c for c in patient["components"] if c["id"] == "InstitutionPageNavigationButton"][0]
    assert nav["navigatesTo"] == "InstitutionOverviewPage"


@pytest.mark.parametrize("fixture", ["medbuddy", "medbuddy_asl"])
def test_manifest_bindings_are_what_the_planner_reads(request, fixture):
    model = request.getfixturevalue(fixture)
    manifest = json.loads(gen_dashboard_manifest(model))
    parts = {(c["id"], p["id"]): p["binding"] for page in manifest["containers"] for c in page["components"] for p in c["parts"]}
    checked = 0
    for container in model.ui_containers:
        for comp in container.components:
            source = model.data_source(comp.data_binding) if comp.data_binding else None
            for part in comp.parts if source is not None else ():
                col = column(model, source_fact(source), part.binding)
                entity = col.chain[-1][1] if col.chain else source_fact(source)
                expected = {"path": str(part.binding), "entity": entity, "attribute": col.attribute.id}
                assert parts[comp.id, part.id] == expected
                checked += 1
    assert checked > 10


def test_manifest_leaves_an_unreachable_binding_unresolved():
    # Island exists but F never references it: SEM031 refuses the part, and the manifest names no entity for it
    model, _ = parse_cnlbi(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey).
DataEntity Island is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
UIContainer Page is a Main Window
that contains
UIComponent C is a Table
  data binding to F,
  with columns Island.id, F.id.
"""
    )
    (component,) = json.loads(gen_dashboard_manifest(model))["containers"][0]["components"]
    assert [part["binding"] for part in component["parts"]] == [
        {"path": "Island.id"},
        {"path": "F.id", "entity": "F", "attribute": "id"},
    ]


def test_empty_model_manifest():
    assert json.loads(gen_dashboard_manifest(m.SpecificationModel())) == {"version": 1, "containers": []}


# ---------------------------------------------------------------------------
# Requirements document
# ---------------------------------------------------------------------------


def test_doc_contains_classification_rows(medbuddy):
    doc = gen_requirements_doc(medbuddy)
    assert "AppointmentRequest — Transaction / Fact" in doc
    assert "Patient — Master / Dimension" in doc
    assert "`COUNT(state = States.Cancelled)`" in doc


def test_doc_with_only_actors_has_only_actor_section():
    model = m.SpecificationModel(actors=(m.Actor(id="A", actor_type="User", description="does things"),))
    doc = gen_requirements_doc(model)
    assert "## Actors & Use Cases" in doc
    assert "## Data Model" not in doc
    assert "## User Interface" not in doc


def test_generators_are_deterministic(medbuddy):
    assert gen_requirements_doc(medbuddy) == gen_requirements_doc(medbuddy)
    assert gen_schema_sql(medbuddy) == gen_schema_sql(medbuddy)
    assert gen_dashboard_manifest(medbuddy) == gen_dashboard_manifest(medbuddy)
