"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; any failure reads as the criterion number plus the assertion that
broke.
"""

import dataclasses
import json
import math
import re
import time

import pytest

import oracle
from bispec import canonicalize, model as m, parse_asl, parse_cnlbi
from bispec.asl import emit_asl
from bispec.cnlbi import emit_cnlbi
from bispec.engine import aggregate, dice_view, pivot, run_use_case, slice_view
from bispec.generators import gen_dashboard_manifest, gen_olap_sql, gen_requirements_doc, gen_schema_sql
from bispec.plan import plan_operation
from bispec.semantics import check_model
from conftest import CORPUS_ASL, CORPUS_CNLBI, DATA_DIR, ROOT, assert_rows_match_sql, sqlite_from_cube


def ok(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_corpus_parses_clean():
    started = time.monotonic()
    cnlbi_model, cnlbi_diags = parse_cnlbi(CORPUS_CNLBI.read_text(), str(CORPUS_CNLBI))
    asl_model, asl_diags = parse_asl(CORPUS_ASL.read_text(), str(CORPUS_ASL))
    elapsed = time.monotonic() - started

    assert not [d for d in cnlbi_diags if d.is_error], [f"{d.code} {d.message}" for d in cnlbi_diags]
    assert not [d for d in asl_diags if d.is_error], [f"{d.code} {d.message}" for d in asl_diags]
    assert cnlbi_model.entities and asl_model.entities
    assert elapsed < 1.0, f"corpus parse took {elapsed:.3f}s"

    patches = (ROOT / "corpus" / "PATCHES.md").read_text()
    fixes = re.findall(r"^- \*\*T\d+", patches, flags=re.MULTILINE)
    assert len(fixes) >= 6, f"only {len(fixes)} documented typo fixes"
    ok(1, "corpus parse")


def test_criterion_2_cross_style_round_trips(medbuddy, medbuddy_asl):
    # Shared subsets (entities, enumerations, actors) are byte-equal.
    assert canonicalize(medbuddy.data_subset()) == canonicalize(medbuddy_asl.data_subset())

    # parse -> emit -> parse is canonically idempotent in each syntax.
    cnlbi_text, _ = emit_cnlbi(medbuddy)
    reparsed_cnlbi, diags = parse_cnlbi(cnlbi_text, "emitted.cnlbi")
    assert not [d for d in diags if d.is_error]
    assert canonicalize(reparsed_cnlbi) == canonicalize(medbuddy)

    asl_text, _ = emit_asl(medbuddy_asl)
    reparsed_asl, diags = parse_asl(asl_text, "emitted.asl")
    assert not [d for d in diags if d.is_error]
    assert canonicalize(reparsed_asl) == canonicalize(medbuddy_asl)

    # cross-style: CNL-BI corpus emitted as ASL and reparsed keeps its form.
    converted, _ = emit_asl(medbuddy)
    reconverted, diags = parse_asl(converted, "converted.asl")
    assert not [d for d in diags if d.is_error]
    assert canonicalize(reconverted) == canonicalize(medbuddy)

    # constructs absent from the corpus round-trip too: stakeholders, actor
    # inheritance, pivots, defaults, supporting actors, modal windows.
    extra = """
Actor Chief "Chief Analyst" is a User, with stakeholder Ministry described as oversees analysts.
Actor Junior is a User, extends Chief.
DataEntity D ("Days") is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  label is a String (Unique, default "none"),
  year is an Integer (NotNull).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  e refers to Dimension E (NotNull),
  Count is an Integer (operation COUNT(id)),
  Twice is an Integer (operation (Count * 2)).
DataEntity E is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull).
UseCase U ("All angles") is a BIAnalysis
  with stakeholder Ministry,
  actor Chief,
  support actor Junior,
  data source F,
  described as turns the data around,
  performs
    OLAP Operation P is a Pivot
      swap D with E
      described as swaps the axes.
UIContainer Popup is a Modal Window
that contains
UIComponent QuickChart is an InteractiveBarChart
  data binding to F,
  with x-axis D.year,
  y-axis F.Count.
"""
    model, diags = parse_cnlbi(extra, "extra.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    for emit, parse in ((emit_cnlbi, parse_cnlbi), (emit_asl, parse_asl)):
        text, _ = emit(model)
        reparsed, rediags = parse(text, "extra-rt")
        assert not [d for d in rediags if d.is_error], [f"{d.code} {d.message}" for d in rediags]
        assert canonicalize(reparsed) == canonicalize(model), emit.__name__
    ok(2, "cross-style round-trip")


def test_criterion_3_structural_counts(medbuddy):
    assert len(medbuddy.enumerations) == 3
    assert len(medbuddy.dimensions) == 5
    facts = medbuddy.facts
    assert len(facts) == 1
    fact = facts[0]
    assert len(fact.dimension_refs) == 5
    assert len(fact.measures) == 6
    assert len(medbuddy.actors) == 2
    assert len(medbuddy.ui_containers) == 2

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

    patient = pages["PatientOverviewPage"]
    by_id = {c["id"]: c for c in patient["components"]}
    assert by_id["PatientTable"]["subtype"] == "Table"
    assert by_id["PatientAppointmentScatter"]["subtype"] == "InteractiveScatterPlot"
    assert by_id["GenderChart"]["subtype"] == "InteractivePieChart"
    assert by_id["AgeBarChart"]["subtype"] == "InteractiveBarChart"
    assert by_id["TimeRangeFilter"]["type"] == "Form"
    assert by_id["InstitutionPageNavigationButton"]["navigatesTo"] == "InstitutionOverviewPage"
    ok(3, "structural counts")


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, abs_tol=1e-9)
    return a == b


def test_criterion_4_olap_oracle_equivalence(medbuddy, cube):
    started = time.monotonic()
    tables = oracle.load_tables(medbuddy, DATA_DIR)
    fact_rows = tables["AppointmentRequest"]

    # fixture shape guarantees
    assert 6 <= len(fact_rows) <= 1000
    assert sum(1 for r in fact_rows if r["closed_date"] is None) >= 1
    cancelled = oracle.filter_rows(
        medbuddy, tables, "AppointmentRequest",
        [m.Predicate(m.AttributePath(("state",)), m.EnumLiteral("States", "Cancelled"))],
    )
    assert len(cancelled) >= 2

    year_pred = m.Predicate(
        m.AttributePath(("AppointmentRequest", "scheduled_date", "year")), m.AttributePath(("Time", "year"))
    )
    city_pred = m.Predicate(m.AttributePath(("Institution", "city")), m.AttributePath(("City", "id")))

    # slices and dices equal the oracle row-for-row
    for bindings in ({"year": 2022}, {"year": 2023}, {"year": 1999}):
        engine_rows = slice_view(cube.view("AppointmentRequest"), year_pred, bindings).rows()
        oracle_rows = oracle.filter_rows(medbuddy, tables, "AppointmentRequest", [year_pred], bindings)
        assert [r["id"] for r in engine_rows] == [r["id"] for r in oracle_rows]

    bindings = {"id": "c2", "year": 2023}
    diced = dice_view(cube.view("AppointmentRequest"), [city_pred, year_pred], bindings)
    assert [r["id"] for r in diced.rows()] == [
        r["id"] for r in oracle.filter_rows(medbuddy, tables, "AppointmentRequest", [city_pred, year_pred], bindings)
    ]
    # dice equals composed slices
    composed = slice_view(slice_view(cube.view("AppointmentRequest"), city_pred, bindings), year_pred, bindings)
    assert [r["id"] for r in diced.rows()] == [r["id"] for r in composed.rows()]

    groupings = [
        [],
        ["institution"],
        ["Institution.city"],
        ["Institution.name"],
        ["Patient.gender"],
        ["Patient.age"],
        ["Patient.residence"],
        ["AppointmentRequest.scheduled_date.year"],
        ["AppointmentRequest.closed_date.year"],
        ["Institution.city", "AppointmentRequest.scheduled_date.year"],
        ["Patient.gender", "Institution.city"],
    ]
    total = len(cube.table("AppointmentRequest").rows)
    for keys in groupings:
        paths = [m.AttributePath.parse(k) for k in keys]
        result = aggregate(cube.view("AppointmentRequest"), paths)
        expected = oracle.aggregate(medbuddy, tables, "AppointmentRequest", fact_rows, paths)
        engine_by_key = {row[: len(keys)]: row[len(keys):] for row in result.rows}
        assert set(engine_by_key) == set(expected), keys
        for key, measures in expected.items():
            for name, value in zip(result.measure_names, engine_by_key[key]):
                assert _close(value, measures[name]), (keys, key, name)
        # grand-total COUNT conservation under every grouping
        count_col = result.columns.index("CountAppointments") - len(keys)
        assert sum(row[len(keys) + count_col] for row in result.rows) == total, keys

    # pivot involution on every 2-key grouping
    for keys in (g for g in groupings if len(g) == 2):
        result = aggregate(cube.view("AppointmentRequest"), [m.AttributePath.parse(k) for k in keys])
        swapped = pivot(result)
        assert pivot(swapped) == result
        assert {(r[1], r[0]) + r[2:] for r in swapped.rows} == set(result.rows)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.3f}s"
    ok(4, "OLAP oracle equivalence")


# The corpus declares no Pivot, and no Dice whose parameters share a last
# segment (``City.id`` and ``RequestState.id`` both end in ``id``).
CROSS_CHECK_OPS = """
UseCase CrossChecks is a BIAnalysis
  actor NationalLevelDataAnalyst,
  data source AppointmentRequest,
  performs
    OLAP Operation StatesByInstitution is a Pivot
      swap Institution with RequestState
      described as pivots appointments per institution and request state,
    OLAP Operation CityAndState is a Dice
      where Institution.city = City.id and state = RequestState.id
      described as keeps one city and one request state,

  described as it cross-checks the engine against the generated SQL.
"""


def test_criterion_5_sql_cross_validation(medbuddy, cube):
    extra, diags = parse_cnlbi(CROSS_CHECK_OPS, "cross-checks.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    model = m.merge_models([medbuddy, extra])
    assert not [d for d in check_model(model).diagnostics if d.is_error]
    merged_cube = dataclasses.replace(cube, model=model)
    conn = sqlite_from_cube(medbuddy, cube)  # generated DDL loads

    grouped_ops = [
        (uc.id, op.id, op.kind)
        for uc in model.use_cases
        for op in uc.operations
        if op.kind in ("RollUp", "DrillDown", "Pivot")
    ]
    assert {kind for _, _, kind in grouped_ops} == {"RollUp", "DrillDown", "Pivot"}
    for uc_id, op_id, _ in grouped_ops:
        db_rows = conn.execute(gen_olap_sql(model, uc_id, op_id)).fetchall()
        assert_rows_match_sql(run_use_case(merged_cube, uc_id, op_id), db_rows, (uc_id, op_id))

    # the engine takes the same bind names as the SQL's placeholders
    sql = gen_olap_sql(model, "CrossChecks", "CityAndState")
    plan = plan_operation(model, "CrossChecks", "CityAndState")
    assert {f.value.name for f in plan.filters} == set(re.findall(r"= :(\w+)", sql)) == {"id", "RequestState_id"}
    bindings = {"id": "c2", "RequestState_id": "s3"}
    summary = run_use_case(merged_cube, "CrossChecks", "CityAndState", bindings)
    assert summary.rows[0][0] == len(conn.execute(sql, bindings).fetchall()) == 2
    conn.close()
    ok(5, "SQL cross-validation")


MUTATIONS = [
    # (description, original snippet, replacement, expected code, text the span must cover)
    (
        "remove a PrimaryKey",
        "DataEntity City (\"City\") is a Reference Dimension with attributes\n  id is a UUID (PrimaryKey),",
        "DataEntity City (\"City\") is a Reference Dimension with attributes\n  id is a UUID (NotNull),",
        "SEM003",
        "DataEntity",
    ),
    (
        "point a dimension reference at a Fact",
        "residence refers to Dimension City (NotNull)",
        "residence refers to Dimension AppointmentRequest (NotNull)",
        "SEM001",
        "residence",
    ),
    (
        "give a Slice two predicates",
        "    OLAP Operation ScheduledAppointmentsInSpecificYear is a Slice\n"
        "      where AppointmentRequest.scheduled_date.year = Time.year\n"
        "      described as slice the data",
        "    OLAP Operation ScheduledAppointmentsInSpecificYear is a Slice\n"
        "      where AppointmentRequest.scheduled_date.year = Time.year and AppointmentRequest.closed = True\n"
        "      described as slice the data",
        "SEM023",
        "OLAP",
    ),
    (
        "bind a pie chart without a Value part",
        "with segments defined by Patient.gender,\nand values AppointmentRequest.CountAppointments,",
        "with segments defined by Patient.gender,",
        "SEM032",
        "UIComponent",
    ),
    (
        "reference an unknown attribute",
        "group by Institution.city",
        "group by Institution.bogus",
        "SEM022",
        "bogus",
    ),
]


def test_criterion_6_diagnostics_precision(cnlbi_source):
    baseline_model, baseline_parse = parse_cnlbi(cnlbi_source, "base")
    baseline_all = list(baseline_parse) + list(check_model(baseline_model).diagnostics)
    assert not [d for d in baseline_all if d.is_error]  # clean starting point
    baseline_codes = {(d.code, d.span.line if d.span else 0) for d in baseline_all}

    for description, original, replacement, expected_code, span_text in MUTATIONS:
        assert original in cnlbi_source, description
        mutated = cnlbi_source.replace(original, replacement, 1)
        model, parse_diags = parse_cnlbi(mutated, "mutated")
        report = check_model(model)
        all_diags = list(parse_diags) + list(report.diagnostics)

        new_errors = [
            d for d in all_diags
            if d.is_error and (d.code, d.span.line if d.span else 0) not in baseline_codes
        ]
        assert new_errors, f"{description}: no new errors"
        codes = {d.code for d in new_errors}
        assert codes == {expected_code}, f"{description}: got {codes}"
        spans = [d.span for d in new_errors if d.span is not None]
        assert spans, f"{description}: error carries no span"
        assert any(span_text in span.slice(mutated) or span_text in mutated.splitlines()[span.line - 1] for span in spans), (
            f"{description}: span does not cover the mutation"
        )
    ok(6, "diagnostics precision")


def _reordered(model: m.SpecificationModel) -> m.SpecificationModel:
    return dataclasses.replace(
        model,
        enumerations=tuple(reversed(model.enumerations)),
        entities=tuple(reversed(model.entities)),
        clusters=tuple(reversed(model.clusters)),
        actors=tuple(reversed(model.actors)),
        use_cases=tuple(reversed(model.use_cases)),
        ui_containers=tuple(reversed(model.ui_containers)),
        vocabulary_extensions=tuple(reversed(model.vocabulary_extensions)),
    )


def test_criterion_7_determinism(medbuddy, medbuddy_asl):
    emitters = [
        canonicalize,
        lambda model: emit_cnlbi(model)[0],
        lambda model: emit_asl(model)[0],
        gen_schema_sql,
        gen_dashboard_manifest,
        gen_requirements_doc,
    ]
    for source_model in (medbuddy, medbuddy_asl):
        reordered = _reordered(source_model)
        for emitter in emitters:
            assert emitter(source_model) == emitter(source_model)  # across runs
            assert emitter(reordered) == emitter(source_model)  # across reorderings

    # per-operation SQL is a pure function too
    sql_once = gen_olap_sql(medbuddy, "AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitutionCity")
    sql_again = gen_olap_sql(
        _reordered(medbuddy), "AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitutionCity"
    )
    assert sql_once == sql_again

    # textual reordering of the input document
    doc = """
Actor B is a User.
Actor A is a User.
Data enumeration G with values X and Y.
"""
    flipped = """
Data enumeration G with values X and Y.
Actor A is a User.
Actor B is a User.
"""
    first, _ = parse_cnlbi(doc)
    second, _ = parse_cnlbi(flipped)
    assert emit_cnlbi(first)[0] == emit_cnlbi(second)[0]
    assert canonicalize(first) == canonicalize(second)
    ok(7, "determinism")
