from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from bispec import merge_models, model as m, parse_asl, parse_cnlbi
from bispec.engine import load_cube, run_use_case
from bispec.generators import GeneratorError, gen_olap_sql
from bispec.plan import EngineError, executable_measures, measure_program, plan_operation
from bispec.semantics import (
    check_dimensional,
    check_measures,
    check_model,
    check_ui,
    check_use_cases,
    schema_shape,
)


def codes(diags, severity=None):
    return [d.code for d in diags if severity is None or d.severity.value == severity]


def errors_at(model, source):
    """Each error of ``check_model`` as (code, the source line its span points at)."""
    lines = source.splitlines()
    return [(d.code, lines[d.span.line - 1].strip()) for d in check_model(model).diagnostics if d.is_error]


def parse_ok(source):
    model, diags = parse_cnlbi(source)
    assert not any(d.is_error for d in diags), [f"{d.code}: {d.message}" for d in diags]
    return model


def test_medbuddy_is_clean_and_snowflake(medbuddy):
    report = check_model(medbuddy)
    assert not any(d.is_error for d in report.diagnostics)
    assert report.schema_shape == "snowflake"
    assert report.resolved_model is medbuddy


def test_star_shape_without_dimension_chains():
    model = parse_ok(
        """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull).
"""
    )
    assert schema_shape(model) == "star"


def test_dimension_ref_to_fact_is_sem001():
    model = parse_ok(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  other refers to Dimension F2 (NotNull).
DataEntity F2 is a Transaction Fact with attributes
  id is a UUID (PrimaryKey).
"""
    )
    assert "SEM001" in codes(check_dimensional(model))


def test_two_primary_keys_is_sem003():
    model = parse_ok(
        """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  id2 is a UUID (PrimaryKey).
"""
    )
    assert "SEM003" in codes(check_dimensional(model))


def test_fact_without_dimensions_warns_sem002():
    model = parse_ok(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey).
"""
    )
    diags = check_dimensional(model)
    assert "SEM002" in codes(diags, "warning")
    assert not any(d.is_error for d in diags)


def test_cluster_member_checks():
    model = parse_ok(
        """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull).
"""
    )
    bad_main = m.DataEntityCluster(id="C", entity_type="Transaction", main="D", uses=("D",))
    bad_uses = m.DataEntityCluster(id="C2", entity_type="Transaction", main="F", uses=("F",))
    import dataclasses

    extended = dataclasses.replace(model, clusters=(bad_main, bad_uses))
    found = codes(check_dimensional(extended))
    assert "SEM004" in found and "SEM005" in found


def test_measure_types_infer_cleanly(medbuddy):
    assert check_measures(medbuddy) == []


def test_measure_cycle_is_sem010():
    model = parse_ok(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  A is a Integer (operation (B + 1)),
  B is a Integer (operation (A + 1)).
"""
    )
    assert "SEM010" in codes(check_measures(model))


def test_declared_type_mismatch_is_sem011():
    model = parse_ok(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  Count is a Date (operation COUNT(id)).
"""
    )
    assert "SEM011" in codes(check_measures(model))


def test_count_widens_into_decimal_without_error():
    model = parse_ok(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  Count is a Decimal (operation COUNT(id)).
"""
    )
    assert check_measures(model) == []


def test_min_over_dimension_ref_resolves_date_role(medbuddy):
    # MinDate = MIN(scheduled_date) lands on Time.date and stays a Date
    assert check_measures(medbuddy) == []


def test_ambiguous_dimension_aggregation_is_sem012():
    model = parse_ok(
        """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  opened is a Date (NotNull),
  closed is a Date (NotNull).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  First is a Date (operation MIN(d)).
"""
    )
    assert "SEM012" in codes(check_measures(model))


def test_measure_over_unreachable_entity_is_sem022():
    # E is an entity, but F never references it, so MAX(E.year) has no rows to read
    source = """
DataEntity E is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  year is an Integer (NotNull).
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  Latest is an Integer (operation MAX(E.year)).
"""
    model = parse_ok(source)
    assert errors_at(model, source) == [("SEM022", "Latest is an Integer (operation MAX(E.year)).")]
    assert "in measure F.Latest" in check_measures(model)[0].message


@pytest.mark.parametrize(
    "old, new, first, second",
    [
        ("(CountCancelledAppointments / CountAppointments)", "(COUNT(bogus) / COUNT(nope))", "bogus", "nope"),
        ("where AppointmentRequest.scheduled_date.year = Time.year", "where Patient.bogus = Time.nope", "bogus", "nope"),
    ],
    ids=["measure", "predicate"],
)
def test_only_the_first_failure_of_a_measure_or_predicate_is_reported(cnlbi_source, old, new, first, second):
    # The planner stops at the first part it cannot read, so the second bad path is not reported
    source = cnlbi_source.replace(old, new, 1)
    diags = [d for d in check_model(parse_ok(source)).diagnostics if d.is_error]
    assert [d.code for d in diags] == ["SEM022"]
    assert first in diags[0].message and second not in diags[0].message


FACT = "AppointmentRequest"
ROLL_UP = ("AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitutionCity")


def with_measures(model, measures):
    """``model`` with the corpus fact's measures replaced by ``measures``."""
    fact = model.entity(FACT)
    attributes = tuple(a for a in fact.attributes if a.measure is None) + tuple(measures)
    return replace(model, entities=tuple(replace(e, attributes=attributes) if e is fact else e for e in model.entities))


def test_measure_cycle_is_reported_at_each_member(medbuddy_measure_cycle):
    # CountAppointments reads (CancellationRate + 1), which reads CountAppointments: a measure that cannot
    # lower has no type, so the cycle is all there is to report; CountCancelledAppointments, which only
    # CancellationRate reads, is clean
    found = [(d.code, d.message) for d in check_measures(medbuddy_measure_cycle)]
    assert found == [
        ("SEM010", "in measure AppointmentRequest.CountAppointments: measure reference cycle at CancellationRate"),
        ("SEM010", "in measure AppointmentRequest.CancellationRate: measure reference cycle at CountAppointments"),
    ]


def test_unknown_and_opaque_measure_references_are_sem010(medbuddy):
    # Only the model API builds these: both parsers keep an unknown name out of a measure
    fact = medbuddy.entity(FACT)
    referencing = {
        "MinDate": m.MeasureRef("Ghost"),
        "MaxDate": m.Arithmetic("+", m.MeasureRef("AvgWaitingTime"), m.Literal(0)),
        "AvgWaitingTime": m.OpaqueMeasure("average((("),
    }
    model = with_measures(medbuddy, [
        replace(a, measure=referencing.get(a.id, a.measure), attr_type=replace(a.attr_type, name="Decimal"))
        for a in fact.measures
    ])
    assert [(d.code, d.message) for d in check_measures(model)] == [
        ("SEM010", "in measure AppointmentRequest.MinDate: unknown measure 'Ghost'"),
        ("SEM010", "in measure AppointmentRequest.MaxDate: opaque measure 'average(((' cannot be evaluated"),
    ]


_MEASURE_LEAVES = st.one_of(
    st.builds(m.Literal, st.integers(0, 9)),
    st.just(m.Aggregate("COUNT", m.AttributePath(("id",)))),
    st.just(m.Aggregate("AVERAGE", m.AttributePath(("actual_response_time",)))),
)


@st.composite
def measure_sets(draw):
    """Up to 5 measures M0.. over literals, two aggregates, each other (cycles too) and opaque text."""
    count = draw(st.integers(1, 5))
    leaves = st.one_of(_MEASURE_LEAVES, st.builds(m.MeasureRef, st.sampled_from([f"M{i}" for i in range(count)])))
    expressions = st.recursive(
        leaves, lambda inner: st.builds(m.Arithmetic, st.sampled_from("+-*/"), inner, inner), max_leaves=4
    )
    return [
        m.DataAttribute(
            f"M{i}",
            m.AttributeType("primitive", draw(st.sampled_from(["Integer", "Decimal"]))),
            measure=draw(st.one_of(expressions, st.just(m.OpaqueMeasure("opaque")))),
        )
        for i in range(count)
    ]


@given(measure_sets())
def test_measures_that_check_clean_lower_and_roll_up(medbuddy, cube, measures):
    """A clean check lowers every executable measure and a roll-up runs; a lowering failure comes with a check error."""
    model = with_measures(medbuddy, measures)
    errors = [d for d in check_measures(model) if d.is_error]
    executable = executable_measures(model.entity(FACT))
    try:
        measure_program(model, FACT, [a.measure for a in executable])
    except EngineError as exc:
        assert errors, exc
        return
    if not errors:
        result = run_use_case(replace(cube, model=model), *ROLL_UP)
        assert result.measure_names == tuple(a.id for a in executable)


@pytest.mark.parametrize(
    "predicate, code",
    [("Patient.gender = States.Booked", "SEM011"), ("Patient.gender = 5", "SEM011"), ("Patient.gender = Gender.Other", "SEM013")],
)
def test_slice_comparing_a_column_with_a_foreign_value_is_reported_at_the_predicate(cnlbi_source, predicate, code):
    # The engine compares a Gender column with a States value or a number and keeps no row
    source = cnlbi_source.replace("where AppointmentRequest.scheduled_date.year = Time.year", f"where {predicate}", 1)
    assert errors_at(parse_ok(source), source) == [(code, f"where {predicate}")]


def asl_errors_at(source):
    """Each error of ``check_model`` on an ASL source as (code, file, the source line its span points at)."""
    model, diags = parse_asl(source, "x.asl")
    assert not any(d.is_error for d in diags), [f"{d.code}: {d.message}" for d in diags]
    lines = source.splitlines()
    return [(d.code, d.span.file, lines[d.span.line - 1].strip()) for d in check_model(model).diagnostics if d.is_error]


def test_path_in_an_expression_tag_is_reported_at_the_tag(asl_source):
    source = asl_source.replace('"count(state = States.Cancelled)"', '"count(bogus_attr = States.Cancelled)"')
    line = next(line.strip() for line in source.splitlines() if "bogus_attr" in line)
    assert [e for e in asl_errors_at(source) if e[0] == "SEM022"] == [("SEM022", "x.asl", line)]


def test_path_in_an_action_tag_where_clause_is_reported_at_the_tag(asl_source):
    tag = """tag (name "BI-Action:BI_Slice:BogusSlice" value "where bogus_attr = 1")"""
    first = """  tag (name "BI-Action:BI_Slice:ScheduledAppointmentsInSpecificYear" value "Dimensions:'Time'")"""
    source = asl_source.replace(first, f"{first}\n  {tag}", 1)
    assert asl_errors_at(source) == [("SEM022", "x.asl", tag)]


def use_case_model(extra_ops="", description="analyses everything"):
    return parse_ok(
        f"""
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  year is an Integer (NotNull).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  Count is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    OLAP Operation Op is a Slice
      where F.d.year = D.year{extra_ops},
  described as {description}.
"""
    )


def test_clean_use_case_passes():
    assert not any(d.is_error for d in check_use_cases(use_case_model()))


def test_unknown_actor_is_sem020():
    model = use_case_model()
    import dataclasses

    broken = dataclasses.replace(
        model, use_cases=tuple(dataclasses.replace(u, primary_actor="Ghost") for u in model.use_cases)
    )
    assert "SEM020" in codes(check_use_cases(broken))


def test_non_fact_data_source_is_sem021():
    model = parse_ok(
        """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source D,
  performs
    OLAP Operation Op is a Slice
      where D.id = 1.
"""
    )
    assert "SEM021" in codes(check_use_cases(model))


def test_unknown_path_is_sem022():
    model = use_case_model(extra_ops=",\n    OLAP Operation Bad is a Roll-up\n      group by D.bogus")
    assert "SEM022" in codes(check_use_cases(model))


def test_path_through_unreachable_entity_is_sem022():
    # D is reachable from F, but the path starts at E, which F never references
    model = parse_ok(
        """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  year is an Integer (NotNull).
DataEntity E is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  Count is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    OLAP Operation Op is a Roll-up
      group by E.d.year.
"""
    )
    assert "SEM022" in codes(check_use_cases(model))


def test_enum_literal_without_role_attribute_is_sem022():
    # D has no States-typed attribute, so F.d = States.Cancelled has nothing to compare
    source = """
Data enumeration States with values Open and Cancelled.
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  year is an Integer (NotNull).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  Count is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    OLAP Operation Op is a Slice
      where F.d = States.Cancelled.
"""
    assert errors_at(parse_ok(source), source) == [("SEM022", "where F.d = States.Cancelled.")]


CLUSTER_SOURCE = """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity X is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  Count is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source C,
  performs
    OLAP Operation Op is a Roll-up
      group by {group_by}.
UIContainer Page is a Main Window
that contains
UIComponent T is a Table
  data binding to C,
  with columns {column}.
"""


def cluster_model(group_by="F.id", column="F.id"):
    """CLUSTER_SOURCE plus cluster C, whose main F never references its member X."""
    source = CLUSTER_SOURCE.format(group_by=group_by, column=column)
    cluster, diags = parse_asl("DataEntityCluster C : Transaction [ main F uses D, X ]")
    assert not diags
    return merge_models([parse_ok(source), cluster]), source


def test_cluster_uses_member_the_fact_does_not_reach_is_sem022():
    model, source = cluster_model(group_by="X.name")
    assert errors_at(model, source) == [("SEM022", "group by X.name.")]


def test_cluster_whose_main_is_another_cluster_is_reported_not_raised():
    # Paths start at the main entity; "Inner" names none, so the operation has no
    # fact to read (SEM021, the planner's data-source rule) and the UI part's path is an error
    model, _ = cluster_model()
    inner = m.DataEntityCluster(id="Inner", entity_type="Transaction", main="F")
    outer = m.DataEntityCluster(id="C", entity_type="Transaction", main="Inner")
    import dataclasses

    broken = dataclasses.replace(model, clusters=(outer, inner))
    assert sorted(codes(check_model(broken).diagnostics, "error")) == ["SEM004", "SEM021", "SEM031"]


def test_bi_analysis_without_operations_warns_sem025():
    source = """
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F.
"""
    lines = source.splitlines()
    found = [(d.code, d.severity.value, lines[d.span.line - 1]) for d in check_model(parse_ok(source)).diagnostics]
    assert found == [("SEM025", "warning", "UseCase U is a BIAnalysis")]


def errors(diags):
    return [(d.code, d.message) for d in diags if d.is_error]


def test_slice_with_two_predicates_is_sem023():
    # arity is one rule of the planner, checked before the bad second predicate is planned
    model = use_case_model(extra_ops=" and F.bogus = 1")
    assert errors(check_use_cases(model)) == [("SEM023", "in operation Op: a Slice takes exactly 1 predicate, got 2")]


def test_dice_with_one_predicate_is_sem023():
    model = parse_ok(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  Count is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    OLAP Operation Op is a Dice
      where F.id = 1.
"""
    )
    assert errors(check_use_cases(model)) == [("SEM023", "in operation Op: a Dice takes at least 2 predicates, got 1")]


def test_dice_with_two_bad_predicates_reports_the_first():
    # the planner stops at the first predicate it cannot read, as it does in a measure
    source = """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  Count is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    OLAP Operation Op is a Dice
      where F.bogus = 1 and F.nope = 2.
"""
    model = parse_ok(source)
    assert errors(check_model(model).diagnostics) == [
        ("SEM022", "in operation Op: cannot resolve F.bogus from F: F has no attribute 'bogus'")
    ]
    assert errors_at(model, source) == [("SEM022", "where F.bogus = 1 and F.nope = 2.")]


def test_unchecked_operation_with_the_wrong_predicate_count_is_refused(tmp_path):
    model = use_case_model(extra_ops=" and F.id = 1")
    with pytest.raises(EngineError) as planned:
        plan_operation(model, "U", "Op")
    assert (planned.value.code, planned.value.rule) == ("ENG030", "arity")
    (tmp_path / "D.csv").write_text("id,year\n")
    (tmp_path / "F.csv").write_text("id,d\n")
    (tmp_path / "manifest.toml").write_text('D = "D.csv"\nF = "F.csv"\n')
    cube, diags = load_cube(model, tmp_path)
    assert diags == []
    with pytest.raises(EngineError) as ran:
        run_use_case(cube, "U", "Op", {"year": "2023"})
    assert (ran.value.code, str(ran.value)) == ("ENG030", "a Slice takes exactly 1 predicate, got 2")
    with pytest.raises(GeneratorError) as generated:
        gen_olap_sql(model, "U", "Op")
    assert (generated.value.code, str(generated.value)) == ("GEN010", "a Slice takes exactly 1 predicate, got 2")


def test_pivot_swap_must_name_reachable_dimensions():
    # Away is unreachable, then reachable only through D: a pivot axis is a
    # dimension the fact references itself
    for d_refs in ("", ",\n  away refers to Dimension Away (NotNull)"):
        model = parse_ok(
            f"""
DataEntity Away is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey){d_refs}.
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D (NotNull),
  Count is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    OLAP Operation P is a Pivot
      swap D with Away.
"""
        )
        assert errors(check_use_cases(model)) == [
            ("SEM024", "in operation P: cannot swap Away: F has no dimension reference to it")
        ], d_refs


def test_pivot_swap_of_an_unknown_entity_is_sem024():
    model = use_case_model()
    uc = replace(model.use_cases[0], operations=(m.OlapOperation(id="P", kind="Pivot", swap=("D", "Nope")),))
    assert errors(check_use_cases(replace(model, use_cases=(uc,)))) == [
        ("SEM024", "in operation P: cannot swap 'Nope': it is not a dimension")
    ]


def test_restriction_note_sem040(medbuddy):
    diags = check_use_cases(medbuddy)
    noted = [d for d in diags if d.code == "SEM040"]
    assert {d.span.line for d in noted if d.span}  # informational, with spans
    assert all(d.severity.value == "warning" for d in noted)


def test_underspecified_operations_warn_sem041(medbuddy_asl):
    diags = check_use_cases(medbuddy_asl)
    assert "SEM041" in codes(diags, "warning")
    assert not any(d.is_error for d in diags)


def ui_model(component_body):
    return parse_ok(
        f"""
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  value is an Integer (NotNull).
UIContainer Page is a Main Window
that contains
{component_body}
"""
    )


def test_clean_ui_passes(medbuddy):
    assert not any(d.is_error for d in check_ui(medbuddy))


def test_unknown_binding_is_sem030():
    model = ui_model("UIComponent C is a Table\n  data binding to Ghost,\n  with columns F.id.")
    assert "SEM030" in codes(check_ui(model))


def test_unreachable_part_binding_is_sem031():
    model = parse_ok(
        """
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey).
DataEntity Island is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
UIContainer Page is a Main Window
that contains
UIComponent C is a Table
  data binding to F,
  with columns Island.id.
"""
    )
    assert "SEM031" in codes(check_ui(model))


def test_part_bound_through_cluster_member_the_fact_does_not_reach_is_sem031():
    model, source = cluster_model(column="X.name")
    assert errors_at(model, source) == [("SEM031", "with columns X.name.")]
    assert codes(check_ui(cluster_model()[0])) == []


def test_pie_chart_missing_value_part_is_sem032():
    model = ui_model(
        "UIComponent C is an InteractivePieChart\n  data binding to F,\n  with label F.id."
    )
    assert "SEM032" in codes(check_ui(model))


def test_unknown_action_is_sem033():
    model = ui_model(
        "UIComponent C is an InteractiveBarChart\n  data binding to F,\n"
        "  with x-axis F.id,\n  y-axis F.value,\n  actions Explode."
    )
    assert "SEM033" in codes(check_ui(model))


def test_registered_action_extension_passes_sem033():
    import dataclasses

    model = ui_model(
        "UIComponent C is an InteractiveBarChart\n  data binding to F,\n"
        "  with x-axis F.id,\n  y-axis F.value,\n  actions Explode."
    )
    extended = dataclasses.replace(
        model, vocabulary_extensions=(m.VocabularyExtension("ActionType", "Explode"),)
    )
    assert "SEM033" not in codes(check_ui(extended))


def test_unknown_navigation_target_is_sem034():
    model = ui_model("UIComponent C is a Detail\n  that navigates to Nowhere.")
    assert "SEM034" in codes(check_ui(model))


def test_duplicate_entities_are_sem050():
    source = """
DataEntity X is a Master Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity X is a Master Dimension with attributes
  id is a UUID (PrimaryKey).
"""
    model, _ = parse_cnlbi(source)
    report = check_model(model)
    assert "SEM050" in codes(list(report.diagnostics))
    assert report.resolved_model is None


def test_diagnostics_are_stably_ordered(medbuddy_asl):
    first = check_model(medbuddy_asl).diagnostics
    second = check_model(medbuddy_asl).diagnostics
    assert first == second
    positions = [(d.span.file, d.span.line, d.span.col, d.code) for d in first if d.span]
    assert positions == sorted(positions)
