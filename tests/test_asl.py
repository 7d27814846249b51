import pytest

from bispec import canonicalize, model as m, parse_asl
from bispec.asl import emit_asl
from bispec.cnlbi import emit_cnlbi


def errors(diags):
    return [d for d in diags if d.is_error]


def test_measure_spellings_normalize_to_expressions(medbuddy_asl):
    fact = medbuddy_asl.entity("AppointmentRequest")
    # formula details: count (id)
    assert fact.attribute("CountAppointments").measure == m.Aggregate("COUNT", m.AttributePath(("id",)))
    # expression tag overrides the formula fallback
    assert fact.attribute("CountCancelledAppointments").measure == m.Aggregate(
        "COUNT", m.Predicate(m.AttributePath(("state",)), m.EnumLiteral("States", "Cancelled"))
    )
    # formula arithmetic (...)
    rate = fact.attribute("CancellationRate").measure
    assert isinstance(rate, m.Arithmetic) and rate.op == "/"
    # tag-only measures
    assert fact.attribute("AvgWaitingTime").measure == m.Aggregate(
        "AVERAGE", m.AttributePath(("actual_response_time",))
    )
    assert fact.attribute("MinDate").measure == m.Aggregate("MIN", m.AttributePath(("scheduled_date",)))


def test_string_length_is_kept_in_the_model():
    source = """
DataAttributeType UUID
DataEntity Institution "Institution" : Master [
  attribute id : UUID [constraints (PrimaryKey)]
  attribute code "Code" : String(50) [constraints (NotNull)]
]
"""
    model, diags = parse_asl(source)
    assert not errors(diags)
    code = model.entity("Institution").attribute("code")
    assert code.attr_type.length == 50
    assert code.name == "Code"
    # CNL-BI emit drops the length with a warning
    text, warnings = emit_cnlbi(model)
    assert any("length" in w.message for w in warnings)
    assert "String(50)" not in text


def test_unregistered_term_reports_asl020():
    bare = "UseCase u : BI_Analysis [ actorInitiates a ]"
    _, diags = parse_asl(bare)
    assert "ASL020" in [d.code for d in errors(diags)]

    declared = "UseCaseType BI_Analysis\n" + bare
    model, diags = parse_asl(declared)
    assert not errors(diags)
    assert model.use_cases[0].uc_type == "BIAnalysis"


def test_unbalanced_bracket_reports_asl011():
    _, diags = parse_asl('DataEntitySubType BI_Fact\nDataEntity X "X" : Master [ attribute a : Integer ')
    assert [(d.code, d.message, d.span.line, d.span.col) for d in errors(diags)] == [
        ("ASL011", "unbalanced bracket in entity body", 2, 1)
    ]


def test_numeric_character_outside_a_word_reports_asl002():
    _, diags = parse_asl("x ²")
    assert [(d.code, d.span.line, d.span.col) for d in diags if d.code == "ASL002"] == [("ASL002", 1, 3)]


def test_malformed_tag_reports_asl021():
    source = """
UseCaseType BI_Analysis
UseCase u : BI_Analysis [
  actorInitiates a
  tag (name "BI-Action:BI_Slice" value "Dimensions:'Time'")
]
"""
    _, diags = parse_asl(source)
    assert "ASL021" in [d.code for d in diags]


def test_unparseable_expression_tag_keeps_opaque_measure():
    source = """
DataAttributeType UUID
DataEntity F "F" : Transaction [
  attribute id : UUID [constraints (PrimaryKey)]
  attribute X : Integer [tag (name "expression" value "count(((")]
]
"""
    model, diags = parse_asl(source)
    assert not errors(diags)
    assert any(d.code == "ASL022" for d in diags)
    measure = model.entity("F").attribute("X").measure
    assert isinstance(measure, m.OpaqueMeasure)
    assert measure.text == "count((("


def test_cluster_parses(medbuddy_asl):
    cluster = medbuddy_asl.cluster("Appointments")
    assert cluster.main == "AppointmentRequest"
    assert cluster.uses == ("Time", "Patient", "Institution", "City")
    assert cluster.entity_type == "Transaction"


def test_action_tags_decode_into_underspecified_operations(medbuddy_asl):
    uc = medbuddy_asl.use_case("Analysis_Appointments_National_Level")
    assert uc.action_kinds == ("Slice", "Dice", "RollUp", "DrillDown", "Pivot")
    ops = {op.id: op for op in uc.operations}
    slice_op = ops["ScheduledAppointmentsInSpecificYear"]
    assert slice_op.kind == "Slice"
    assert slice_op.touched_dimensions == ("Time",)
    assert slice_op.where_clauses == ()
    assert slice_op.is_underspecified
    dice = ops["ScheduledAppointmentsBySpecificCityAndYear"]
    assert dice.touched_dimensions == ("Time", "Institution", "City")


def test_type_triples_map_to_component_and_subtype(medbuddy_asl):
    patient_page = medbuddy_asl.container("PatientOverviewPage")
    table = patient_page.component("PatientTable")
    assert (table.component_type, table.component_subtype) == ("List", "Table")
    chart = patient_page.component("GenderChart")
    assert (chart.component_type, chart.component_subtype) == ("InteractiveChart", "InteractivePieChart")
    filter_comp = patient_page.component("TimeFilter")
    assert (filter_comp.component_type, filter_comp.component_subtype) == ("Filter", "Range")
    assert [p.part_kind for p in filter_comp.parts] == ["Option", "Option"]


def test_chart_events_become_actions(medbuddy_asl):
    page = medbuddy_asl.container("InstitutionOverviewPage")
    chart = page.component("CancellationRateChart")
    # TooltipAndHoverDetails normalizes to the singular vocabulary term
    assert chart.actions == frozenset({"DrillDown", "RealTimeDataUpdate", "TooltipAndHoverDetail"})
    # self-referential navigationFlowTo targets are not container navigation
    assert chart.navigates_to is None


def test_container_events_capture_navigation(medbuddy_asl):
    page = medbuddy_asl.container("PatientOverviewPage")
    assert [(e.id, e.navigates_to) for e in page.events] == [("InstitutionPageButton", "InstitutionOverviewPage")]
    assert page.container_type == "MainWindow"  # Window normalizes
    assert page.container_subtype == "Page"


def test_emit_institution_header(medbuddy_asl):
    text, _ = emit_asl(medbuddy_asl)
    lines = [l for l in text.splitlines() if l.startswith("DataEntity Institution")]
    assert lines == ['DataEntity Institution "Institution" : Master : BI_Dimension [']


def test_emit_writes_a_dimension_reference_foreign_key_once():
    model, diags = parse_asl(
        """
DataAttributeType UUID
DataAttributeType _Dimension
DataEntity D : Reference : Dimension [ attribute id : UUID [constraints (PrimaryKey)] ]
DataEntity F : Transaction : Fact [
  attribute id : UUID [constraints (PrimaryKey)]
  attribute d : _Dimension [constraints (NotNull ForeignKey(D) ForeignKey(D))] ]
"""
    )
    assert not errors(diags)
    text, _ = emit_asl(model)
    assert "attribute d : _Dimension [constraints (NotNull ForeignKey(D))]" in text


def test_emit_empty_model_is_empty():
    text, diags = emit_asl(m.SpecificationModel())
    assert text == ""
    assert diags == []


def test_corpus_round_trip(medbuddy_asl):
    text, _ = emit_asl(medbuddy_asl)
    reparsed, diags = parse_asl(text, "round-trip")
    assert not errors(diags)
    assert canonicalize(reparsed) == canonicalize(medbuddy_asl)


def test_cross_style_entity_enumeration_actor_subsets(medbuddy, medbuddy_asl):
    assert canonicalize(medbuddy.data_subset()) == canonicalize(medbuddy_asl.data_subset())


def test_cnlbi_to_asl_conversion_preserves_canonical_form(medbuddy):
    text, _ = emit_asl(medbuddy)
    reparsed, diags = parse_asl(text, "converted")
    assert not errors(diags)
    assert canonicalize(reparsed) == canonicalize(medbuddy)


def test_emitted_asl_declares_used_vocabulary(medbuddy):
    text, _ = emit_asl(medbuddy)
    for line in (
        "DataEntitySubType BI_Dimension",
        "DataAttributeType UUID",
        "DataAttributeType _Dimension",
        "UseCaseType BI_Analysis",
        "UIComponentSubType Table",
    ):
        assert line in text


def test_vocabulary_extensions_round_trip(medbuddy_asl):
    assert {(x.category, x.id) for x in medbuddy_asl.vocabulary_extensions} == {
        ("UIComponentType", "Card"),
        ("UIComponentSubType", "Dropdown"),
        ("UIComponentSubType", "Range"),
        ("UIComponentSubType", "Search"),
    }
    text, _ = emit_asl(medbuddy_asl)
    reparsed, _ = parse_asl(text)
    assert {(x.category, x.id) for x in reparsed.vocabulary_extensions} == {
        (x.category, x.id) for x in medbuddy_asl.vocabulary_extensions
    }


def test_structured_action_tags_round_trip_full_operations(medbuddy):
    # CNL-BI-parsed use cases carry predicates; ASL must not lose them.
    text, _ = emit_asl(medbuddy)
    reparsed, diags = parse_asl(text)
    assert not errors(diags)
    uc = reparsed.use_case("AnalysisAppointmentsInstitutionOnNationalLevel")
    dice = next(op for op in uc.operations if op.kind == "Dice")
    assert len(dice.where_clauses) == 2
    assert dice.description is not None


ENTITY_HEAD = 'DataAttributeType UUID\nDataAttributeType _Dimension\nDataEntity City "City" : Reference [\n'


@pytest.mark.parametrize(
    "code, line",
    [
        ("ASL010", "attribute id : UUID [constraints (PrimaryKey Bogus)] ]"),
        ("ASL012", "attribute home : _Dimension [constraints (NotNull)] ]"),
        ("ASL023", 'attribute id : UUID [constraints (PrimaryKey) tag (name "colour" value "red")] ]'),
    ],
)
def test_minimal_entity_body_reports_its_code_at_its_line(code, line):
    # An unknown constraint; a dimension-typed attribute with no ForeignKey; a tag with no model slot
    source = f"{ENTITY_HEAD}  {line}\n"
    _, diags = parse_asl(source, "x.asl")
    lines = source.splitlines()
    assert [(d.code, d.span.file, lines[d.span.line - 1].strip()) for d in diags] == [(code, "x.asl", line)]


def test_a_component_that_fails_its_model_check_is_reported_once_at_its_declaration():
    # Two containers reference the component; neither reference repeats its fault or calls it unknown or unreferenced.
    source = (
        "UIComponentType InteractiveChart\n"
        'component C "C" : InteractiveChart [ ]\n'
        'UIContainer P "P" : Window [ component C ]\n'
        'UIContainer Q "Q" : Window [ component C ]\n'
    )
    model, diags = parse_asl(source, "x.asl")
    assert [(d.code, d.span.line, d.message) for d in diags] == [
        ("ASL010", 2, "InteractiveChart component C requires a chart subtype")
    ]
    assert [(container.id, container.components) for container in model.ui_containers] == [("P", ()), ("Q", ())]
