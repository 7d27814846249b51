import random
import sys

import pytest
from hypothesis import given, strategies as st

import test_parse_golden as parse_golden
from bispec import canonicalize, merge_models, model as m, parse_asl, parse_cnlbi
from bispec.cnlbi import _OP_DESCRIPTION_STOPS, TOP_LEVEL_WORDS, _join_prose, _reads_back, emit_cnlbi
from bispec.lexer import TokenKind, tokenize
from conftest import CORPUS_ASL, CORPUS_CNLBI, ROOT
from test_totality import _mutate

sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402


def errors(diags):
    return [d for d in diags if d.is_error]


def test_spec_style_institution_entity():
    source = """
DataEntity Institution is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  code is a String (NotNull),
  name is a String (NotNull),
  latitude is an Integer (NotNull),
  longitude is an Integer (NotNull),
  location is a String (NotNull),
  type is a String (NotNull)
described as this dimension represents the details of an institution.
"""
    model, diags = parse_cnlbi(source)
    assert not errors(diags)
    entity = model.entity("Institution")
    assert entity.entity_type == "Master"
    assert entity.sub_type == "Dimension"
    assert len(entity.attributes) == 7
    assert entity.description == "this dimension represents the details of an institution"
    assert entity.primary_key.id == "id"


def test_fact_entity_shape(medbuddy):
    fact = medbuddy.entity("AppointmentRequest")
    assert fact.entity_type == "Transaction"  # "Transactional" normalizes
    assert fact.is_fact
    assert [a.id for a in fact.dimension_refs] == [
        "institution", "patient", "state", "scheduled_date", "closed_date",
    ]
    assert len(fact.measures) == 6
    plain = [a for a in fact.attributes if not a.is_measure and a.attr_type.kind != "dimension" and not a.is_primary_key]
    assert [a.id for a in plain] == ["maximum_response_time", "actual_response_time", "closed"]

    rate = fact.attribute("CancellationRate").measure
    assert isinstance(rate, m.Arithmetic) and rate.op == "/"
    assert rate.left == m.MeasureRef("CountCancelledAppointments")
    assert rate.right == m.MeasureRef("CountAppointments")

    cancelled = fact.attribute("CountCancelledAppointments").measure
    assert cancelled == m.Aggregate(
        "COUNT", m.Predicate(m.AttributePath(("state",)), m.EnumLiteral("States", "Cancelled"))
    )


def test_national_level_use_case(medbuddy):
    uc = medbuddy.use_case("AnalysisAppointmentsInstitutionOnNationalLevel")
    assert uc.uc_type == "BIAnalysis"
    assert uc.primary_actor == "NationalLevelDataAnalyst"
    assert uc.data_source == "AppointmentRequest"
    kinds = [op.kind for op in uc.operations]
    assert kinds == ["Slice", "Dice", "RollUp", "DrillDown"]
    dice = uc.operations[1]
    assert len(dice.where_clauses) == 2
    slice_op = uc.operations[0]
    assert len(slice_op.where_clauses) == 1
    # the spec's parameterized predicate: free right-hand path
    assert isinstance(slice_op.where_clauses[0].right, m.AttributePath)
    assert str(slice_op.where_clauses[0].right) == "Time.year"


def test_both_operation_declaration_orders_accepted():
    source = """
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    Slice ByYear "By year" is an OLAP operation
      where F.year = 2023,
    OLAP Operation ByCity is a Roll-up
      group by F.city.
"""
    model, diags = parse_cnlbi(source)
    assert not errors(diags)
    ops = model.use_cases[0].operations
    assert [(o.kind, o.id) for o in ops] == [("Slice", "ByYear"), ("RollUp", "ByCity")]
    assert ops[0].name == "By year"


def test_missing_attribute_list_reports_cnl010():
    model, diags = parse_cnlbi("DataEntity X is a Master Dimension with attributes")
    codes = [d.code for d in errors(diags)]
    assert codes == ["CNL010"]
    assert model.entities == ()


def test_unknown_type_keyword_reports_cnl011():
    _, diags = parse_cnlbi("DataEntity X is a Masterr Dimension with attributes a is a UUID (PrimaryKey).")
    assert [d.code for d in errors(diags)] == ["CNL011"]


def test_numeric_character_outside_a_word_reports_cnl002():
    # '²' passes str.isdigit but is no decimal digit; it used to crash int().
    _, diags = parse_cnlbi("x ²")
    assert [(d.code, d.span.line, d.span.col) for d in diags if d.code == "CNL002"] == [("CNL002", 1, 3)]


def test_malformed_constraint_list_reports_cnl012():
    _, diags = parse_cnlbi("DataEntity X is a Master with attributes a is a UUID (Wibble).")
    assert "CNL012" in [d.code for d in errors(diags)]


def test_malformed_measure_reports_cnl013():
    source = "DataEntity X is a Master with attributes a is a Integer (operation COUNT(().\n"
    _, diags = parse_cnlbi(source)
    assert "CNL013" in [d.code for d in diags]


def test_malformed_where_clause_reports_cnl014():
    source = """
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source F,
  performs
    OLAP Operation Bad is a Slice
      where = 2023.
"""
    _, diags = parse_cnlbi(source)
    assert "CNL014" in [d.code for d in errors(diags)]


def test_error_recovery_keeps_other_declarations():
    source = """
Data enumeration Gender with values Male and Female.
DataEntity Broken is a Wibble Dimension with attributes x is a UUID (PrimaryKey).
Actor Analyst is a User.
"""
    model, diags = parse_cnlbi(source)
    assert errors(diags)
    # one malformed declaration among three still yields the other two
    assert [e.id for e in model.enumerations] == ["Gender"]
    assert [a.id for a in model.actors] == ["Analyst"]


def test_diagnostic_spans_contain_offending_text():
    source = "DataEntity X is a Masterr Dimension with attributes a is a UUID (PrimaryKey)."
    _, diags = parse_cnlbi(source)
    diag = errors(diags)[0]
    assert diag.span is not None
    assert "Masterr" in diag.span.slice(source)


def test_emit_institution_starts_with_expected_header(medbuddy):
    single = m.SpecificationModel(entities=(medbuddy.entity("Institution"),))
    text, warnings = emit_cnlbi(single)
    assert text.startswith("DataEntity Institution is a Master Dimension with attributes")
    assert not warnings


def test_emit_empty_model_is_empty():
    text, warnings = emit_cnlbi(m.SpecificationModel())
    assert text == ""
    assert warnings == []


def test_corpus_round_trip(medbuddy):
    text, _ = emit_cnlbi(medbuddy)
    reparsed, diags = parse_cnlbi(text, "round-trip")
    assert not errors(diags)
    assert canonicalize(reparsed) == canonicalize(medbuddy)


def test_emit_is_stable_under_reemission(medbuddy):
    once, _ = emit_cnlbi(medbuddy)
    model_again, _ = parse_cnlbi(once)
    twice, _ = emit_cnlbi(model_again)
    assert once == twice


def test_unrepresentable_constructs_become_comments(medbuddy_asl):
    text, warnings = emit_cnlbi(medbuddy_asl)
    assert any(w.code == "CNL030" for w in warnings)
    assert "// not representable in CNL-BI" in text
    # and the comments do not break reparsing
    _, diags = parse_cnlbi(text)
    assert not errors(diags)


def test_clause_punctuation_precedes_the_comments_that_follow_a_clause():
    path = m.AttributePath(("Item", "id"))
    model = m.SpecificationModel(
        entities=(
            m.DataEntity("Item", "Master", (m.DataAttribute("id", m.AttributeType.primitive("UUID")),), sub_type="Dimension"),
        ),
        actors=(m.Actor("Analyst", "User"),),
        use_cases=(m.UseCase("Look", "BIAnalysis", "Analyst", operations=(
            m.OlapOperation("Up", "RollUp", group_by=path, touched_dimensions=("Item", "Time")),
            m.OlapOperation("Down", "DrillDown", group_by=path),
        )),),
        ui_containers=(m.UIContainer("Page", components=(
            m.UIComponent("Grid", "List", component_subtype="Table", parts=(m.UIPart("id", "Column", path),)),
            m.UIComponent("Info", "Card", data_binding="Item", tags=(("colour", "red"),)),
        )),),
    )
    text, warnings = emit_cnlbi(model)
    assert text == (
        "DataEntity Item is a Master Dimension with attributes\n"
        "  id is a UUID.\n"
        "\n"
        "Actor Analyst is a User.\n"
        "\n"
        "UseCase Look is a BIAnalysis\n"
        "  actor Analyst,\n"
        "  performs\n"
        "    OLAP Operation Up is a Roll-up\n"
        "      group by Item.id,\n"
        "      // touched dimensions: Item, Time\n"
        "    OLAP Operation Down is a Drill-down\n"
        "      group by Item.id\n"
        "\n"
        "UIContainer Page is a Main Window\n"
        "that contains\n"
        "UIComponent Grid is a Table,\n"
        "  with columns Item.id,\n"
        "UIComponent Info is a Card,\n"
        "  data binding to Item.\n"
        "  // tag colour = red\n"
    )
    assert [w.code for w in warnings] == ["CNL030", "CNL030"]
    back, diags = parse_cnlbi(text, "back.cnlbi")
    assert not errors(diags)
    assert canonicalize(back.data_subset()) == canonicalize(model.data_subset())
    operations = back.use_case("Look").operations
    assert [(op.id, op.group_by) for op in operations] == [("Up", path), ("Down", path)]
    assert [comp.id for comp in back.ui_containers[0].components] == ["Grid", "Info"]


def _options_filter():
    options = tuple(m.UIPart(part, "Option", m.AttributePath(("Item", part))) for part in ("low", "high", "step"))
    component = m.UIComponent("Range", "Filter", data_binding="Item", parts=options)
    return m.SpecificationModel(ui_containers=(m.UIContainer("Page", components=(component,)),))


@pytest.mark.parametrize(
    "model, expected",
    [
        (  # a use case with neither a description nor operations ends in '.'
            m.SpecificationModel(use_cases=(m.UseCase("U", "BIAnalysis", "A"),)),
            "UseCase U is a BIAnalysis\n  actor A.\n",
        ),
        (  # a third Option part is noted where it stood, inside its component
            _options_filter(),
            "UIContainer Page is a Main Window\n"
            "that contains\n"
            "UIComponent Range is a Filter,\n"
            "  data binding to Item,\n"
            "  starting at Item.low,\n"
            "  ending at Item.high.\n"
            "// not representable in CNL-BI: extra Option part step on Range\n",
        ),
    ],
    ids=["use-case-of-one-clause", "three-option-parts"],
)
def test_emitted_text_is_exact_and_emit_of_parse_is_a_fixed_point(model, expected):
    text, _ = emit_cnlbi(model)
    assert text == expected
    back, diags = parse_cnlbi(text, "back.cnlbi")
    assert diags == []
    again, _ = emit_cnlbi(back)
    back_again, diags = parse_cnlbi(again, "again.cnlbi")
    assert diags == []
    assert emit_cnlbi(back_again)[0] == again


NATIONAL = "Analysis_Appointments_National_Level"
NATIONAL_DESCRIPTION = 'description "Displays the appointment data by institution at a national level"'


def description_reading(medbuddy_asl_text, extra):
    """(description CNL030s, whether the description reads back) with ``extra`` appended to it."""
    assert NATIONAL_DESCRIPTION in medbuddy_asl_text
    source = medbuddy_asl_text.replace(NATIONAL_DESCRIPTION, f'{NATIONAL_DESCRIPTION[:-1]} {extra}"')
    model, diags = parse_asl(source, "x.asl")
    assert not errors(diags)
    text, warnings = emit_cnlbi(model)
    back, _ = parse_cnlbi(text, "back.cnlbi")
    read = back.use_case(NATIONAL)
    reported = [w.message for w in warnings if w.code == "CNL030" and "description" in w.message]
    return reported, read is not None and read.description == model.use_case(NATIONAL).description


@pytest.mark.parametrize(
    "extra, reads_back",
    [
        ("Why are they late?", False),  # characters the lexer refuses: the CNL-BI fails with CNL002
        ("100% sure", False),
        ("C:/temp", False),  # punctuation that comes back re-spaced
        ("x.y", False),
        ("a (b)", False),
        ("for each Actor", False),  # a top-level word ends the prose
        ("1.5 days", True),
        ("it's fine, really.", True),
        ("to be - or not", True),
    ],
)
def test_description_is_cnl030_when_it_does_not_read_back(asl_source, extra, reads_back):
    reported, read = description_reading(asl_source, extra)
    assert read == reads_back
    message = f"description of use case {NATIONAL} does not read back as written in CNL-BI"
    assert reported == ([] if reads_back else [message])


def test_corpus_descriptions_read_back_without_cnl030(medbuddy, medbuddy_asl):
    for model in (medbuddy, medbuddy_asl):
        _, warnings = emit_cnlbi(model)
        assert [w for w in warnings if "description" in w.message] == []


def test_terminating_period_is_optional():
    with_period, _ = parse_cnlbi("Actor A is a User.")
    without, _ = parse_cnlbi("Actor A is a User")
    assert canonicalize(with_period) == canonicalize(without)


def test_articles_are_interchangeable():
    a_form, _ = parse_cnlbi("DataEntity E is a Master with attributes x is a UUID (PrimaryKey).")
    an_form, _ = parse_cnlbi("DataEntity E is an Master with attributes x is an UUID (PrimaryKey).")
    assert canonicalize(a_form) == canonicalize(an_form)


def test_filter_form_extras_parse_into_option_parts(medbuddy):
    page = medbuddy.container("InstitutionOverviewPage")
    time_filter = page.component("TimeRangeFilter")
    assert [(p.part_kind, str(p.binding)) for p in time_filter.parts] == [
        ("Option", "AppointmentRequest.MinDate"),
        ("Option", "AppointmentRequest.MaxDate"),
    ]


def _lexed_reads_back(text, stops):
    """The CNL030 decision as it was made by lexing the description: the reference."""
    tokens, diags = tokenize(text, code_prefix="CNL")
    words = [tok.text for tok in tokens if tok.kind not in (TokenKind.COMMENT, TokenKind.EOF)]
    return not diags and _join_prose(words) == text and set(words[1:]).isdisjoint(TOP_LEVEL_WORDS + stops)


_STOPS = ((), ("performs",), _OP_DESCRIPTION_STOPS)


def _described_owners(model):
    """(kind, owner, stops) for each description ``emit_cnlbi`` writes."""
    owners = [("entity", e, ()) for e in model.entities] + [("actor", a, ()) for a in model.actors]
    for uc in model.use_cases:
        owners += [("use case", uc, ("performs",))] + [("operation", op, _OP_DESCRIPTION_STOPS) for op in uc.operations]
    owners += [("component", comp, ()) for container in model.ui_containers for comp in container.components]
    return [owner for owner in owners if owner[1].description is not None]


def _assert_decided_as_by_lexing(model):
    owners = _described_owners(model)
    for kind, owner, stops in owners:
        text = owner.description
        assert _reads_back(text, frozenset(TOP_LEVEL_WORDS + stops)) == _lexed_reads_back(text, stops), (kind, text)
    _, warnings = emit_cnlbi(model)
    expected = [f"description of {kind} {owner.id} does not read back as written in CNL-BI"
                for kind, owner, stops in owners if not _lexed_reads_back(owner.description, stops)]
    assert sorted(w.message for w in warnings if "description" in w.message) == sorted(expected)
    return len(owners)


def test_descriptions_of_the_corpus_and_a_32_area_unit_are_decided_as_by_lexing(medbuddy, medbuddy_asl, tmp_path):
    assert _assert_decided_as_by_lexing(medbuddy) + _assert_decided_as_by_lexing(medbuddy_asl) > 0
    corpus = {"cnlbi": (CORPUS_CNLBI.read_text(encoding="utf-8"), parse_cnlbi), "asl": (CORPUS_ASL.read_text(encoding="utf-8"), parse_asl)}
    unit = inputs.make_spec(tmp_path, 3, 32, corpus) / "unit"
    models = [(parse_cnlbi if path.suffix == ".cnlbi" else parse_asl)(path.read_text(encoding="utf-8"), path.name)[0]
              for path in sorted(unit.iterdir())]
    assert len(models) == 32
    assert _assert_decided_as_by_lexing(merge_models(models)) > 500


def test_descriptions_of_the_parse_mutants_are_decided_as_by_lexing():
    for path, parse in ((CORPUS_CNLBI, parse_cnlbi), (CORPUS_ASL, parse_asl)):
        source = path.read_text(encoding="utf-8")
        tokens = tokenize(source, block_comments=True, string_quotes="'\"")[0][:-1]
        rng = random.Random(parse_golden.SEED)
        for _ in range(parse_golden.MUTANTS_PER_FILE):
            _assert_decided_as_by_lexing(parse(_mutate(source, tokens, rng), path.name)[0])


# Lexer edge cases: spacing, attached punctuation, quotes and escapes, comments,
# numbers, hyphens and apostrophes, numeric characters that are no decimal digit.
_PROSE_PIECES = st.sampled_from(
    ["a", "Zé", "_x", "x1", "1", "1.5", "٣", "½", "²", " ", "  ", "\n", "\t", "\xa0", ",", ".", "-", "'", "(", "/", "//",
     '"', '\\', "Actor", "Data", "performs", "Slice", "Roll-up", "it's", "to-be"]
)


@given(st.one_of(st.text(), st.lists(_PROSE_PIECES, max_size=8).map("".join)), st.sampled_from(_STOPS))
def test_a_description_is_decided_as_by_lexing(text, stops):
    assert _reads_back(text, frozenset(TOP_LEVEL_WORDS + stops)) == _lexed_reads_back(text, stops)
