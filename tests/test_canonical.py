import dataclasses
import json
import random

from hypothesis import example, given, strategies as st

from bispec import canonicalize, emit_asl, emit_cnlbi, parse_asl, parse_cnlbi
from bispec.canonical import canonical_dict, indented_json, model_json
from bispec.model import SpecificationModel


def test_empty_model_has_fixed_canonical_bytes():
    empty = SpecificationModel.empty()
    assert canonicalize(empty) == canonicalize(SpecificationModel())
    payload = canonical_dict(empty)
    assert payload["format"] == "bispec-model"
    assert payload["version"] == 1
    for section in ("enumerations", "entities", "clusters", "actors", "useCases", "uiContainers"):
        assert payload[section] == []


def test_canonicalize_is_deterministic_across_runs(medbuddy):
    assert canonicalize(medbuddy) == canonicalize(medbuddy)


def test_declaration_order_is_normalized(medbuddy):
    rng = random.Random(7)
    for _ in range(5):
        shuffled = dataclasses.replace(
            medbuddy,
            enumerations=tuple(rng.sample(medbuddy.enumerations, len(medbuddy.enumerations))),
            entities=tuple(rng.sample(medbuddy.entities, len(medbuddy.entities))),
            actors=tuple(rng.sample(medbuddy.actors, len(medbuddy.actors))),
            use_cases=tuple(rng.sample(medbuddy.use_cases, len(medbuddy.use_cases))),
            ui_containers=tuple(rng.sample(medbuddy.ui_containers, len(medbuddy.ui_containers))),
        )
        assert canonicalize(shuffled) == canonicalize(medbuddy)


def test_attribute_order_is_preserved(medbuddy):
    fact = medbuddy.entity("AppointmentRequest")
    reversed_fact = dataclasses.replace(fact, attributes=tuple(reversed(fact.attributes)))
    entities = tuple(reversed_fact if e.id == fact.id else e for e in medbuddy.entities)
    assert canonicalize(dataclasses.replace(medbuddy, entities=entities)) != canonicalize(medbuddy)


def test_institution_equal_across_styles():
    # The Institution dimension rendered in each style parses to equal
    # canonical bytes once display names default to identifiers.
    cnlbi_text = """
DataEntity Institution ("Institution") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  code is a String (NotNull),
  name is a String (NotNull),
  latitude is a Decimal (NotNull),
  longitude is a Decimal (NotNull),
  city refers to Dimension City (NotNull),
  type is an InstitutionTypes (NotNull).
"""
    asl_text = """
DataEntitySubType BI_Dimension
DataAttributeType UUID
DataAttributeType _Dimension
DataEntity Institution "Institution" : Master : BI_Dimension [
  attribute id : UUID [constraints (PrimaryKey NotNull Unique)]
  attribute code : String [constraints (NotNull)]
  attribute name : String [constraints (NotNull)]
  attribute latitude : Decimal [constraints (NotNull)]
  attribute longitude : Decimal [constraints (NotNull)]
  attribute city : _Dimension [constraints (NotNull ForeignKey(City))]
  attribute type : DataEnumeration InstitutionTypes [constraints (NotNull)] ]
"""
    from_cnlbi, d1 = parse_cnlbi(cnlbi_text)
    from_asl, d2 = parse_asl(asl_text)
    assert not any(d.is_error for d in d1 + d2)
    assert canonicalize(from_cnlbi) == canonicalize(from_asl)


def test_display_names_default_to_identifiers():
    model, _ = parse_cnlbi("Actor Analyst is a User.")
    payload = canonical_dict(model)
    assert payload["actors"][0]["name"] == "Analyst"


def test_model_json_is_utf8_lf_stable_key_order(medbuddy):
    text = model_json(medbuddy)
    assert "\r" not in text
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed)[:2] == ["format", "version"]
    # round-trips through JSON without loss
    assert json.dumps(parsed, indent=2, ensure_ascii=False) + "\n" == text


def test_canonical_excludes_source_locations(medbuddy, cnlbi_source):
    # Parsing the same text under a different file name changes every span
    # but not the canonical form.
    renamed, _ = parse_cnlbi(cnlbi_source, "elsewhere.cnlbi")
    assert canonicalize(renamed) == canonicalize(medbuddy)


# Any code point, lone surrogates included, with the characters JSON escapes drawn often.
_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé€😀\n\t'),
    max_size=12,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, 0.1, -1.5e300, float("inf"), float("-inf"), float("nan")])
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@given(_VALUES)
@example({"b": [], "a": {}, "": ()})
@example([{"z": None, "y": [True, False, -0.0, 1e16, 5e-324, -(10**30)]}, ("\ud800", '"\\')])
@example([{"id": str(i), "name": None, "parts": [{"id": i, "tags": [["a", "b"]]}], "x": {}} for i in range(3000)])  # many chunks
@example({"a": [[[[[[[[{"b": [None]}]]]]]]]], "c": [[]], "d": {"e": {"f": "g"}}})  # deep, and depths revisited
def test_indented_json_equals_json_dumps_with_indent(value):
    assert indented_json(value) == json.dumps(value, indent=2, ensure_ascii=False)



def test_display_names_with_quotes_and_backslashes_keep_canonical_bytes(cnlbi_source):
    # Each name is written escaped in the source; emit must escape it again so the text re-parses to the same model
    source = (
        cnlbi_source.replace('("Patient")', r'("Pa\"tient")')
        .replace('("Request State")', r'("Request \\ State")')
        .replace("  gender is a Gender", r'  gender ("Gen\"der\\") is a Gender')
        .replace('"National Level Data Analyst"', r'"National \"Level\" \\ Analyst"')
        .replace('("Appointments by institution")', r'''("Appointments by \"institution\" \\ it's")''')
    )
    model, diags = parse_cnlbi(source, "names.cnlbi")
    assert not any(d.is_error for d in diags), [f"{d.code}: {d.message}" for d in diags]
    assert model.entity("Patient").name == 'Pa"tient'
    assert model.entity("Patient").attribute("gender").name == 'Gen"der\\'
    assert 'Appointments by "institution" \\ it\'s' in {op.name for uc in model.use_cases for op in uc.operations}
    expected = canonicalize(model)
    for emit, parse in ((emit_cnlbi, parse_cnlbi), (emit_asl, parse_asl)):
        text, _ = emit(model)
        again, diags = parse(text, "again")
        assert not any(d.is_error for d in diags), [f"{d.code}: {d.message}" for d in diags]
        assert emit(again)[0] == text  # a fixed point
        back, _ = parse_cnlbi(emit_cnlbi(again)[0], "back.cnlbi")
        assert canonicalize(back) == expected
