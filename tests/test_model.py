import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from bispec import diagnostics, engine, plan, semantics
from bispec import model as m
from bispec.diagnostics import Span
from conftest import DATA_DIR


def attr(attr_id, type_name="Integer", **kwargs):
    return m.DataAttribute(id=attr_id, attr_type=m.AttributeType.primitive(type_name), **kwargs)


def pk(attr_id="id"):
    return m.DataAttribute(
        id=attr_id,
        attr_type=m.AttributeType.primitive("UUID"),
        constraints=frozenset({m.Constraint("PrimaryKey")}),
    )


def test_entity_type_vocabulary_is_closed():
    with pytest.raises(m.ModelError):
        m.DataEntity(id="X", entity_type="Bogus", attributes=(pk(),))


def test_actor_type_vocabulary_is_closed():
    with pytest.raises(m.ModelError):
        m.Actor(id="A", actor_type="Robot")


def test_aggregate_function_vocabulary_is_closed():
    with pytest.raises(m.ModelError):
        m.Aggregate("MEDIAN", m.AttributePath(("x",)))


def test_count_is_the_only_predicate_aggregate():
    pred = m.Predicate(m.AttributePath(("state",)), m.EnumLiteral("States", "Cancelled"))
    assert m.Aggregate("COUNT", pred).fn == "COUNT"
    with pytest.raises(m.ModelError):
        m.Aggregate("SUM", pred)


def test_entity_requires_attributes():
    with pytest.raises(m.ModelError):
        m.DataEntity(id="X", entity_type="Master", attributes=())


def test_enumeration_values_unique_and_nonempty():
    with pytest.raises(m.ModelError):
        m.DataEnumeration(id="E", values=())
    with pytest.raises(m.ModelError):
        m.DataEnumeration(id="E", values=("A", "A"))


def test_measure_excludes_key_constraints():
    measure = m.Aggregate("COUNT", m.AttributePath(("id",)))
    with pytest.raises(m.ModelError):
        m.DataAttribute(
            id="total",
            attr_type=m.AttributeType.primitive("Integer"),
            measure=measure,
            constraints=frozenset({m.Constraint("PrimaryKey")}),
        )


def test_primary_key_absorbs_notnull_and_unique():
    full = m.DataAttribute(
        id="id",
        attr_type=m.AttributeType.primitive("UUID"),
        constraints=frozenset(
            {m.Constraint("PrimaryKey"), m.Constraint("NotNull"), m.Constraint("Unique")}
        ),
    )
    assert {c.kind for c in full.constraints} == {"PrimaryKey"}
    assert full.not_null


def test_length_only_on_string():
    assert m.AttributeType.primitive("String", 50).length == 50
    with pytest.raises(m.ModelError):
        m.AttributeType.primitive("Integer", 10)


def test_attribute_path_segment_limits():
    with pytest.raises(m.ModelError):
        m.AttributePath(())
    with pytest.raises(m.ModelError):
        m.AttributePath(("a", "b", "c", "d"))
    assert str(m.AttributePath.parse("A.b.c")) == "A.b.c"


def test_operation_clause_population_matches_kind():
    where = (m.Predicate(m.AttributePath(("year",)), m.Literal(2023)),)
    group = m.AttributePath(("Institution", "city"))
    # a Slice with a group-by is a construction error
    with pytest.raises(m.ModelError):
        m.OlapOperation(id="bad", kind="Slice", where_clauses=where, group_by=group)
    with pytest.raises(m.ModelError):
        m.OlapOperation(id="bad", kind="RollUp", where_clauses=where)
    with pytest.raises(m.ModelError):
        m.OlapOperation(id="bad", kind="Pivot", group_by=group)
    with pytest.raises(m.ModelError):
        m.OlapOperation(id="bad", kind="Pivot", swap=("Time", "Time"))
    # a Slice with two predicates constructs fine (arity is a semantic check)
    two = where + (m.Predicate(m.AttributePath(("closed",)), m.Literal(True)),)
    assert len(m.OlapOperation(id="ok", kind="Slice", where_clauses=two).where_clauses) == 2


def test_chart_subtype_iff_interactive_chart():
    with pytest.raises(m.ModelError):
        m.UIComponent(id="c", component_type="InteractiveChart")
    with pytest.raises(m.ModelError):
        m.UIComponent(id="c", component_type="Form", component_subtype="InteractiveBarChart")
    chart = m.UIComponent(id="c", component_type="InteractiveChart", component_subtype="InteractivePieChart")
    assert chart.chart_subtype == "InteractivePieChart"
    filter_range = m.UIComponent(id="f", component_type="Filter", component_subtype="Range")
    assert filter_range.chart_subtype is None


def test_extension_category_vocabulary_is_closed():
    with pytest.raises(m.ModelError):
        m.VocabularyExtension("NotACategory", "X")
    ext = m.VocabularyExtension("UIComponentSubType", "Sparkline")
    assert ext.id == "Sparkline"


def test_merge_concatenates_categories():
    a = m.SpecificationModel(actors=(m.Actor(id="A", actor_type="User"),))
    b = m.SpecificationModel(actors=(m.Actor(id="B", actor_type="User"),))
    merged = m.merge_models([a, b])
    assert [x.id for x in merged.actors] == ["A", "B"]


def test_model_values_are_immutable():
    actor = m.Actor(id="A", actor_type="User")
    with pytest.raises(AttributeError):
        actor.id = "B"


def test_loc_does_not_affect_equality():
    plain = m.Actor(id="A", actor_type="User")
    located = m.Actor(id="A", actor_type="User", loc=Span("f", 1, 1, 0, 5))
    assert plain == located


@pytest.mark.parametrize("build", [
    lambda: m.DataEntity(id="P\n", entity_type="Master", attributes=(pk(),)),
    lambda: m.AttributePath.parse("Patient.id\n"),
    lambda: m.Actor(id="A\n", actor_type="User"),
], ids=["entity id", "attribute path", "actor id"])
def test_an_identifier_ends_at_its_last_word_character(build):
    assert not m.is_identifier("A\n") and m.is_identifier("A_1")
    with pytest.raises(m.ModelError):
        build()


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# Any code point, with ASCII identifier characters and the non-ASCII letters,
# digits and signs closest to them drawn often.
@given(st.text(st.characters(exclude_categories=()) | st.sampled_from("aZ_09\u00e9\u017f\u212a\u0661\u00b2 -$\n"), max_size=8))
@example("")
@example("A\n")
@example("_1")
def test_is_identifier_is_the_ascii_identifier_pattern(text):
    assert m.is_identifier(text) is (_IDENTIFIER.fullmatch(text) is not None)


# ---------------------------------------------------------------------------
# The value-class contract, on the values the pipeline really makes
# ---------------------------------------------------------------------------

VALUE_CLASSES = sorted(
    (cls for module in (diagnostics, m, plan, engine, semantics) for _, cls in inspect.getmembers(module, inspect.isclass)
     if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls) and cls.__setattr__ is not object.__setattr__),
    key=lambda cls: cls.__qualname__,
)


def _reached(*roots) -> list:
    """Every value-class instance reachable from ``roots`` through fields,
    tuples and frozensets, each object once."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if type(item) in VALUE_CLASSES:
            found.append(item)
            stack += [getattr(item, f.name) for f in dataclasses.fields(item)]
        elif isinstance(item, (tuple, frozenset)):
            stack += item
    return found


@pytest.fixture(scope="module")
def values(medbuddy, medbuddy_asl):
    """Values of the corpus models, a planned operation with its measure
    program, a check report with located diagnostics, and the results and
    access plans of the use case's operations and of a grand total on a
    fresh cube, each plan before and after its run; the corpus holds no
    literal and no unparsed measure, so two are added."""
    use_case, slice_op = "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear"
    planned = plan.plan_operation(medbuddy, use_case, slice_op)
    program = plan.measure_program(medbuddy, planned.fact.id, [a.measure for a in planned.measures])
    broken = dataclasses.replace(medbuddy, actors=medbuddy.actors[:1] * 2)  # a duplicate id: a located diagnostic
    cube = engine.load_cube(medbuddy, DATA_DIR)[0]
    view = cube.view(planned.fact.id)
    plans = [plan.plan_operation(medbuddy, use_case, op.id) for op in medbuddy.use_case(use_case).operations]
    plans.append(dataclasses.replace(plans[-1], keys=()))
    access = [engine.access_plan(cube, each) for each in plans]
    results = [engine.run_plan(cube, each, {"year": 2023, "id": "c1"}) for each in plans]
    access += [engine.access_plan(cube, each) for each in plans]
    extra = m.Literal(2023), m.OpaqueMeasure("SUM(")
    return _reached(medbuddy, medbuddy_asl, planned, program, semantics.check_model(broken), view, *results, *access, *extra)


def test_the_pipeline_reaches_every_value_class(values):
    assert len(VALUE_CLASSES) == 41
    assert sorted({type(v) for v in values}, key=lambda cls: cls.__qualname__) == VALUE_CLASSES


def test_value_equality_hashing_and_replace(values):
    elsewhere = Span("elsewhere.cnlbi", 99, 9, 0, 1)
    for value in values:
        fields = dataclasses.fields(value)
        copy = dataclasses.replace(value)
        moved = dataclasses.replace(value, loc=elsewhere) if "loc" in value.__dataclass_fields__ else copy
        assert copy == value == moved and copy is not value and not copy != value
        assert value.__eq__(object()) is NotImplemented
        assert [f.name for f in fields if not f.compare] == [f.name for f in fields if f.name == "loc"]
        if not isinstance(value, engine.CubeView):  # its Cube is mutable, so unhashable
            compared = tuple(getattr(value, f.name) for f in fields if f.compare)
            assert hash(copy) == hash(moved) == hash(value) == hash(compared)


def test_value_fields_can_be_neither_assigned_nor_deleted(values):
    for value in values:
        for f in dataclasses.fields(value):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{f.name}'"):
                setattr(value, f.name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{f.name}'"):
                delattr(value, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 1


def test_value_repr_names_its_shown_fields(values):
    for value in values:
        shown = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in dataclasses.fields(value) if f.repr)
        assert repr(value) == f"{type(value).__qualname__}({shown})"
    path = m.AttributePath(("Patient", "id"), Span("f.cnlbi", 1, 2, 3, 4))
    assert repr(path) == "AttributePath(segments=('Patient', 'id'))"
    assert repr(m.Constraint("ForeignKey", "City")) == "Constraint(kind='ForeignKey', target='City')"
    assert hash(path) == hash((("Patient", "id"),)) and hash(m.MeasureRef("x")) == hash(("x",))


def test_all_lists_only_what_the_model_module_defines():
    tree = ast.parse(Path(inspect.getsourcefile(m)).read_text(encoding="utf-8"))
    bound = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    bound |= {
        target.id
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(target, ast.Name)
    }
    assert set(m.__all__) <= bound
    assert {"DataEntity", "SpecificationModel", "merge_models", "PRIMITIVE_TYPES"} <= set(m.__all__)
    namespace = {}
    exec("from bispec.model import *", namespace)
    assert "re" not in namespace and "field" not in namespace and "DataEntity" in namespace
