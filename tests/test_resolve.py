"""The one path grammar, ``plan.column``, and the hop chains it reads."""

import itertools
from dataclasses import replace

import pytest

from bispec import model as m
from bispec import check_model, gen_olap_sql, model_json, parse_cnlbi
from bispec.engine import load_cube, run_use_case
from bispec.generators import GeneratorError, gen_schema_sql
from bispec.model import AttributePath
from bispec.plan import EngineError, Filter, column, measure_program, operation_plan, plan_operation, source_fact
from conftest import DATA_DIR

FACT = "AppointmentRequest"


def planned(model, fact_id, path):
    """(entity, attribute) the planner reads for ``path``: the last hop's target, or the fact."""
    col = column(model, fact_id, AttributePath.parse(path))
    return (col.chain[-1][1] if col.chain else fact_id), col.attribute.id


def refused(model, fact_id, path):
    with pytest.raises(EngineError) as exc:
        column(model, fact_id, AttributePath.parse(path))
    assert exc.value.code == "ENG030"
    return str(exc.value)


def test_entity_rooted_path_from_cluster_context(medbuddy_asl):
    fact_id = source_fact(medbuddy_asl.data_source("Appointments"))
    assert fact_id == FACT
    assert planned(medbuddy_asl, fact_id, "Institution.city") == ("Institution", "city")
    assert column(medbuddy_asl, fact_id, AttributePath.parse("Institution.city")).chain == (("institution", "Institution"),)


def test_three_segment_path_hops_through_dimension(medbuddy):
    col = column(medbuddy, FACT, AttributePath.parse("AppointmentRequest.scheduled_date.year"))
    assert (col.chain, col.attribute.id) == ((("scheduled_date", "Time"),), "year")


@pytest.mark.parametrize(
    "path, reason",
    [
        ("bogus", "AppointmentRequest has no attribute 'bogus'"),
        ("Institution.bogus", "Institution has no attribute 'bogus'"),
        ("Institution.bogus.name", "Institution has no attribute 'bogus'"),
        ("scheduled_date.bogus", "Time has no attribute 'bogus'"),
        ("Nope.name", "unknown entity 'Nope'"),
        ("institution.city.name", "unknown entity 'institution'"),  # a fact attribute hops only in two segments
        ("closed.year", "AppointmentRequest.closed does not reference a dimension"),
        ("AppointmentRequest.closed.year", "AppointmentRequest.closed does not reference a dimension"),
    ],
)
def test_each_failing_segment_is_eng030_with_its_reason(medbuddy, path, reason):
    assert refused(medbuddy, FACT, path) == f"cannot resolve {path} from {FACT}: {reason}"


def test_named_entity_must_be_reachable_from_the_fact(medbuddy):
    assert refused(medbuddy, "City", "Institution.name") == "Institution is not reachable from City"
    assert refused(medbuddy, "Institution", "AppointmentRequest.scheduled_date.year") == (
        "AppointmentRequest is not reachable from Institution"
    )


def test_unknown_fact_and_unknown_reference_target():
    assert refused(m.SpecificationModel(), "Nowhere", "x") == "unknown entity 'Nowhere'"
    model, _ = parse_cnlbi("DataEntity F is a Transaction Fact with attributes\n  id is a UUID (PrimaryKey),\n  g refers to Dimension Ghost.")
    assert refused(model, "F", "g.name") == "cannot resolve g.name from F: unknown entity 'Ghost'"


def test_single_segment_resolves_on_context_entity(medbuddy):
    assert column(medbuddy, FACT, AttributePath.parse("closed")).chain == ()
    assert planned(medbuddy, FACT, "closed") == (FACT, "closed")


def test_two_segment_hop_through_context_attribute(medbuddy):
    assert planned(medbuddy, FACT, "scheduled_date.year") == ("Time", "year")


@pytest.mark.parametrize("fixture", ["medbuddy", "medbuddy_asl"])
def test_every_path_plans_or_raises_eng030(request, fixture):
    # Totality: from every entity, every 1-3 segment combination of entity and attribute ids
    # either plans onto an attribute of the entity its chain ends at, or is ENG030.
    model = request.getfixturevalue(fixture)
    names = sorted({e.id for e in model.entities} | {"id", "name", "year", "city", "institution", "bogus", "Nope"})
    for fact_id, length in itertools.product([e.id for e in model.entities], (1, 2, 3)):
        for segments in itertools.product(names, repeat=length):
            path = AttributePath(segments)
            try:
                col = column(model, fact_id, path)
            except EngineError as exc:
                assert exc.code == "ENG030"
                continue
            owner = model.entity(col.chain[-1][1] if col.chain else fact_id)
            assert owner.attribute(segments[-1]) is col.attribute
            assert col.path == str(path)


def test_reachability_closure_includes_snowflake_chain(medbuddy):
    reachable = set(medbuddy.hop_chains("AppointmentRequest"))
    # City is two hops away (fact -> Institution -> City)
    assert reachable == {"AppointmentRequest", "Institution", "Patient", "RequestState", "Time", "City"}


def test_reachability_from_cluster(medbuddy_asl):
    reachable = set(medbuddy_asl.hop_chains(source_fact(medbuddy_asl.data_source("Appointments"))))
    assert "AppointmentRequest" in reachable and "City" in reachable


def _fresh_walk(model, fact_id):
    """Breadth-first hop chains, walked again with no memo."""
    chains = {fact_id: ()}
    queue = [model.entity(fact_id)]
    for current in queue:
        for attr in current.dimension_refs:
            target = model.entity(attr.dimension_target)
            if target is not None and target.id not in chains:
                chains[target.id] = chains[current.id] + ((attr.id, target.id),)
                queue.append(target)
    return chains


@pytest.mark.parametrize("fixture", ["medbuddy", "medbuddy_asl"])
def test_memoised_hop_chains_equal_a_fresh_walk_for_every_entity(request, fixture):
    model = request.getfixturevalue(fixture)
    for entity in model.entities:
        first = model.hop_chains(entity.id)
        assert list(first.items()) == list(_fresh_walk(model, entity.id).items())  # breadth-first order too
        assert model.hop_chains(entity.id) is first  # walked once


def test_hop_chains_are_read_only(medbuddy):
    with pytest.raises(TypeError):
        medbuddy.hop_chains("AppointmentRequest")["City"] = ()


def test_hop_chains_of_an_unknown_entity_are_empty(medbuddy):
    assert dict(medbuddy.hop_chains("Nope")) == {}
    assert dict(m.SpecificationModel().hop_chains("Nope")) == {}


def test_models_never_share_hop_chains(cnlbi_source):
    first, _ = parse_cnlbi(cnlbi_source, "a.cnlbi")
    second, _ = parse_cnlbi(cnlbi_source, "b.cnlbi")
    assert first == second
    assert first.hop_chains("AppointmentRequest") is not second.hop_chains("AppointmentRequest")
    # A model with no reference to City reaches no City, whatever the full model cached.
    cut = m.SpecificationModel(
        entities=tuple(replace(e, attributes=tuple(a for a in e.attributes if a.dimension_target != "City")) for e in first.entities)
    )
    assert "City" in first.hop_chains("AppointmentRequest")
    assert "City" not in cut.hop_chains("AppointmentRequest")


def test_measure_program_shares_aggregate_leaves(medbuddy):
    fact = medbuddy.entity("AppointmentRequest")
    program = measure_program(medbuddy, fact.id, [attr.measure for attr in fact.measures])
    assert [attr.id for attr in fact.measures] == [
        "CountAppointments", "CountCancelledAppointments", "CancellationRate", "AvgWaitingTime", "MinDate", "MaxDate"
    ]
    assert [leaf.fn for leaf in program.leaves] == ["COUNT", "COUNT", "AVERAGE", "MIN", "MAX"]
    assert isinstance(program.leaves[1].input, Filter)
    assert program.roots == (0, 1, ("/", 1, 0), 2, 3, 4)  # CancellationRate reuses both COUNT leaves
    assert program.leaves[3].input.chain == (("scheduled_date", "Time"),)  # MIN lands on the date role


def test_measure_cycle_is_eng030_from_the_planner(medbuddy_measure_cycle):
    fact = medbuddy_measure_cycle.entity("AppointmentRequest")
    with pytest.raises(EngineError) as exc:
        measure_program(medbuddy_measure_cycle, fact.id, [attr.measure for attr in fact.measures])
    assert (exc.value.code, str(exc.value)) == ("ENG030", "measure reference cycle at CancellationRate")


def test_measure_predicate_against_a_free_path_is_refused_everywhere(cnlbi_source):
    # Measures take no bindings, so City.id could never be supplied: check, gen and the engine all refuse it.
    # The check reports it once, at its cause, and not again at CancellationRate, which reads the measure.
    source = cnlbi_source.replace("COUNT(state = States.Cancelled)", "COUNT(institution.city = City.id)")
    model, _ = parse_cnlbi(source, "free.cnlbi")
    reason = "measure predicate on institution.city compares against the free path City.id"
    assert [(d.code, d.message) for d in check_model(model).diagnostics if d.is_error] == [
        ("SEM010", f"in measure AppointmentRequest.CountCancelledAppointments: {reason}"),
    ]
    roll_up = ("AnalysisAppointmentsInstitutionOnNationalLevel", "AppointmentsByInstitutionCity")
    with pytest.raises(GeneratorError) as gen_exc:
        gen_olap_sql(model, *roll_up)
    assert (gen_exc.value.code, str(gen_exc.value)) == ("GEN010", reason)
    cube, _ = load_cube(model, DATA_DIR)
    with pytest.raises(EngineError) as run_exc:
        run_use_case(cube, *roll_up, {"id": "c1"})
    assert (run_exc.value.code, str(run_exc.value)) == ("ENG030", reason)


def test_mistyped_literal_predicate_is_refused_by_the_planner(cnlbi_source, cube):
    # Unchecked, the engine used to compare the Gender column with 5 and keep no row
    source = cnlbi_source.replace(
        "where AppointmentRequest.scheduled_date.year = Time.year", "where Patient.gender = 5", 1
    )
    model, _ = parse_cnlbi(source, "typed.cnlbi")
    slice_op = ("AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear")
    reason = "cannot compare Patient.gender (Gender) with 5"
    with pytest.raises(EngineError) as run_exc:
        run_use_case(replace(cube, model=model), *slice_op)
    assert (run_exc.value.code, run_exc.value.rule, str(run_exc.value)) == ("ENG030", "type", reason)
    with pytest.raises(GeneratorError) as gen_exc:
        gen_olap_sql(model, *slice_op)
    assert (gen_exc.value.code, str(gen_exc.value)) == ("GEN010", reason)


def test_reference_order_puts_targets_first_and_sets_cycles_apart(medbuddy, cnlbi_source):
    ordered, cyclic = medbuddy.reference_order()
    assert cyclic == () and sorted(e.id for e in ordered) == sorted(e.id for e in medbuddy.entities)
    for position, entity in enumerate(ordered):
        assert {a.dimension_target for a in entity.dimension_refs} <= {e.id for e in ordered[:position]}
    # Institution.city retargeted: a self-reference is no dependency; a loop through the fact is a cycle
    for target, expected in (("Institution", []), ("AppointmentRequest", ["AppointmentRequest", "Institution"])):
        looped, _ = parse_cnlbi(cnlbi_source.replace("city refers to Dimension City", f"city refers to Dimension {target}"), "x")
        assert [e.id for e in looped.reference_order()[1]] == expected, target


NESTED_CYCLES = """
DataEntity A is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  b refers to Dimension B.
DataEntity B is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  a refers to Dimension A.
DataEntity M is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  a refers to Dimension A,
  m refers to Dimension M.
DataEntity D is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  m refers to Dimension M,
  e refers to Dimension E.
DataEntity E is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D.
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  d refers to Dimension D.
"""


def test_reference_cycles_name_only_the_entities_on_a_cycle():
    # M (self-referencing) sits between the cycles A-B and D-E, and F behind both
    model, diags = parse_cnlbi(NESTED_CYCLES, "cycles.cnlbi")
    assert not diags
    assert [e.id for e in model.reference_order()[1]] == ["A", "B", "D", "E", "F", "M"]
    assert [e.id for e in model.reference_cycles()] == ["A", "B", "D", "E"]
    sem006 = [d for d in check_model(model).diagnostics if d.code == "SEM006"]
    assert [(d.severity.value, d.message) for d in sem006] == [
        ("warning", "reference cycle among entities: A, B, D, E; gen cannot order their tables")
    ]
    with pytest.raises(GeneratorError) as exc:
        gen_schema_sql(model)
    assert (exc.value.code, str(exc.value)) == ("GEN001", "reference cycle among entities: A, B, D, E")


def test_plans_and_measure_programs_are_made_once_per_model(cnlbi_source, monkeypatch):
    model, _ = parse_cnlbi(cnlbi_source, "memo.cnlbi")
    canonical = model_json(model)
    check_model(model)
    made = {}
    for uc in model.use_cases:
        for op in uc.operations:
            gen_olap_sql(model, uc.id, op.id)
            plan = made[uc.id, op.id] = operation_plan(model, uc, op)
            exprs = [attr.measure for attr in plan.measures]
            made[uc.id, op.id, "measures"] = measure_program(model, plan.fact.id, exprs)
    # a hit tells its inputs apart by identity and hashes no expression tree
    for cls in (m.Aggregate, m.Predicate, m.OlapOperation, m.UseCase):
        monkeypatch.setattr(cls, "__hash__", lambda self: pytest.fail(f"hashed a {type(self).__name__}"))
    for uc in model.use_cases:
        for op in uc.operations:
            plan = made[uc.id, op.id]
            assert plan_operation(model, uc.id, op.id) is plan is operation_plan(model, uc, op)
            assert measure_program(model, plan.fact.id, tuple(a.measure for a in plan.measures)) is made[uc.id, op.id, "measures"]
    monkeypatch.undo()
    fresh, _ = parse_cnlbi(cnlbi_source, "fresh.cnlbi")
    uc = fresh.use_case("AnalysisAppointmentsInstitutionOnNationalLevel")
    plan = operation_plan(fresh, uc, uc.operations[0])
    assert plan == made[uc.id, uc.operations[0].id] and plan is not made[uc.id, uc.operations[0].id]
    assert fresh == model and model_json(model) == canonical


def test_a_planning_error_is_raised_afresh_on_every_call(medbuddy_measure_cycle):
    fact = medbuddy_measure_cycle.entity("AppointmentRequest")
    exprs = [fact.attribute("CancellationRate").measure]
    raised = []
    for _ in range(2):
        with pytest.raises(EngineError) as exc:
            measure_program(medbuddy_measure_cycle, fact.id, exprs)
        raised.append(exc.value)
    assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1]) and raised[0].measure == raised[1].measure
