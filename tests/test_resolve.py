import pytest

from bispec import model as m
from bispec.model import AttributePath, ResolveError, resolve
from bispec.plan import hop_chains, source_fact


def test_entity_rooted_path_from_cluster_context(medbuddy_asl):
    target = resolve(medbuddy_asl, AttributePath.parse("Institution.city"), "Appointments")
    assert (target.entity, target.attribute) == ("Institution", "city")


def test_three_segment_path_hops_through_dimension(medbuddy):
    target = resolve(medbuddy, AttributePath.parse("AppointmentRequest.scheduled_date.year"), "AppointmentRequest")
    assert (target.entity, target.attribute) == ("Time", "year")


def test_unknown_attribute_names_failing_segment(medbuddy):
    with pytest.raises(ResolveError) as exc:
        resolve(medbuddy, AttributePath.parse("Institution.bogus"), "AppointmentRequest")
    assert exc.value.code == "UnknownAttribute"
    assert exc.value.segment == "bogus"


def test_single_segment_resolves_on_context_entity(medbuddy):
    target = resolve(medbuddy, AttributePath.parse("closed"), "AppointmentRequest")
    assert (target.entity, target.attribute) == ("AppointmentRequest", "closed")


def test_two_segment_hop_through_context_attribute(medbuddy):
    target = resolve(medbuddy, AttributePath.parse("scheduled_date.year"), "AppointmentRequest")
    assert (target.entity, target.attribute) == ("Time", "year")


def test_non_dimension_middle_segment(medbuddy):
    with pytest.raises(ResolveError) as exc:
        resolve(medbuddy, AttributePath.parse("AppointmentRequest.closed.year"), "AppointmentRequest")
    assert exc.value.code == "NotADimensionHop"


def test_unknown_context():
    model = m.SpecificationModel()
    with pytest.raises(ResolveError) as exc:
        resolve(model, AttributePath.parse("x"), "Nowhere")
    assert exc.value.code == "UnknownEntity"


def test_every_path_resolves_or_raises_exactly_one_error(medbuddy):
    # Totality: all syntactically valid 2-segment combinations over the model
    # either resolve or raise a ResolveError; nothing else escapes.
    names = [e.id for e in medbuddy.entities] + ["Nope"]
    attrs = ["id", "name", "year", "bogus"]
    for head in names:
        for leaf in attrs:
            path = AttributePath((head, leaf))
            try:
                target = resolve(medbuddy, path, "AppointmentRequest")
                assert medbuddy.entity(target.entity).attribute(target.attribute) is not None
            except ResolveError as exc:
                assert exc.code in ("UnknownEntity", "UnknownAttribute", "NotADimensionHop")


def test_reachability_closure_includes_snowflake_chain(medbuddy):
    reachable = set(hop_chains(medbuddy, "AppointmentRequest"))
    # City is two hops away (fact -> Institution -> City)
    assert reachable == {"AppointmentRequest", "Institution", "Patient", "RequestState", "Time", "City"}


def test_reachability_from_cluster(medbuddy_asl):
    reachable = set(hop_chains(medbuddy_asl, source_fact(medbuddy_asl.data_source("Appointments"))))
    assert "AppointmentRequest" in reachable and "City" in reachable
