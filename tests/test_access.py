"""Which access path each query takes, read from ``engine.access_plan``.

``run_plan`` makes an ``AccessPlan`` at the start of every run and follows
it. On a fresh cube no reference has postings, so the first run of a query
through fact references groups through postings it builds (or reads the
kept positions, for a Slice); from the second run on, the same query
combines member folds. The plan is made again for every run.
"""

import pytest

from bispec import merge_models, model as m, parse_cnlbi
from bispec.engine import (AccessPlan, FarEnd, Folds, Positions, Postings, RowLoop, Scan, access_plan, load_cube,
                           run_plan)
from bispec.plan import plan_operation
from conftest import DATA_DIR, ROOT, folds_built, measure, query
from test_differential import SNOWFLAKE
from test_engine import _pivot_cube

FACT = "AppointmentRequest"
BINDS = {"year": "2023", "id": "c2"}
NO_POSTINGS = "references have no postings yet"


def _through(ref: str) -> tuple[AccessPlan, AccessPlan]:
    """A roll-up by member of the one fact reference ``ref``: its first run's
    plan and every later run's."""
    return AccessPlan((), Postings((ref,), NO_POSTINGS)), AccessPlan((), Folds((ref,)))


YEAR_SLICE = (AccessPlan((FarEnd("scheduled_date"),), Positions(NO_POSTINGS)),
              AccessPlan((FarEnd("scheduled_date"),), Folds(("scheduled_date",))))
CITY_DICE = AccessPlan((FarEnd("institution"), Scan("after an earlier filter")), Positions("several filters"))
RESIDENCE_DICE = AccessPlan((FarEnd("patient"), Scan("after an earlier filter")), Positions("several filters"))
# (first run, later runs), by operation id: an id that several use cases declare is the same query in each
EXPECTED = {
    "ScheduledAppointmentsInSpecificYear": YEAR_SLICE,
    "ScheduledAppointmentsBySpecificCityAndYear": (CITY_DICE, CITY_DICE),
    "ScheduledAppointmentsBySpecificPatientResidenceCityAndYear": (RESIDENCE_DICE, RESIDENCE_DICE),
    "AppointmentsByInstitutionCity": _through("institution"),
    "AppointmentsByInstitution": _through("institution"),
    "AppointmentsByGender": _through("patient"),
    "AppointmentsByAgeGroup": _through("patient"),
    "AppointmentsByScheduledYear": _through("scheduled_date"),
    # 4 institutions (with the null slot) times 4 request states: 16 members for 10 appointments
    "AppointmentsByRequestStateAndInstitution": (AccessPlan((), RowLoop("more members than fact rows")),) * 2,
}


@pytest.fixture(scope="module")
def session_model(medbuddy):
    """The corpus with the benchmark's Pivot and year roll-up."""
    bench = ROOT / "perfbench" / "bench_ops.cnlbi"
    model, diags = parse_cnlbi(bench.read_text(encoding="utf-8"), str(bench))
    assert not [d for d in diags if d.is_error]
    return merge_models([medbuddy, model])


def test_every_session_query_takes_its_planned_paths_on_three_runs(session_model):
    """The 13 corpus operations and the benchmark's Pivot and year roll-up,
    each on a fresh fixture cube: postings first, then member folds."""
    operations = [(uc.id, op.id) for uc in session_model.use_cases for op in uc.operations]
    assert len(operations) == 15 and {op for _, op in operations} == set(EXPECTED)
    for use_case, op in operations:
        cube, _ = load_cube(session_model, DATA_DIR)
        plan = plan_operation(session_model, use_case, op)
        seen, results = [], []
        for _ in range(3):
            seen.append(access_plan(cube, plan))
            results.append(run_plan(cube, plan, BINDS))
        first, later = EXPECTED[op]
        assert seen == [first, later, later], (use_case, op)
        assert results[0] == results[1] == results[2], (use_case, op)


def test_the_plan_is_made_for_every_run_and_follows_the_cube(medbuddy):
    """Building postings through one query changes what another takes."""
    cube, _ = load_cube(medbuddy, DATA_DIR)
    year = plan_operation(medbuddy, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear")
    by_year = query(medbuddy, FACT, group_by=["AppointmentRequest.scheduled_date.year"])
    assert access_plan(cube, by_year) == _through("scheduled_date")[0]
    run_plan(cube, year, BINDS)  # its far end builds the fact's scheduled_date postings
    assert access_plan(cube, by_year) == _through("scheduled_date")[1] and access_plan(cube, year) == YEAR_SLICE[1]
    assert folds_built(cube) == []  # until a query combines them


SNOWFLAKE_ROWS = {
    "Region": "id,name,area\ng1,North,1\ng2,South,\n",
    "City": "id,name,region\nc1,City c1,g1\nc2,City c2,\nc3,City c3,g2\n",
    "Patient": "id,age,residence\np1,1,c1\np2,2,c3\np3,3,\np4,1,c1\n",
    "Visit": "id,patient,cost\nv1,p1,1\nv2,p2,2\nv3,,3\nv4,p4,1\nv5,p1,2\nv6,p3,0\n",
}


def test_a_snowflake_walks_three_hops_from_the_fact_reference(tmp_path):
    """Visit -> Patient -> City -> Region: the filter and the grouping both
    go through ``Visit.patient``, the one reference that leaves the fact."""
    model, diags = parse_cnlbi(SNOWFLAKE, "snowflake.cnlbi")
    assert not [d for d in diags if d.is_error]
    for name, text in SNOWFLAKE_ROWS.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    (tmp_path / "manifest.toml").write_text("".join(f'{n} = "{n}.csv"\n' for n in SNOWFLAKE_ROWS), encoding="utf-8")
    cube, diags = load_cube(model, tmp_path)
    assert diags == []
    north = query(model, "Visit", [m.Predicate(m.AttributePath.parse("Region.name"), m.Literal("North"))])
    by_region = query(model, "Visit", group_by=["Region.name"])
    seen = []
    for _ in range(3):
        seen.append((access_plan(cube, north), access_plan(cube, by_region)))
        assert run_plan(cube, north).rows[0][0] == 3
        assert run_plan(cube, by_region).rows == ((None, 2), ("North", 3), ("South", 1))
    first = AccessPlan((FarEnd("patient"),), Positions(NO_POSTINGS)), AccessPlan((), Postings(("patient",), NO_POSTINGS))
    later = AccessPlan((FarEnd("patient"),), Folds(("patient",))), AccessPlan((), Folds(("patient",)))
    assert seen == [first, later, later]


def test_a_fact_smaller_than_its_first_target_scans_and_loops(medbuddy, tmp_path):
    """Three appointments against six Time rows: no far end, no members."""
    for path in DATA_DIR.iterdir():
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    fact_csv = tmp_path / f"{FACT}.csv"
    fact_csv.write_text("".join(fact_csv.read_text(encoding="utf-8").splitlines(keepends=True)[:4]), encoding="utf-8")
    cube, _ = load_cube(medbuddy, tmp_path)
    assert cube.table(FACT).size == 3 < cube.table("Time").size
    year = plan_operation(medbuddy, "AnalysisAppointmentsInstitutionOnNationalLevel", "ScheduledAppointmentsInSpecificYear")
    by_year = query(medbuddy, FACT, group_by=["AppointmentRequest.scheduled_date.year"])
    for _ in range(2):
        assert access_plan(cube, year) == AccessPlan((Scan("fact smaller than first target"),),
                                                     Positions("fact smaller than first target"))
        assert access_plan(cube, by_year) == AccessPlan((), RowLoop("more members than fact rows"))
        run_plan(cube, year, BINDS)
        run_plan(cube, by_year)


def test_a_decimal_sum_groups_through_postings_on_every_run(tmp_path):
    model, cube = _pivot_cube(tmp_path, summed="fee")
    plan = plan_operation(model, "Stays", "WardsByShift")
    seen = []
    for _ in range(3):
        seen.append(access_plan(cube, plan))
        run_plan(cube, plan)
    refs = ("ward", "shift")
    assert seen[0] == AccessPlan((), Postings(refs, NO_POSTINGS))
    assert seen[1] == seen[2] == AccessPlan((), Postings(refs, "Decimal SUM or AVERAGE"))


def test_a_key_or_filter_without_a_hop_reads_every_position(medbuddy, cube):
    """A fact column as the key or the filter, no key, no filter, an empty fact."""
    late = m.Predicate(m.AttributePath.parse("actual_response_time"), m.Literal(12))
    count = [measure("Rows", m.Aggregate("COUNT", m.AttributePath.parse("id")))]
    cases = {
        "key on a fact column": (query(medbuddy, FACT, group_by=["actual_response_time"]),
                                 AccessPlan((), RowLoop("key not read through a fact reference"))),
        "grand total": (query(medbuddy, FACT, group_by=()), AccessPlan((), RowLoop("no group keys"))),
        "filter on a fact column": (query(medbuddy, FACT, [late], measures=count),
                                    AccessPlan((Scan("no hop leaves the fact"),), Positions("no hop leaves the fact"))),
        "no filter": (query(medbuddy, FACT, measures=count), AccessPlan((), Positions("no filter"))),
    }
    for name, (plan, expected) in cases.items():
        for _ in range(2):
            assert access_plan(cube, plan) == expected, name
            run_plan(cube, plan)


def test_an_empty_fact_groups_in_the_row_loop(medbuddy, tmp_path):
    for path in DATA_DIR.iterdir():
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    fact_csv = tmp_path / f"{FACT}.csv"
    fact_csv.write_text(fact_csv.read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
    cube, _ = load_cube(medbuddy, tmp_path)
    plan = query(medbuddy, FACT, group_by=["Institution.city"])
    assert access_plan(cube, plan) == AccessPlan((), RowLoop("empty fact")) and run_plan(cube, plan).rows == ()
