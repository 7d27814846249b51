"""Engine, naive oracle and SQLite agree on seeded random MEDBuddy data packages.

Each seed writes a small package for the corpus model: nullable
``closed_date`` and ``actual_response_time``, negative and very large
decimals, duplicate dimension labels, and, for some seeds, a 0-row fact or
a single group. Every corpus operation plus the extra ones below runs in
the engine, in ``tests/oracle.py`` and as generated SQL in SQLite. The
engine runs each three times on one cube: through postings or a scan, then
the run that builds member folds, then through them.
"""

import csv
import random
from datetime import date, datetime, timedelta, timezone
from itertools import product

import pytest

import oracle
from bispec import check_model, merge_models, parse_cnlbi
from bispec import engine
from bispec import model as m
from bispec.engine import EngineError, load_cube, result_to_csv, run_plan, run_use_case
from bispec.generators import gen_olap_sql
from bispec.plan import Column, Filter, plan_operation
from conftest import (assert_rows_match_sql, folds_built, kept_positions, load_both_ways, loaded_column, measure, oracle_result,
                      postings_built, query, sqlite_from_cube)
from test_engine import ORDER_CASES, order_package

SEEDS = range(30)
FACT = "AppointmentRequest"

# Group keys the corpus does not use: a Decimal, a nullable date hop, a pivot.
EXTRA_OPS = """
UseCase DifferentialChecks is a BIAnalysis
  actor NationalLevelDataAnalyst,
  data source AppointmentRequest,
  performs
    OLAP Operation ByInstitutionLatitude is a Roll-up
      group by Institution.latitude
      described as rolls up the appointments per institution latitude,
    OLAP Operation ByClosedYear is a Roll-up
      group by AppointmentRequest.closed_date.year
      described as rolls up the appointments per year of closing,
    OLAP Operation StatesByInstitution is a Pivot
      swap Institution with RequestState
      described as pivots appointments per institution and request state,

  described as it widens the differential test.
"""

DECIMALS = (-1e17, -12345.678, -2.5, -0.25, 0.0, 0.5, 3.75, 1e15, 2e16)
INSTITUTION_NAMES = ("Hospital A", "Hospital B", "Centro C")  # few names: duplicate labels
# The package of this seed quotes commas in String cells (Institution names, and every Patient name but the
# first), so those files go through csv.reader while the others are split as plain text.
COMMA_SEED = 7
COMMA_NAMES = ("Hospital, A", "Hospital B", 'Centro "C", Norte')


@pytest.fixture(scope="module")
def model(medbuddy):
    extra, diags = parse_cnlbi(EXTRA_OPS, "differential.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    merged = merge_models([medbuddy, extra])
    assert not [d for d in check_model(merged).diagnostics if d.is_error]
    return merged


def _write(directory, entity_id, header, rows):
    with (directory / f"{entity_id}.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["" if v is None else v for v in row] for row in rows)


def make_package(seed: int, directory) -> dict:
    """Write one random package; returns the binds its Slices and Dices take."""
    rng = random.Random(seed)
    single = seed % 5 == 1  # one institution in one city: every roll-up has one group
    cities = [f"c{i}" for i in range(1 if single else rng.randint(1, 4))]
    institutions = [f"i{i}" for i in range(1 if single else rng.randint(1, 4))]
    patients = [f"p{i}" for i in range(rng.randint(1, 6))]
    states = [("s0", "Booked"), ("s1", "Held"), ("s2", "Cancelled")] + ([("s3", "Cancelled")] if seed % 3 == 0 else [])
    times = []
    for i in range(rng.randint(1, 6)):
        day = date(2021, 1, 1) + timedelta(days=rng.randrange(4 * 365))
        times.append((f"t{i}", day))
    facts = 0 if seed % 10 == 0 else rng.randint(1, 25)

    def decimal():
        return repr(rng.choice(DECIMALS) if rng.random() < 0.6 else round(rng.uniform(-90, 90), 4))

    _write(directory, "City", ("id", "latitude", "longitude", "name"),
           [(c, decimal(), decimal(), f"City {c}") for c in cities])
    _write(directory, "Time", ("id", "date", "day", "month", "quarter", "semester", "year"),
           [(t, d.isoformat(), d.day, d.month, (d.month - 1) // 3 + 1, (d.month - 1) // 6 + 1, d.year) for t, d in times])
    _write(directory, "RequestState", ("id", "is_final", "is_initial", "name"),
           [(s, str(name != "Booked").lower(), str(name == "Booked").lower(), name) for s, name in states])
    commas = seed == COMMA_SEED
    _write(directory, "Patient", ("id", "nhs_number", "age", "name", "gender", "residence"),
           [(p, 100 + i, rng.randint(0, 99), f"Patient{',' if commas and i else ''} {p}", rng.choice(("Male", "Female")),
             rng.choice(cities)) for i, p in enumerate(patients)])
    _write(directory, "Institution", ("id", "code", "name", "latitude", "longitude", "city", "type"),
           [(i, i.upper(), rng.choice(COMMA_NAMES if commas else INSTITUTION_NAMES), decimal(), decimal(),
             rng.choice(cities), rng.choice(("Hospital", "HealthCentre"))) for i in institutions])
    fact_rows = []
    for i in range(facts):
        closed = rng.random() < 0.7
        response = rng.choice((rng.randint(-50, 50), 10**12, -(10**12))) if rng.random() < 0.7 else None
        fact_rows.append((
            f"f{i}", rng.choice(institutions), rng.choice(patients), rng.choice(states)[0], rng.choice(times)[0],
            rng.choice(times)[0] if closed else None, rng.randint(0, 100), response, str(closed).lower(),
        ))
    _write(directory, FACT, ("id", "institution", "patient", "state", "scheduled_date", "closed_date",
                             "maximum_response_time", "actual_response_time", "closed"), fact_rows)
    names = ("City", "Time", "RequestState", "Patient", "Institution", FACT)
    (directory / "manifest.toml").write_text("".join(f'{n} = "{n}.csv"\n' for n in names), encoding="utf-8")
    years = sorted({d.year for _, d in times}) + [1999]  # 1999 has no data: an empty slice
    return {"year": str(rng.choice(years)), "id": rng.choice(cities)}


def _oracle_binds(binds):
    return {"year": int(binds["year"]), "id": binds["id"]}


def _three_runs(cube, query):
    """``query()`` three times on ``cube``, from no postings and no member
    folds: through postings or a scan, then the run that admits member folds
    (building them where the query can use them), then through them. All
    three print the same CSV; returns the first result."""
    for table in cube.tables.values():
        table.postings.clear()
        table.folds.clear()
    results = [query() for _ in range(3)]
    assert len({result_to_csv(result) for result in results}) == 1
    return results[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_oracle_and_sqlite_agree(model, tmp_path, seed):
    binds = make_package(seed, tmp_path)
    cube, diags = load_both_ways(model, tmp_path)
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    if seed == COMMA_SEED:
        assert all('",' in (tmp_path / f"{name}.csv").read_text(encoding="utf-8") for name in ("Institution", "Patient"))
    tables = oracle.load_tables(model, tmp_path)
    conn = sqlite_from_cube(model, cube)
    measures = [a for a in model.entity(FACT).measures if not isinstance(a.measure, m.OpaqueMeasure)]
    folded = set()
    try:
        for uc in model.use_cases:
            for op in uc.operations:
                context = (seed, uc.id, op.id)
                plan = plan_operation(model, uc.id, op.id)
                result = _three_runs(cube, lambda: run_use_case(cube, uc.id, op.id, binds))
                folded.update(folds_built(cube))
                db_rows = conn.execute(gen_olap_sql(model, uc.id, op.id), binds).fetchall()
                if op.kind in ("Slice", "Dice"):
                    kept = oracle.filter_rows(model, tables, FACT, op.where_clauses, _oracle_binds(binds))
                    expected = [oracle.eval_measure(model, tables, FACT, a.measure, kept) for a in measures]
                    assert result.rows == ((len(kept),) + tuple(expected),), context
                    assert len(db_rows) == len(kept), context
                    continue
                assert_rows_match_sql(result, db_rows, context)
                assert result == oracle_result(model, tables, plan), context
    finally:
        conn.close()
    # the year slices and roll-ups fold at Time, the roll-ups by an institution or patient attribute at their
    # first hop, and the pivot at each (institution, state) pair when the fact has at least as many rows + 1 as
    # there are pairs, null slots included; the latitude roll-up (a Decimal key) folds at Institution too
    fact = cube.table(FACT)
    refs = {ref: cube.table(target) for ref, target in (("closed_date", "Time"), ("institution", "Institution"),
                                                        ("patient", "Patient"), ("scheduled_date", "Time"))}
    expected = [(FACT, ref) for ref, target in refs.items() if fact.size and fact.size >= target.size]
    pairs = (cube.table("Institution").size + 1) * (cube.table("RequestState").size + 1)
    expected += [(FACT, "institution+state")] if fact.size and fact.size + 1 >= pairs else []
    assert sorted(folded) == sorted(expected), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_slice_of_a_slice_equals_the_dice_and_the_oracle(model, tmp_path, seed):
    binds = make_package(seed, tmp_path)
    cube, _ = load_cube(model, tmp_path)
    tables = oracle.load_tables(model, tmp_path)
    dices = [op for uc in model.use_cases for op in uc.operations if op.kind == "Dice"]
    assert dices
    for op in dices:  # a Dice's second filter tests the rows its first kept: a slice of a slice
        first, second = op.where_clauses
        plan = query(model, FACT, (first, second))
        expected = oracle_result(model, tables, plan, _oracle_binds(binds))
        assert run_plan(cube, plan, binds) == run_plan(cube, query(model, FACT, (second, first)), binds) == expected, (seed, op.id)
        kept = [row["id"] for row in oracle.filter_rows(model, tables, FACT, op.where_clauses, _oracle_binds(binds))]
        ids = cube.table(FACT).data["id"]
        assert [ids[p] for p in sorted(kept_positions(cube, plan, binds))] == kept, (seed, op.id)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_rollup_by_any_attribute_the_fact_reaches_matches_the_oracle(model, tmp_path, seed):
    """Each attribute of each entity the fact reaches, as the one key; a
    measure, which no row stores, reads as null, so it keys the grand total."""
    make_package(seed, tmp_path)
    cube, _ = load_cube(model, tmp_path)
    tables = oracle.load_tables(model, tmp_path)
    total = run_plan(cube, query(model, FACT, group_by=()))
    assert total == oracle_result(model, tables, query(model, FACT, group_by=())), seed
    for entity_id in model.hop_chains(FACT):
        for attr in model.entity(entity_id).attributes:
            plan = query(model, FACT, group_by=[m.AttributePath((entity_id, attr.id))])
            expected = tuple((None,) + row for row in total.rows) if attr.is_measure else oracle_result(model, tables, plan).rows
            assert run_plan(cube, plan).rows == expected, (seed, entity_id, attr.id)


def _through_references(model, fact_id):
    """Each fact reference read as its key, and every stored attribute of each
    entity reachable through it, as planned columns through that reference."""
    fact = model.entity(fact_id)
    columns = [Column(ref.id, (), ref) for ref in fact.dimension_refs]
    chains = [((ref.id, ref.dimension_target),) for ref in fact.dimension_refs]
    for chain in chains:  # grows while it is walked
        for attr in model.entity(chain[-1][1]).attributes:
            if not attr.is_measure:
                columns.append(Column(".".join(fk for fk, _ in chain) + "." + attr.id, chain, attr))
            if attr.dimension_target is not None and attr.dimension_target not in {target for _, target in chain}:
                chains.append(chain + ((attr.id, attr.dimension_target),))
    return columns


def _assert_whole_fact_filters_keep_what_the_oracle_keeps(model, cube, tables, fact_id, seed) -> list:
    """Filter every column of ``_through_references`` over the whole fact (the
    far-end walk, where it applies) for two values from the data, a value
    that matches nothing and null; it must keep the positions whose value the
    oracle reads as that value, and the slice's measures must be the
    oracle's over those rows: they combine member folds where the first
    reference has postings, which the far-end walk built. Returns the null
    filters' kept positions by column path."""
    fact = cube.table(fact_id)
    rows = tables[fact_id]
    nulls = {}
    for col in _through_references(model, fact_id):
        holder = cube.table(col.chain[-1][1]) if col.chain else fact
        drawn = list(dict.fromkeys(loaded_column(holder, col.attribute.id)))[:2]
        read = [oracle.follow(model, tables, fact_id, row, (col.chain, col.attribute.id)) for row in rows]
        for value in drawn + ["no such value", None]:
            plan = query(model, fact_id, [Filter(col, value)])
            kept = [position for position, held in enumerate(read) if held == value]
            assert sorted(kept_positions(cube, plan)) == kept, (seed, col.path, value)  # postings order
            cells = tuple(oracle.eval_measure(model, tables, fact_id, a.measure, [rows[p] for p in kept]) for a in plan.measures)
            assert run_plan(cube, plan).rows == ((len(kept),) + cells,), (seed, col.path, value)
        nulls[col.path] = kept
    return nulls


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_postings_keep_what_the_oracle_keeps(model, tmp_path, seed):
    """The null filter's hits include the null slot: the rows without a ``closed_date``."""
    make_package(seed, tmp_path)
    cube, _ = load_cube(model, tmp_path)
    fact = cube.table(FACT)
    nulls = _assert_whole_fact_filters_keep_what_the_oracle_keeps(model, cube, oracle.load_tables(model, tmp_path), FACT, seed)
    assert nulls["closed_date.id"] == [p for p, key in enumerate(loaded_column(fact, "closed_date")) if key is None]
    refs = {ref.id: cube.table(ref.dimension_target) for ref in model.entity(FACT).dimension_refs}
    walked = [ref for ref, target in refs.items() if fact.size >= target.size]
    beyond = {"institution": [("Institution", "city")], "patient": [("Patient", "residence")]}  # the second hops
    expected = [(FACT, ref) for ref in walked] + [pair for ref in walked for pair in beyond.get(ref, ())]
    assert postings_built(cube) == sorted(expected), seed


def _single_keys(model, fact_id) -> list:
    """Each column of ``_through_references`` and each fact column, as the one key."""
    stored = [Column(attr.id, (), attr) for attr in model.entity(fact_id).attributes if not attr.is_measure and not attr.dimension_target]
    return [[key] for key in _through_references(model, fact_id) + stored]


def _key_pairs(model, fact_id, seed, share=1) -> list:
    """Each ``share``-th ordered pair of columns of ``_through_references``
    (two keys through one reference included), starting at the ``seed``-th,
    so ``share`` seeds in a row take every pair once; then one pair with a
    fact column, which groups row by row."""
    through = _through_references(model, fact_id)
    pairs = [list(pair) for i, pair in enumerate(product(through, repeat=2)) if (i + seed) % share == 0]
    return pairs + [[through[0], _single_keys(model, fact_id)[-1][0]]]


def _assert_rollups_through_postings_print_what_the_oracle_prints(model, cube, tables, fact_id, seed, key_lists, plans=()) -> set:
    """A roll-up by each of ``key_lists`` (grouped by member where the keys
    allow, else row by row) and each pivot plan of ``plans`` print the
    oracle's CSV, three times over from no postings or member folds for the
    keys' references (postings, then the fold build, then through the
    folds). Returns ``postings_built`` as each left it, all together."""
    fact = cube.table(fact_id)
    built = set()
    for plan in [query(model, fact_id, group_by=keys) for keys in key_lists] + list(plans):
        refs = tuple(dict.fromkeys(map(engine._first_reference, plan.keys)))
        fact.postings.pop(refs, None)
        fact.folds.pop(refs, None)
        expected = result_to_csv(oracle_result(model, tables, plan))
        assert [result_to_csv(run_plan(cube, plan)) for _ in range(3)] == [expected] * 3, (seed, [key.path for key in plan.keys])
        built.update(postings_built(cube))
    return built


@pytest.mark.parametrize("seed", SEEDS)
def test_single_key_rollups_through_postings_print_what_the_oracle_prints(model, tmp_path, seed):
    """Only the fact's references whose target it outnumbers gain postings."""
    make_package(seed, tmp_path)
    cube, _ = load_cube(model, tmp_path)
    tables = oracle.load_tables(model, tmp_path)
    built = _assert_rollups_through_postings_print_what_the_oracle_prints(model, cube, tables, FACT, seed, _single_keys(model, FACT))
    fact = cube.table(FACT)
    refs = {ref.id: cube.table(ref.dimension_target) for ref in model.entity(FACT).dimension_refs}
    grouped = [(FACT, ref) for ref, target in refs.items() if fact.size and fact.size >= target.size]
    assert postings_built(cube) == sorted(built) == sorted(grouped), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_composite_rollups_through_postings_print_what_the_oracle_prints(model, tmp_path, seed):
    """Two keys and the pivot: only the pairs of references with at most as
    many members (pairs of rows, null slots included) as the fact has rows
    + 1 gain postings. Every ordered pair of keys runs on 6 of the 30
    packages."""
    make_package(seed, tmp_path)
    cube, _ = load_cube(model, tmp_path)
    plans = [plan_operation(model, uc.id, op.id) for uc in model.use_cases for op in uc.operations if op.kind == "Pivot"]
    key_lists = _key_pairs(model, FACT, seed, share=5)
    tables = oracle.load_tables(model, tmp_path)
    built = _assert_rollups_through_postings_print_what_the_oracle_prints(model, cube, tables, FACT, seed, key_lists, plans)
    fact = cube.table(FACT)
    refs = {ref.id: cube.table(ref.dimension_target) for ref in model.entity(FACT).dimension_refs}
    # the pivot's (institution, state), and each pair of keys read through references
    pairs = {("institution", "state")} | {
        tuple(map(engine._first_reference, keys)) for keys in key_lists
        if all(engine._first_reference(key) in refs for key in keys)}
    members = {(a, b): (refs[a].size + 1) * (refs[b].size + 1) for a, b in pairs if a != b}
    composite = {(FACT, f"{a}+{b}") for (a, b), space in members.items() if fact.size and space <= fact.size + 1}
    assert {pair for pair in built if "+" in pair[1]} == composite, seed


# A three-hop snowflake whose every reference can be null, so a null at any
# table reaches the null slots of the tables behind it.
SNOWFLAKE = """
DataEntity Region ("Region") is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull),
  area is an Integer
described as regions.

DataEntity City ("City") is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull),
  region refers to Dimension Region
described as cities.

DataEntity Patient ("Patient") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  age is an Integer (NotNull),
  residence refers to Dimension City
described as patients.

DataEntity Visit ("Visit") is a Transactional Fact with attributes
  id is a UUID (PrimaryKey),
  patient refers to Dimension Patient,
  cost is an Integer (NotNull),
  CountVisits is an Integer (operation COUNT(id))
described as visits.
"""


def make_snowflake_package(seed: int, directory) -> None:
    """Random Region, City, Patient and Visit rows; some references null."""
    rng = random.Random(seed)

    def ref(keys, null_share):
        return None if rng.random() < null_share else rng.choice(keys)

    regions = [f"g{i}" for i in range(rng.randint(1, 3))]
    cities = [f"c{i}" for i in range(rng.randint(1, 5))]
    patients = [f"p{i}" for i in range(rng.randint(1, 8))]
    _write(directory, "Region", ("id", "name", "area"),
           [(g, rng.choice(("North", "South")), rng.choice((None, 1, 2))) for g in regions])
    _write(directory, "City", ("id", "name", "region"), [(c, f"City {c}", ref(regions, 0.3)) for c in cities])
    _write(directory, "Patient", ("id", "age", "residence"),
           [(p, rng.randint(0, 3), ref(cities, 0.3)) for p in patients])
    _write(directory, "Visit", ("id", "patient", "cost"),
           [(f"v{i}", ref(patients, 0.2), rng.randint(0, 3)) for i in range(0 if seed % 10 == 0 else rng.randint(1, 25))])
    names = ("Region", "City", "Patient", "Visit")
    (directory / "manifest.toml").write_text("".join(f'{n} = "{n}.csv"\n' for n in names), encoding="utf-8")


@pytest.fixture(scope="module")
def snowflake():
    model, diags = parse_cnlbi(SNOWFLAKE, "snowflake.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    assert not [d for d in check_model(model).diagnostics if d.is_error]
    return model


@pytest.mark.parametrize("seed", SEEDS)
def test_far_end_filters_keep_what_the_oracle_keeps_through_three_nullable_hops(snowflake, tmp_path, seed):
    """Every 1-, 2- and 3-hop column and every reference read as its key; a
    null filter on a Region attribute keeps the visits whose walk to a Region
    meets a null anywhere."""
    make_snowflake_package(seed, tmp_path)
    cube, diags = load_cube(snowflake, tmp_path)
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    paths = [col.path for col in _through_references(snowflake, "Visit")]
    assert {"patient.residence.region.area", "patient.residence.region", "patient.residence"} <= set(paths)
    tables = oracle.load_tables(snowflake, tmp_path)
    nulls = _assert_whole_fact_filters_keep_what_the_oracle_keeps(snowflake, cube, tables, "Visit", seed)
    by_id = {entity: {row["id"]: row for row in rows} for entity, rows in tables.items()}

    def region(visit):
        patient = by_id["Patient"].get(visit["patient"])
        city = by_id["City"].get(patient and patient["residence"])
        return by_id["Region"].get(city and city["region"])

    assert nulls["patient.residence.region.name"] == [p for p, visit in enumerate(tables["Visit"]) if region(visit) is None]
    key_lists = _single_keys(snowflake, "Visit") + _key_pairs(snowflake, "Visit", seed)  # no more postings: one reference
    _assert_rollups_through_postings_print_what_the_oracle_prints(snowflake, cube, tables, "Visit", seed, key_lists)
    visits, patients = cube.table("Visit"), cube.table("Patient")
    expected = [("City", "region"), ("Patient", "residence"), ("Visit", "patient")] if visits.size >= patients.size else []
    assert postings_built(cube) == expected, seed


# ---------------------------------------------------------------------------
# Dangling references (ENG004)
# ---------------------------------------------------------------------------

DANGLING = {
    # reference -> (column, path through it, aggregate path through it)
    "patient": (2, "Patient.age", "Patient.age"),  # NOT NULL
    "closed_date": (5, "AppointmentRequest.closed_date.year", "closed_date"),  # nullable
}


@pytest.mark.parametrize("reference", sorted(DANGLING))
def test_dangling_reference_is_eng004_for_rollup_slice_and_min_max(model, tmp_path, reference):
    """The load reports the dangling key and resolves it to the null slot;
    then every query, one that does not read the reference too, raises the
    ENG030 that names that ENG004."""
    index, path, aggregated = DANGLING[reference]
    make_package(2, tmp_path)
    fact_csv = tmp_path / f"{FACT}.csv"
    lines = fact_csv.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[index] = "zz"
    lines.append(",".join(["f99"] + cells[1:]))
    fact_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cube, diags = load_both_ways(model, tmp_path)
    assert [d.code for d in diags if d.is_error] == ["ENG004"] and "'zz'" in cube.error.message
    fact = cube.table(FACT)
    assert fact.data["id"][fact.size - 1] == "f99" and fact.data[reference][fact.size - 1] == fact.targets[reference].size
    plans = {
        "roll-up": query(model, FACT, group_by=[path]),
        "slice": query(model, FACT, [m.Predicate(m.AttributePath.parse(path), m.Literal(2023))]),
        **{fn: query(model, FACT, measures=[measure(fn, m.Aggregate(fn, m.AttributePath.parse(aggregated)))]) for fn in ("MIN", "MAX")},
        "other roll-up": query(model, FACT, group_by=["Institution.city"]),
    }
    for name, plan in plans.items():
        with pytest.raises(EngineError) as exc:
            run_plan(cube, plan)
        assert (exc.value.code, str(exc.value)) == ("ENG030", f"the data package did not load: ENG004 {cube.error.message}"), name
    assert postings_built(cube) == folds_built(cube) == []


# ---------------------------------------------------------------------------
# DateTime and Time values at several UTC offsets
# ---------------------------------------------------------------------------

TEMPORAL = """
DataEntity Site ("Site") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  opened is a DateTime,
  shift is a Time
described as sites.

DataEntity Visit ("Visit") is a Transactional Fact with attributes
  id is a UUID (PrimaryKey),
  site refers to Dimension Site,
  arrived is a DateTime,
  slot is a Time,
  Visits is an Integer (operation COUNT(id)),
  FirstOpened is a DateTime (operation MIN(Site.opened)),
  LastOpened is a DateTime (operation MAX(Site.opened)),
  EarliestShift is a Time (operation MIN(Site.shift)),
  LatestShift is a Time (operation MAX(Site.shift)),
  FirstArrival is a DateTime (operation MIN(arrived)),
  LastArrival is a DateTime (operation MAX(arrived)),
  EarliestSlot is a Time (operation MIN(slot)),
  LatestSlot is a Time (operation MAX(slot))
described as visits.

Actor Analyst "Analyst" is a User described as an analyst.

UseCase Visits is a BIAnalysis
  actor Analyst,
  data source Visit,
  performs
    OLAP Operation ByOpened is a Roll-up
      group by Site.opened
      described as rolls up the visits per opening instant,
    OLAP Operation ByShift is a Roll-up
      group by Site.shift
      described as rolls up the visits per shift time,
    OLAP Operation ByArrival is a Roll-up
      group by Visit.arrived
      described as rolls up the visits per arrival instant,
    OLAP Operation BySlot is a Roll-up
      group by Visit.slot
      described as rolls up the visits per slot time,

  described as it shows the visits at their instants.
"""
OFFSETS = (timedelta(0), timedelta(hours=1), timedelta(hours=-5, minutes=-30), timedelta(hours=13, minutes=45),
           timedelta(hours=-12))


def make_temporal_package(seed: int, directory) -> None:
    """Random sites and visits whose DateTime and Time cells write one of a
    few instants around midnight UTC, some with microseconds, at a random
    offset, so local times wrap past midnight; the first two cells of each
    column hold one instant at two offsets, and a later cell may be null."""
    rng = random.Random(seed)
    start = datetime(2023, 12, 31, 22, 30, tzinfo=timezone.utc)
    instants = [start + timedelta(minutes=rng.randrange(0, 240, 15), microseconds=rng.choice((0, 0, 1, 500000)))
                for _ in range(4)]

    def column(count):
        """``(DateTime text, Time text)`` per cell: the instant at one offset."""
        cells = []
        for i in range(count):
            if i > 1 and rng.random() < 0.2:
                cells.append((None, None))
                continue
            offset = OFFSETS[i] if i < 2 else rng.choice(OFFSETS)
            local = (instants[0] if i < 2 else rng.choice(instants)).astimezone(timezone(offset))
            cells.append((local.isoformat(), local.timetz().isoformat()))
        return cells

    sites = [f"s{i}" for i in range(rng.randint(2, 5))]
    _write(directory, "Site", ("id", "opened", "shift"), [(s, *cells) for s, cells in zip(sites, column(len(sites)))])
    visits = rng.randint(2, 20)
    _write(directory, "Visit", ("id", "site", "arrived", "slot"),
           [(f"v{i}", None if rng.random() < 0.1 else rng.choice(sites), *cells) for i, cells in enumerate(column(visits))])
    (directory / "manifest.toml").write_text('Site = "Site.csv"\nVisit = "Visit.csv"\n', encoding="utf-8")


@pytest.fixture(scope="module")
def temporal():
    model, diags = parse_cnlbi(TEMPORAL, "temporal.cnlbi")
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    assert not [d for d in check_model(model).diagnostics if d.is_error]
    return model


@pytest.mark.parametrize("seed", range(10))
def test_temporal_rollups_agree_with_the_oracle_and_sqlite_at_utc(temporal, tmp_path, seed):
    """Each instant is one group and prints at UTC; groups sort by instant, as
    SQLite's ``ORDER BY`` sorts the UTC text, and MIN and MAX agree with its
    text comparison."""
    make_temporal_package(seed, tmp_path)
    cube, diags = load_cube(temporal, tmp_path)
    assert diags == [] and cube.error is None
    tables = oracle.load_tables(temporal, tmp_path)
    conn = sqlite_from_cube(temporal, cube)
    measures = [a.id for a in temporal.entity("Visit").measures]
    try:
        for op in temporal.use_case("Visits").operations:
            plan = plan_operation(temporal, "Visits", op.id)
            result = _three_runs(cube, lambda: run_use_case(cube, "Visits", op.id))
            assert_rows_match_sql(result, conn.execute(gen_olap_sql(temporal, "Visits", op.id)).fetchall(), (seed, op.id))
            expected = oracle.aggregate(temporal, tables, "Visit", tables["Visit"], [m.AttributePath.parse(plan.keys[0].path)])
            assert {row[:1]: row[1:] for row in result.rows} == {
                key: tuple(values[a] for a in measures) for key, values in expected.items()}, (seed, op.id)
            texts = [line.split(",")[0] for line in result_to_csv(result).splitlines()[1:]]
            assert all(text == "(null)" or text.endswith("+00:00") for text in texts), (seed, op.id)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Row order: no output depends on it
# ---------------------------------------------------------------------------


def _shuffled(source, target, seed: int | None) -> None:
    """A copy of the package at ``source`` in ``target`` whose every CSV holds
    its data rows in a seeded random order (reversed for seed None), its
    header first."""
    rng = random.Random(seed)
    target.mkdir()
    for path in sorted(source.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            header, *rows = text.splitlines(keepends=True)
            if seed is None:
                rows.reverse()
            else:
                rng.shuffle(rows)
            text = header + "".join(rows)
        (target / path.name).write_text(text, encoding="utf-8")


def _outputs(model, directory, binds) -> list[str]:
    """Every operation's CSV, three times over on one cube."""
    cube, diags = load_cube(model, directory)
    assert not [d for d in diags if d.is_error], [f"{d.code} {d.message}" for d in diags]
    operations = [(uc.id, op.id) for uc in model.use_cases for op in uc.operations]
    return [result_to_csv(run_use_case(cube, *operation, binds)) for _ in range(3) for operation in operations]


SHUFFLED = ([f"differential {seed}" for seed in range(1, 30, 4)] + [f"temporal {seed}" for seed in range(3)]
            + [f"order {case}" for case in sorted(ORDER_CASES)])


@pytest.mark.parametrize("package", SHUFFLED)
def test_shuffled_rows_change_no_byte_of_any_output(request, tmp_path, package):
    """Differential packages, temporal ones and each case of the order package
    of ``test_engine``, whose rows once decided a Decimal sum, a key's text or
    the text of a tied MIN or MAX."""
    kind, _, name = package.partition(" ")
    directory = tmp_path / "package"
    directory.mkdir()
    if kind == "order":
        made, binds = order_package(directory, name), {}
    elif kind == "temporal":
        made, binds = request.getfixturevalue("temporal"), {}
        make_temporal_package(int(name), directory)
    else:
        made, binds = request.getfixturevalue("model"), make_package(int(name), directory)
    expected = _outputs(made, directory, binds)
    for seed in (None, 0, 1, 2):
        _shuffled(directory, tmp_path / f"shuffled {seed}", seed)
        assert _outputs(made, tmp_path / f"shuffled {seed}", binds) == expected, seed
