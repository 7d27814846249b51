"""Loader diagnostics on a package whose tables span several read chunks.

The loader reads each CSV in chunks of ``engine.CHUNK_ROWS`` records (2048).
This package puts faults on the first record, on both sides of the chunk
boundaries at records 4096 and 8192, and on the last record of ``Patient`` and
``AppointmentRequest``: a wrong field count, a bad Integer and Boolean, a
value outside its enumeration, null in a NOT NULL column, a duplicate primary
key, and dangling NOT NULL and nullable references. The ``(code, message)``
list, in order, must equal ``golden/load_chunks_diagnostics.json``, which was
recorded with the row-at-a-time loader that preceded the chunked one.

A chunk of plain lines is split as text (``engine._plain_columns``); from
the first chunk that is not plain, ``csv.reader`` reads the rest of the file.
Both must load the same tables and diagnostics.

The same package bounds the loader's transient memory against what the cube
keeps, and checks the postings built over its references.
"""

import csv
import io
import json
import random
import tracemalloc
from array import array
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bispec import engine
from bispec.engine import CHUNK_ROWS, load_cube, run_plan
from conftest import DATA_DIR, load_both_ways, loaded_column, query

GOLDEN = Path(__file__).parent / "golden" / "load_chunks_diagnostics.json"
BOUNDARIES = (4096, 8192)  # chunk boundaries whenever CHUNK_ROWS divides 4096
PATIENTS = 2 * 4096 + 37  # five chunks of 2048 records
FACTS = 3 * 4096 + 53  # seven chunks of 2048 records
DUPLICATE_AGE = 150  # the age on the second row of a duplicated patient key; no first row has it


def _faulty_rows(count: int) -> list[int]:
    """Record numbers (1-based, header excluded) that carry a fault."""
    return [1, BOUNDARIES[0], BOUNDARIES[0] + 1, BOUNDARIES[1], BOUNDARIES[1] + 1, count]


def _write(directory: Path, name: str, header, rows) -> None:
    with (directory / f"{name}.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def make_package(directory: Path) -> None:
    rng = random.Random(5)
    cities = [f"c{i}" for i in range(5)]
    times = [(f"t{i}", f"202{i % 4}-0{1 + i % 9}-1{i % 10}") for i in range(8)]
    _write(directory, "City", ("id", "latitude", "longitude", "name"),
           [(c, 38.5 + i, -9.0 + i, f"City {c}") for i, c in enumerate(cities)])
    _write(directory, "Time", ("id", "date", "day", "month", "quarter", "semester", "year"),
           [(t, d, int(d[8:]), int(d[5:7]), (int(d[5:7]) - 1) // 3 + 1, (int(d[5:7]) - 1) // 6 + 1, int(d[:4]))
            for t, d in times])
    _write(directory, "RequestState", ("id", "is_final", "is_initial", "name"),
           [("s0", "false", "true", "Booked"), ("s1", "false", "false", "Held"), ("s2", "true", "false", "Cancelled")])
    _write(directory, "Institution", ("id", "code", "name", "latitude", "longitude", "city", "type"),
           [("i0", "A", "Alpha", 38.1, -9.1, "c0", "Hospital"), ("i1", "B", "Beta", 41.1, -8.6, "c1", "Clinic"),
            ("i2", "C", "Gamma", 40.2, -8.4, "c2", "HealthCentre")])

    patients = [[f"p{i}", 1000 + i, rng.randint(0, 99), f"Patient {i}", rng.choice(("Male", "Female")),
                 rng.choice(cities)] for i in range(PATIENTS)]
    first, left, right, second, after, last = (n - 1 for n in _faulty_rows(PATIENTS))
    patients[first][4] = "Other"  # outside enumeration Gender
    patients[left][2] = "forty"  # bad Integer
    patients[right] = ["p3", 9999, DUPLICATE_AGE, "Duplicate", "Male", "c0"]  # duplicate key, loads
    patients[second][3] = ""  # null in NOT NULL name
    patients[after] = patients[after][:5]  # five fields, six expected
    patients[last][5] = "c404"  # dangling NOT NULL reference, loads
    _write(directory, "Patient", ("id", "nhs_number", "age", "name", "gender", "residence"), patients)
    bad = {first, left, second, after}
    good_patients = [row[0] for i, row in enumerate(patients) if i not in bad and i != last and i != right]

    facts = []
    for i in range(FACTS):
        closed = rng.random() < 0.6
        facts.append([f"f{i}", rng.choice(("i0", "i2")), rng.choice(good_patients), rng.choice(("s0", "s1", "s2")),
                      rng.choice(times)[0], rng.choice(times)[0] if closed else "", rng.randint(1, 60),
                      rng.randint(0, 90) if rng.random() < 0.8 else "", str(closed).lower()])
    first, left, right, second, after, last = (n - 1 for n in _faulty_rows(FACTS))
    facts[first] = facts[first] + ["extra"]  # ten fields, nine expected
    facts[left][6] = "12.5"  # bad Integer
    facts[right][0] = "f9"  # duplicate key, loads
    facts[second][5] = "t404"  # dangling nullable reference, loads
    facts[after][1] = ""  # null in NOT NULL reference
    facts[after][8] = "maybe"  # and a bad Boolean in the same record
    facts[last][1] = "i404"  # dangling NOT NULL reference, loads
    facts[last - 1][2] = "p3"  # the duplicated patient key, on a row that loads
    _write(directory, "AppointmentRequest", ("id", "institution", "patient", "state", "scheduled_date", "closed_date",
                                             "maximum_response_time", "actual_response_time", "closed"), facts)
    names = ("City", "Time", "RequestState", "Patient", "Institution", "AppointmentRequest")
    (directory / "manifest.toml").write_text("".join(f'{n} = "{n}.csv"\n' for n in names), encoding="utf-8")


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunks")
    make_package(directory)
    return directory


def test_package_spans_at_least_three_chunks():
    assert all(boundary % CHUNK_ROWS == 0 for boundary in BOUNDARIES)
    assert PATIENTS > 2 * BOUNDARIES[0] and FACTS > BOUNDARIES[1]


def test_diagnostics_across_chunk_boundaries_match_golden(medbuddy, package):
    _, diags = load_cube(medbuddy, package)
    assert [[d.code, d.message] for d in diags] == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_references_reach_the_first_row_of_a_duplicated_key_and_no_query_runs(medbuddy, package):
    cube, diags = load_cube(medbuddy, package)
    patients, facts = cube.table("Patient"), cube.table("AppointmentRequest")
    # both Patient rows with key p3 are kept; every fact reference to p3 holds the first one's position
    rows = [position for position, key in enumerate(patients.data["id"]) if key == "p3"]
    assert len(rows) == 2 and patients.data["age"][rows[1]] == DUPLICATE_AGE
    assert {position for position in facts.data["patient"] if position in rows} == {rows[0]}
    assert loaded_column(facts, "patient").count("p3") > 1
    # the duplicated fact key f9 keeps both rows too
    assert facts.data["id"].count("f9") == 2
    with pytest.raises(engine.EngineError) as exc:
        run_plan(cube, query(medbuddy, "AppointmentRequest", group_by=["Patient.age"]))
    assert str(exc.value) == f"the data package did not load: {diags[0].code} {diags[0].message}"


def test_a_second_load_peaks_at_most_2_3_times_what_the_cube_keeps(medbuddy, package):
    """What a load allocates and frees again (chunk text, cells, the key
    index of an entity nothing references) stays within 1.3 times the cube's
    own memory; the first load imports and caches what later loads share."""
    load_cube(medbuddy, package)
    tracemalloc.start()
    try:
        cube, diags = load_cube(medbuddy, package)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * kept, f"peak {peak / 2**20:.2f} MB, kept {kept / 2**20:.2f} MB: {peak / kept:.2f}x"


def test_row_positions_are_32_bit_below_2_31_rows():
    assert (engine._position_code(2**31 - 1), engine._position_code(2**31)) == ("i", "q")
    assert array("i").itemsize == 4 and array("i", [2**31 - 1])  # the largest offset of 2**31 - 1 rows fits
    with pytest.raises(OverflowError):
        array("i", [2**31])


def _counting_sort(ids: list, members: int) -> tuple[list, list]:
    """``(offsets, positions)`` of ``ids`` (a member id per row) by counting sort, in plain lists."""
    counts = [0] * members
    for member in ids:
        counts[member] += 1
    offsets = list(accumulate(counts, initial=0))
    positions, slots = [0] * len(ids), offsets[:-1]
    for position, member in enumerate(ids):
        positions[slots[member]] = position
        slots[member] += 1
    return offsets, positions


@pytest.mark.parametrize("code", ["i", "q"])
def test_postings_of_every_reference_are_its_counting_sort(medbuddy, package, monkeypatch, code):
    """Every reference of the fixture and of the chunk package, posted in the
    typecode their size picks ("i") and in the one past 2**31 rows ("q")."""
    if code == "q":
        monkeypatch.setattr(engine, "_position_code", lambda rows: "q")
    posted = 0
    for data_dir in (DATA_DIR, package):
        cube, _ = load_cube(medbuddy, data_dir)
        for table in cube.tables.values():
            for ref, target in table.targets.items():
                offsets, positions = table.posted((ref,))
                assert (offsets.typecode, positions.typecode) == (code, code)
                expected = _counting_sort(table.data[ref][:table.size], target.size + 1)
                assert (offsets.tolist(), positions.tolist()) == expected, (table.entity_id, ref)
                posted += 1
    assert posted == 2 * 7  # Patient.residence, Institution.city and the fact's five references, in each package


def test_split_and_csv_reader_load_the_fixture_and_the_chunk_package_alike(medbuddy, package):
    load_both_ways(medbuddy, DATA_DIR)
    load_both_ways(medbuddy, package)


# Pieces of cell text: none of PLAIN means anything to csv.reader; SPECIAL adds what does
PLAIN = ("a", "a", "é", " ", "#", "abcdefghijklmnop")
SPECIAL = PLAIN + (",", '"', "\n", "\r", "\0")


@st.composite
def csv_chunks(draw) -> tuple[int, str]:
    """A table width and CSV text: rows of that width (or, when ragged, of any
    width up to one more, a blank line included), each written raw or by
    ``csv.writer``, which quotes what needs it, and each ended by ``\\n``,
    ``\\r\\n`` or a lone ``\\r``; the last row may have no line end."""
    width = draw(st.integers(1, 4))
    field = st.lists(st.sampled_from(draw(st.sampled_from((PLAIN, PLAIN, SPECIAL)))), max_size=3).map("".join)
    ragged = draw(st.integers(0, 3)) == 0
    row = st.lists(field, min_size=0 if ragged else width, max_size=width + 1 if ragged else width)
    ends = st.sampled_from(draw(st.sampled_from((("\n",), ("\n",), ("\n", "\r\n", "\r")))))
    rows = draw(st.lists(st.tuples(row, st.booleans(), ends), min_size=1, max_size=8))
    if draw(st.booleans()):
        rows[-1] = rows[-1][:2] + ("",)
    text = ""
    for fields, quoted, end in rows:
        if quoted:
            out = io.StringIO()
            csv.writer(out, lineterminator=end).writerow(fields)
            text += out.getvalue()
        else:
            text += ",".join(fields) + end
    return width, text


@given(csv_chunks(), st.integers(4, 100))
def test_a_plain_chunk_splits_as_csv_reader_reads_it(chunk, limit):
    """``_plain_columns`` declines a chunk or gives the columns of the records
    ``csv.reader`` reads from it, under a field size limit that some lines pass."""
    width, text = chunk
    lines = list(io.StringIO(text, newline=""))  # as a file opened with newline="" yields them
    assume(lines)  # a chunk holds a line at least
    saved = csv.field_size_limit(limit)
    try:
        columns = engine._plain_columns(list(lines), width)
        try:
            records = list(csv.reader(lines))
        except csv.Error:
            records = None
    finally:
        csv.field_size_limit(saved)
    if columns is not None:
        assert records is not None and {len(record) for record in records} == {width}
        assert columns == [list(cells) for cells in zip(*records)]


@pytest.mark.parametrize("lines, width, columns", [
    (["a,b\n", "c,\n", ",d"], 2, [["a", "c", ""], ["b", "", "d"]]),
    (["a\n", "b\n"], 1, [["a", "b"]]),
    (['a,"b"\n'], 2, None),  # a quote
    (["a,b\r\n"], 2, None),  # a carriage return
    (["a,b\0\n"], 2, None),  # a NUL
    (["a\n", "\n", "b\n"], 1, None),  # a blank line, which csv.reader reads as no field
    (["a,b\n", "a\n"], 2, None),  # a short line
    (["a,b,c\n"], 2, None),  # a long line
])
def test_plain_columns_split_only_plain_lines(lines, width, columns):
    assert engine._plain_columns(list(lines), width) == columns


def test_a_line_over_the_field_limit_is_not_plain():
    limit = csv.field_size_limit()
    assert engine._plain_columns(["a," + "x" * (limit - 3) + "\n"], 2) is not None
    assert engine._plain_columns(["a," + "x" * (limit - 2) + "\n"], 2) is None


LONG = "x" * (csv.field_size_limit() + 1)
SPLIT_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"
# City names from c1 on, and the ENG002 their load gives; at two records a chunk, c1-c4 are split as plain text
LATER_CHUNKS = {
    "quoted comma and line end": (["a", "b", "c", "d", "Vila Nova,\nde Gaia", "f", "g"], None),
    "field over the limit": (["a", "b", "c", "d", LONG, "f"], f"City.csv line 6: {SPLIT_LIMIT}"),
    "field over the limit after a quoted line end": (["a", "b", "c", "d", "Vila Nova,\nde Gaia", "f", LONG],
                                                     f"City.csv line 9: {SPLIT_LIMIT}"),
}


@pytest.mark.parametrize("case", sorted(LATER_CHUNKS))
def test_a_later_chunk_that_is_not_plain_loads_as_csv_reader_reads_it(medbuddy, tmp_path, monkeypatch, case):
    names, failure = LATER_CHUNKS[case]
    data = tmp_path / "data"
    data.mkdir()
    for path in DATA_DIR.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    _write(data, "City", ("id", "latitude", "longitude", "name"), [(f"c{i}", 38.5, -9.1, name) for i, name in enumerate(names, 1)])
    monkeypatch.setattr(engine, "CHUNK_ROWS", 2)
    split = []  # per chunk of City lines: its first key, and whether it was split

    def plain_columns(lines, width, plain=engine._plain_columns):
        key = lines[0].split(",", 1)[0]
        columns = plain(lines, width)
        if key.startswith("c"):
            split.append((key, columns is not None))
        return columns

    monkeypatch.setattr(engine, "_plain_columns", plain_columns)
    cube, diags = load_both_ways(medbuddy, data)
    assert split == [("c1", True), ("c3", True), ("c5", False)]
    if failure is None:
        assert not diags and cube.table("City").data["name"] == names + [None]
    else:
        assert [d.message for d in diags if d.code == "ENG002"] == [failure] and "City" not in cube.tables
