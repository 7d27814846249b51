"""Loader diagnostics on a package whose tables span several read chunks.

The loader reads each CSV in chunks of ``engine.CHUNK_ROWS`` records. This
package puts faults on the first record, on both sides of the boundaries at
records 4096 and 8192, and on the last record of ``Patient`` and
``AppointmentRequest``: a wrong field count, a bad Integer and Boolean, a
value outside its enumeration, null in a NOT NULL column, a duplicate primary
key, and dangling NOT NULL and nullable references. The ``(code, message)``
list, in order, must equal ``golden/load_chunks_diagnostics.json``, which was
recorded with the row-at-a-time loader that preceded the chunked one.
"""

import csv
import json
import random
from pathlib import Path

import pytest

from bispec import model as m
from bispec.engine import CHUNK_ROWS, aggregate, load_cube, slice_view

GOLDEN = Path(__file__).parent / "golden" / "load_chunks_diagnostics.json"
BOUNDARIES = (4096, 8192)  # chunk boundaries whenever CHUNK_ROWS divides 4096
PATIENTS = 2 * 4096 + 37  # three chunks
FACTS = 3 * 4096 + 53  # four chunks
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


def test_queries_see_the_first_row_of_a_duplicated_key(medbuddy, package):
    cube, _ = load_cube(medbuddy, package)
    view = cube.view("AppointmentRequest")
    # both Patient rows with key p3 are kept; a reference to p3 reads the first
    assert sum(row["id"] == "p3" for row in cube.table("Patient").rows) == 2
    ages = [row[0] for row in aggregate(view, [m.AttributePath.parse("Patient.age")]).rows]
    assert DUPLICATE_AGE not in ages
    p3 = slice_view(view, m.Predicate(m.AttributePath.parse("patient"), m.Literal("p3")))
    first_age = next(row["age"] for row in cube.table("Patient").rows if row["id"] == "p3")
    assert [row[0] for row in aggregate(p3, [m.AttributePath.parse("Patient.age")]).rows] == [first_age]
    # the duplicated fact key f9 keeps both rows too
    assert sum(row["id"] == "f9" for row in cube.table("AppointmentRequest").rows) == 2
