"""Seeded, deterministic benchmark inputs, cached under ``build/perfbench``.

Two generators:

* ``make_package`` writes a MEDBuddy data package (manifest + six CSVs) with
  ``facts`` appointment requests drawn from the model's real domains.
* ``make_spec`` writes a compilation unit of ``areas`` subject areas, half
  CNL-BI and half ASL, each a corpus rendering with every declared identifier
  suffixed by the area index. Every area is also written in the other syntax
  under ``alt/`` so that the two renderings can be compared.

Both return the output directory. Output is keyed by seed and size; a
complete directory is reused, so generation stays out of every timed run.
Only the standard library is used, and nothing here imports bispec, except
that ``make_spec`` lists declared identifiers through the parsers it is
given.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import random
import re
import shutil
import uuid
from pathlib import Path

GENDERS = ("Male", "Female")
STATES = ("Booked", "Held", "Cancelled")
STATE_WEIGHTS = (0.2, 0.6, 0.2)
INSTITUTION_TYPES = ("HealthCentre", "Hospital")
YEARS = (2021, 2022, 2023, 2024)
CITIES = 100
INSTITUTIONS = 80
PATIENTS = 20_000
ZIPF_S = 1.1
KEEP_PACKAGES = 4

_DONE = "DONE"


def _uuid(rng: random.Random) -> str:
    return str(uuid.UUID(int=rng.getrandbits(128), version=4))


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _prune(parent: Path, keep: Path) -> None:
    """Keep the most recently generated packages; they are 20 MB each."""
    done = sorted(
        (p for p in parent.iterdir() if (p / _DONE).exists() and p != keep),
        key=lambda p: (p / _DONE).stat().st_mtime,
    )
    for old in done[: max(0, len(done) - (KEEP_PACKAGES - 1))]:
        shutil.rmtree(old, ignore_errors=True)


def make_package(root: Path, seed: int, facts: int) -> Path:
    """Write (or reuse) the seeded package with ``facts`` fact rows."""
    out = root / "build" / "perfbench" / "data" / f"facts{facts}-seed{seed}"
    if (out / _DONE).exists():
        return out
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rng = random.Random(f"package:{seed}:{facts}")

    city_ids = [_uuid(rng) for _ in range(CITIES)]
    _write_csv(
        out / "City.csv",
        ("id", "latitude", "longitude", "name"),
        (
            (cid, f"{rng.uniform(36.9, 42.1):.6f}", f"{rng.uniform(-9.5, -6.2):.6f}", f"City {i:03d}")
            for i, cid in enumerate(city_ids)
        ),
    )

    institution_ids = [_uuid(rng) for _ in range(INSTITUTIONS)]
    _write_csv(
        out / "Institution.csv",
        ("id", "code", "name", "latitude", "longitude", "city", "type"),
        (
            (
                iid,
                f"I{i:03d}",
                f"Institution {i:03d}",
                f"{rng.uniform(36.9, 42.1):.6f}",
                f"{rng.uniform(-9.5, -6.2):.6f}",
                rng.choice(city_ids),
                rng.choice(INSTITUTION_TYPES),
            )
            for i, iid in enumerate(institution_ids)
        ),
    )

    patient_ids = [_uuid(rng) for _ in range(PATIENTS)]
    _write_csv(
        out / "Patient.csv",
        ("id", "nhs_number", "age", "name", "gender", "residence"),
        (
            (pid, 100_000_000 + i, rng.randrange(100), f"Patient {i:05d}", rng.choice(GENDERS), rng.choice(city_ids))
            for i, pid in enumerate(patient_ids)
        ),
    )

    state_ids = [_uuid(rng) for _ in STATES]
    _write_csv(
        out / "RequestState.csv",
        ("id", "is_final", "is_initial", "name"),
        (
            (sid, "false" if name == "Booked" else "true", "true" if name == "Booked" else "false", name)
            for sid, name in zip(state_ids, STATES)
        ),
    )

    days = []
    day = dt.date(YEARS[0], 1, 1)
    while day.year <= YEARS[-1]:
        days.append(day)
        day += dt.timedelta(days=1)
    time_ids = [_uuid(rng) for _ in days]
    _write_csv(
        out / "Time.csv",
        ("id", "date", "day", "month", "quarter", "semester", "year"),
        (
            (tid, d.isoformat(), d.day, d.month, (d.month - 1) // 3 + 1, 1 if d.month <= 6 else 2, d.year)
            for tid, d in zip(time_ids, days)
        ),
    )

    # Zipf-drawn institutions give uneven group sizes beside the even genders.
    zipf = [1.0 / (rank + 1) ** ZIPF_S for rank in range(INSTITUTIONS)]
    cumulative = []
    total = 0.0
    for weight in zipf:
        total += weight
        cumulative.append(total)
    popularity = institution_ids[:]
    rng.shuffle(popularity)

    def fact_rows():
        for _ in range(facts):
            state = rng.choices(STATES, STATE_WEIGHTS)[0]
            scheduled = rng.randrange(len(days))
            institution = popularity[bisect.bisect_left(cumulative, rng.random() * total)]
            maximum = rng.randint(1, 90)
            if state == "Booked":
                closed_date, actual, closed = "", "", "false"
            else:
                closed_idx = min(len(days) - 1, scheduled + rng.randrange(61))
                closed_date, actual, closed = time_ids[closed_idx], rng.randrange(121), "true"
            yield (
                _uuid(rng),
                institution,
                rng.choice(patient_ids),
                state_ids[STATES.index(state)],
                time_ids[scheduled],
                closed_date,
                maximum,
                actual,
                closed,
            )

    _write_csv(
        out / "AppointmentRequest.csv",
        (
            "id",
            "institution",
            "patient",
            "state",
            "scheduled_date",
            "closed_date",
            "maximum_response_time",
            "actual_response_time",
            "closed",
        ),
        fact_rows(),
    )
    (out / "manifest.toml").write_text(
        "".join(
            f'{name} = "{name}.csv"\n'
            for name in ("City", "Time", "RequestState", "Patient", "Institution", "AppointmentRequest")
        ),
        encoding="utf-8",
    )
    (out / _DONE).write_text("", encoding="utf-8")
    _prune(out.parent, out)
    return out


def _column(path: Path, name: str) -> list[str]:
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        index = next(reader).index(name)
        return [record[index] for record in reader]


def package_binds(package: Path, seed: int) -> dict[str, str]:
    """``--bind`` values: a seeded year of ``Time``, and the city with the
    median number of facts among cities that host an institution.

    A median city keeps the city dice's share of the facts (and so its
    work) about the same for every seed despite the Zipf-drawn institutions.
    """
    rng = random.Random(f"binds:{seed}")
    years = sorted(set(_column(package / "Time.csv", "year")))
    city_of = dict(zip(_column(package / "Institution.csv", "id"), _column(package / "Institution.csv", "city")))
    facts = dict.fromkeys(city_of.values(), 0)
    for institution in _column(package / "AppointmentRequest.csv", "institution"):
        facts[city_of[institution]] += 1
    ranked = sorted((count, city) for city, count in facts.items())
    return {"year": rng.choice(years), "id": ranked[len(ranked) // 2][1]}


# ---------------------------------------------------------------------------
# Specification units
# ---------------------------------------------------------------------------


def declared_identifiers(model) -> list[str]:
    """Every identifier a parsed model declares at top level or in a container."""
    ids = set()
    for group in (model.enumerations, model.entities, model.clusters, model.actors, model.use_cases):
        ids.update(item.id for item in group)
    for container in model.ui_containers:
        ids.add(container.id)
        ids.update(comp.id for comp in container.components)
    ids.update(ext.id for ext in model.vocabulary_extensions)
    return sorted(ids)


def suffix_identifiers(text: str, identifiers: list[str], index: int) -> str:
    pattern = re.compile(r"\b(" + "|".join(re.escape(i) for i in identifiers) + r")\b")
    return pattern.sub(lambda match: f"{match.group(1)}_{index:02d}", text)


def make_spec(root: Path, seed: int, areas: int, corpus: dict[str, tuple[str, object]]) -> Path:
    """Write (or reuse) a unit of ``areas`` files, half in each syntax.

    ``corpus`` maps a syntax (``cnlbi`` / ``asl``) to its corpus text and
    parse function. The seed chooses which area indices use which syntax and
    the order of the files in the unit.
    """
    out = root / "build" / "perfbench" / "spec" / f"areas{areas}-seed{seed}"
    if (out / _DONE).exists():
        return out
    shutil.rmtree(out, ignore_errors=True)
    (out / "unit").mkdir(parents=True)
    (out / "alt").mkdir()
    rng = random.Random(f"spec:{seed}:{areas}")

    identifiers = {}
    for syntax, (text, parse) in corpus.items():
        model, _ = parse(text, f"corpus.{syntax}")
        identifiers[syntax] = declared_identifiers(model)

    indices = list(range(areas))
    rng.shuffle(indices)
    syntax_of = {index: ("cnlbi" if position < areas // 2 else "asl") for position, index in enumerate(indices)}
    order = list(range(areas))
    rng.shuffle(order)
    for position, index in enumerate(order):
        for syntax, (text, _) in corpus.items():
            rendered = suffix_identifiers(text, identifiers[syntax], index)
            folder = "unit" if syntax == syntax_of[index] else "alt"
            (out / folder / f"{position:02d}_area{index:02d}.{syntax}").write_text(rendered, encoding="utf-8")
    (out / _DONE).write_text("", encoding="utf-8")
    return out
