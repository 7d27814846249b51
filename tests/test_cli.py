import csv
import io
import json
from pathlib import Path

import pytest

from bispec import engine, parse_cnlbi
from bispec.cli import main
from bispec.generators import GeneratorError, gen_olap_sql
from bispec.plan import EngineError, plan_operation
from conftest import CORPUS_ASL, CORPUS_CNLBI, DATA_DIR, folds_built


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("CNLBI_COLOR", "never")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_corpus_exits_zero(capsys):
    code, out, err = run(capsys, "check", str(CORPUS_CNLBI))
    assert code == 0
    assert out == ""  # artifacts only on stdout
    assert "schema shape: snowflake" in err


def test_check_asl_corpus_exits_zero(capsys):
    code, _, _ = run(capsys, "check", str(CORPUS_ASL))
    assert code == 0


def test_check_failing_document_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.cnlbi"
    bad.write_text("DataEntity X is a Wibble Dimension with attributes a is a UUID (PrimaryKey).\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "CNL011" in err


def test_check_reports_numeric_character_as_invalid(capsys, tmp_path):
    bad = tmp_path / "bad.cnlbi"
    bad.write_text("Actor A is a User ².\n")
    code, _, err = run(capsys, "check", str(bad), "--json")
    assert code == 1
    lines = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert any(entry["code"] == "CNL002" and (entry["line"], entry["col"]) == (1, 19) for entry in lines)


def test_check_reports_a_reference_to_an_opaque_measure(capsys, tmp_path):
    # AvgWaitingTime's expression tag does not parse (ASL022), so CancellationRate cannot be evaluated
    source = CORPUS_ASL.read_text(encoding="utf-8")
    spec = tmp_path / "opaque.asl"
    spec.write_text(
        source.replace('value "average(actual_response_time)"', 'value "average((("').replace(
            "(CountCancelledAppointments / CountAppointments)", "(AvgWaitingTime / CountAppointments)"
        )
    )
    code, _, err = run(capsys, "check", str(spec), "--json")
    assert code == 1
    entries = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert [(e["code"], e["line"], e["message"]) for e in entries if e["severity"] == "error"] == [
        ("SEM010", 135, "in measure AppointmentRequest.CancellationRate: opaque measure 'average(((' cannot be evaluated")
    ]


def test_parse_emits_model_json(capsys):
    code, out, _ = run(capsys, "parse", str(CORPUS_CNLBI), "--emit", "model-json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "bispec-model"
    assert len(payload["entities"]) == 6


def test_json_diagnostics_are_machine_readable(capsys, tmp_path):
    bad = tmp_path / "bad.cnlbi"
    bad.write_text("DataEntity X is a Wibble Dimension with attributes a is a UUID (PrimaryKey).\n")
    code, _, err = run(capsys, "check", str(bad), "--json")
    assert code == 1
    lines = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert any(entry["code"] == "CNL011" and entry["line"] for entry in lines)


def test_convert_round_trips_through_stdin(capsys, monkeypatch, medbuddy):
    from bispec import canonicalize, parse_asl

    code, converted, _ = run(capsys, "convert", str(CORPUS_CNLBI), "--to", "asl")
    assert code == 0

    # pipe the conversion back in via '-' with an explicit syntax
    monkeypatch.setattr("sys.stdin", io.StringIO(converted))
    code, out, err = run(capsys, "parse", "-", "--syntax", "asl", "--emit", "model-json")
    assert code == 0

    reparsed, _ = parse_asl(converted)
    assert canonicalize(reparsed) == canonicalize(medbuddy)


def test_stdin_requires_explicit_syntax(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.raises(SystemExit) as exc:
        main(["parse", "-"])
    assert exc.value.code == 2


NOT_UTF8 = "Actor A is a User.\n// Lu\xeds\n".encode("latin-1")
BOM = "\ufeff".encode("utf-8")
UNREADABLE_SPECS = {
    "not UTF-8": ("bad.cnlbi", "CNL000", "bad.cnlbi line 2: not UTF-8 text"),
    "not UTF-8 after a BOM": ("bom.cnlbi", "CNL000", "bom.cnlbi line 2: not UTF-8 text"),
    "stdin not UTF-8": ("-", "ASL000", "<stdin> line 2: not UTF-8 text"),
    "missing": ("missing.asl", "ASL000", "missing.asl: No such file or directory"),
    "directory": ("folder.cnlbi", "CNL000", "folder.cnlbi: Is a directory"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_SPECS))
def test_unreadable_spec_files_are_coded_diagnostics(capsys, monkeypatch, tmp_path, case):
    name, expected_code, message = UNREADABLE_SPECS[case]
    path = name if name == "-" else str(tmp_path / name)
    if case.startswith("not UTF-8"):
        (tmp_path / name).write_bytes((BOM if "BOM" in case else b"") + NOT_UTF8)
    elif case == "directory":
        (tmp_path / name).mkdir()
    syntax = "asl" if name == "-" else "auto"
    for command in (
        ["parse"],
        ["convert", "--to", "asl"],
        ["gen", "--out-dir", str(tmp_path / "out")],
        ["olap", "--data", str(DATA_DIR), "--usecase", "U", "--op", "O"],
    ):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
        code, out, err = run(capsys, *command, path, "--syntax", syntax, "--json")
        assert code == 1 and out == "", command
        entries = [json.loads(line) for line in err.splitlines()]
        assert [(e["code"], e["severity"]) for e in entries] == [(expected_code, "error")], command
        assert entries[0]["message"].endswith(message), command


def test_spec_file_and_stdin_may_start_with_a_bom(capsys, monkeypatch, tmp_path):
    marked = tmp_path / "medbuddy.cnlbi"
    marked.write_bytes(BOM + CORPUS_CNLBI.read_bytes())
    code, out, err = run(capsys, "check", str(marked), "--json")
    assert (code, out, err.replace(str(marked), str(CORPUS_CNLBI))) == run(capsys, "check", str(CORPUS_CNLBI), "--json")
    piped = []
    for prefix in (BOM, b""):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(prefix + CORPUS_CNLBI.read_bytes()), encoding="utf-8"))
        piped.append(run(capsys, "check", "-", "--syntax", "cnlbi", "--json"))
    assert piped[0] == piped[1] and piped[0][0] == 0


def test_fmt_is_idempotent(capsys, tmp_path):
    code, once, _ = run(capsys, "fmt", str(CORPUS_CNLBI))
    assert code == 0
    again = tmp_path / "canonical.cnlbi"
    again.write_text(once)
    code, twice, _ = run(capsys, "fmt", str(again))
    assert code == 0
    assert once == twice


def test_gen_writes_artifacts_inside_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "generated"
    code, _, _ = run(capsys, "gen", str(CORPUS_CNLBI), "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "schema.sql").exists()
    assert (out_dir / "dashboard.json").exists()
    assert (out_dir / "requirements.md").exists()
    queries = sorted(p.name for p in (out_dir / "queries").iterdir())
    assert "AnalysisAppointmentsInstitutionOnNationalLevel__AppointmentsByInstitutionCity.sql" in queries
    assert len(queries) == 13  # every structured operation
    # nothing written outside --out-dir
    assert sorted(p.name for p in tmp_path.iterdir()) == ["generated"]


def test_gen_only_filter(capsys, tmp_path):
    out_dir = tmp_path / "docs"
    code, _, _ = run(capsys, "gen", str(CORPUS_CNLBI), "--only", "doc", "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "requirements.md").exists()
    assert not (out_dir / "schema.sql").exists()


REFERENCE_CYCLE = """
DataEntity A is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  b refers to Dimension B (NotNull).
DataEntity B is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  a refers to Dimension A (NotNull).
DataEntity F is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  a refers to Dimension A (NotNull).
"""


def test_gen_reports_a_reference_cycle_as_gen001(capsys, tmp_path):
    spec = tmp_path / "cycle.cnlbi"
    spec.write_text(REFERENCE_CYCLE)
    cycle = ("SEM006", "warning", "reference cycle among entities: A, B; gen cannot order their tables")
    code, out, err = run(capsys, "check", str(spec), "--json")
    assert code == 0  # the engine loads a cycle, so the checks only warn; the DDL refuses it
    assert [(e["code"], e["severity"], e["message"]) for e in map(json.loads, err.splitlines()[:-1])] == [cycle]
    code, out, err = run(capsys, "gen", str(spec), "--out-dir", str(tmp_path / "out"), "--json")
    assert code == 1 and out == ""
    entries = [json.loads(line) for line in err.splitlines()]
    assert [(e["code"], e["severity"], e["message"]) for e in entries] == [
        cycle, ("GEN001", "error", "reference cycle among entities: A, B")  # F only sits behind the cycle
    ]


PIVOT_SHADOWING = """
DataEntity Person is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull).
DataEntity State is a Reference Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull).
DataEntity Patient is a Reference Dimension with attributes
  id is a UUID (PrimaryKey).
DataEntity Visit is a Transaction Fact with attributes
  id is a UUID (PrimaryKey),
  Patient refers to Dimension Person (NotNull),
  state refers to Dimension State (NotNull),
  Visits is an Integer (operation COUNT(id)).
Actor A is a User.
UseCase U is a BIAnalysis
  actor A,
  data source Visit,
  performs
    OLAP Operation P is a Pivot
      swap Person with State.
"""


def test_pivot_axis_reads_the_fact_reference_not_a_same_named_entity(capsys, tmp_path):
    # Visit's reference named Patient points at Person; the entity Patient has no name
    spec = tmp_path / "shadow.cnlbi"
    spec.write_text(PIVOT_SHADOWING)
    data = tmp_path / "data"
    data.mkdir()
    (data / "Person.csv").write_text("id,name\np1,Ann\np2,Bob\n")
    (data / "State.csv").write_text("id,name\ns1,Open\ns2,Closed\n")
    (data / "Patient.csv").write_text("id\nx1\n")
    (data / "Visit.csv").write_text("id,Patient,state\nv1,p1,s1\nv2,p1,s2\nv3,p2,s1\n")
    (data / "manifest.toml").write_text("".join(f'{n} = "{n}.csv"\n' for n in ("Person", "State", "Patient", "Visit")))

    code, _, err = run(capsys, "check", str(spec))
    assert code == 0 and "error" not in err
    code, out, err = run(capsys, "olap", str(spec), "--data", str(data), "--usecase", "U", "--op", "P", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["state.name,Patient.name,Visits", "Closed,Ann,1", "Open,Ann,1", "Open,Bob,1"]
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "gen", str(spec), "--out-dir", str(out_dir))
    assert (code, err) == (0, "")
    sql = (out_dir / "queries" / "U__P.sql").read_text()
    assert 'JOIN "Person" "j_Patient" ON "f"."Patient" = "j_Patient"."id"' in sql
    assert '"j_Patient"."name" AS "Patient.name"' in sql


# Where an output write fails: the blocked path, relative to the output directory, and the reason.
UNWRITABLE_OUTPUTS = {
    "out-dir under a file": ("", "Not a directory"),
    "queries is a file": ("queries", "File exists"),
    "schema.sql is a directory": ("schema.sql", "Is a directory"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_gen_write_failures_are_coded_diagnostics(capsys, tmp_path, case):
    blocked, reason = UNWRITABLE_OUTPUTS[case]
    out_dir = tmp_path / "out"
    if case == "out-dir under a file":
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "out"
    elif case == "queries is a file":
        out_dir.mkdir()
        (out_dir / "queries").write_text("")
    else:
        (out_dir / "schema.sql").mkdir(parents=True)
    code, out, err = run(capsys, "gen", str(CORPUS_CNLBI), "--out-dir", str(out_dir), "--json")
    assert code == 1 and out == ""
    entries = [json.loads(line) for line in err.splitlines()]
    failures = [e for e in entries if e["severity"] == "error"]
    assert [(e["code"], e["message"]) for e in failures] == [("GEN020", f"cannot write {out_dir / blocked}: {reason}")]


def test_olap_runs_a_bound_slice(capsys):
    code, out, _ = run(
        capsys,
        "olap", str(CORPUS_CNLBI),
        "--data", str(DATA_DIR),
        "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel",
        "--op", "ScheduledAppointmentsInSpecificYear",
        "--bind", "year=2023",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.startswith("row_count,CountAppointments")
    assert row.startswith("8,8,2,")


def test_olap_without_binding_exits_one(capsys):
    cases = [([], ["year"]), (["--bind", "year=abc"], ["year", "abc", "Integer"])]  # unbound; not an Integer
    for binds, named in cases:
        code, _, err = run(
            capsys,
            "olap", str(CORPUS_CNLBI),
            "--data", str(DATA_DIR),
            "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel",
            "--op", "ScheduledAppointmentsInSpecificYear",
            *binds,
        )
        assert code == 1, binds
        assert "ENG010" in err and all(word in err for word in named), err


@pytest.mark.parametrize(
    "op, used, unused, takes",
    [
        ("ScheduledAppointmentsInSpecificYear", ["--bind", "year=2023"], ["--bind", "foo=1"], ("foo", "takes year (Time.year)")),
        # the name takes precedence, so the path's value is dropped
        ("ScheduledAppointmentsInSpecificYear", ["--bind", "year=2023"], ["--bind", "Time.year=1"], ("Time.year", "takes year (Time.year)")),
        ("AppointmentsByInstitutionCity", [], ["--bind", "year=1"], ("year", "takes no parameters")),
    ],
    ids=["slice", "slice-name-and-path", "roll-up"],
)
def test_olap_warns_about_a_binding_no_parameter_takes(capsys, op, used, unused, takes):
    argv = ["olap", str(CORPUS_CNLBI), "--data", str(DATA_DIR), "--format", "csv",
            "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel", "--op", op, *used]
    _, expected, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, *unused, "--json")
    assert (code, out) == (0, expected)  # the result does not change
    entries = [json.loads(line) for line in err.splitlines()]
    key, which = takes
    message = f"--bind {key} is not used by operation {op}, which {which}"
    assert [(e["severity"], e["message"]) for e in entries if e["code"] == "ENG011"] == [("warning", message)]


def test_json_flag_makes_every_stderr_line_json(capsys, tmp_path, monkeypatch):
    """A bad binding value, a malformed ``--bind`` and an unknown ``--op`` each
    end as one coded error and exit 1; the last two are found before the load."""
    olap = ("olap", str(CORPUS_CNLBI), "--data", str(DATA_DIR), "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel")
    runs = [
        (*olap, "--op", "ScheduledAppointmentsInSpecificYear", "--bind", "year=abc"),
        (*olap, "--op", "ScheduledAppointmentsInSpecificYear", "--bind", "year"),
        (*olap, "--op", "NoSuchOperation", "--bind", "year=2023"),
        ("gen", str(CORPUS_ASL), "--out-dir", str(tmp_path / "generated")),
    ]
    errors = {
        "year=abc": ("ENG010", "parameter 'year' expects Integer, got 'abc'"),
        "year": ("ENG010", "--bind expects key=value, got 'year'"),
        "year=2023": ("ENG030", "use case AnalysisAppointmentsInstitutionOnNationalLevel has no operation 'NoSuchOperation'"),
    }
    loads = []
    load_cube = engine.load_cube
    monkeypatch.setattr(engine, "load_cube", lambda *args: loads.append(args[1]) or load_cube(*args))
    for argv in runs:
        loads.clear()
        code, _, err = run(capsys, *argv, "--json")
        entries = [json.loads(line) for line in err.splitlines()]
        assert entries, argv
        if argv[0] == "olap":
            assert code == 1 and [(e["code"], e["message"]) for e in entries if e["severity"] == "error"] == [errors[argv[-1]]]
            assert len(loads) == (argv[-1] == "year=abc"), argv
        else:
            skipped = [e for e in entries if e["message"].startswith("skipping ")]
            assert len(skipped) == 13 and {(e["code"], e["severity"]) for e in skipped} == {("GEN010", "warning")}


def test_olap_table_format(capsys):
    code, out, _ = run(
        capsys,
        "olap", str(CORPUS_CNLBI),
        "--data", str(DATA_DIR),
        "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel",
        "--op", "AppointmentsByInstitutionCity",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("Institution.city")
    assert any(line.startswith("c1") for line in out.splitlines())


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["olap"])  # missing required arguments
    assert exc.value.code == 2


# `olap --format csv` output for every corpus operation on the fixture package;
# a change to the engine must keep it byte-identical.
GOLDEN_OLAP = sorted((Path(__file__).parent / "golden" / "olap").glob("*.csv"))


def test_golden_olap_results_cover_every_corpus_operation(medbuddy):
    expected = {f"{uc.id}__{op.id}.csv" for uc in medbuddy.use_cases for op in uc.operations}
    assert {path.name for path in GOLDEN_OLAP} == expected


@pytest.mark.parametrize("golden", GOLDEN_OLAP, ids=lambda path: path.stem)
def test_olap_csv_matches_golden_result(capsys, golden):
    usecase, _, op = golden.stem.partition("__")
    code, out, _ = run(
        capsys,
        "olap", str(CORPUS_CNLBI),
        "--data", str(DATA_DIR),
        "--usecase", usecase,
        "--op", op,
        "--bind", "year=2023",
        "--bind", "id=c2",
        "--format", "csv",
    )
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_a_session_prints_the_golden_results_from_member_folds(medbuddy):
    """Three passes over every corpus operation on one cube, as a session runs
    them: the later passes combine member folds, and print the goldens too."""
    cube, _ = engine.load_cube(medbuddy, DATA_DIR)
    ops = [path.stem.partition("__")[::2] for path in GOLDEN_OLAP]
    for _ in range(3):
        out = [engine.result_to_csv(engine.run_use_case(cube, uc, op, {"year": "2023", "id": "c2"})) for uc, op in ops]
        assert out == [path.read_text(encoding="utf-8") for path in GOLDEN_OLAP]
    assert folds_built(cube) == [("AppointmentRequest", ref) for ref in ("institution", "patient", "scheduled_date")]


# `gen` and `parse --emit model-json` output for each corpus file, recorded
# before the canonical writer and hop-chain memo changed; each byte must stay.
GOLDEN = Path(__file__).parent / "golden"
CORPUS_FILES = [CORPUS_CNLBI, CORPUS_ASL]


def _tree(folder: Path) -> dict[str, bytes]:
    return {path.relative_to(folder).as_posix(): path.read_bytes() for path in sorted(folder.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("corpus", CORPUS_FILES, ids=lambda path: path.name)
def test_gen_output_matches_golden(capsys, tmp_path, corpus):
    code, _, _ = run(capsys, "gen", str(corpus), "--out-dir", str(tmp_path))
    assert code == 0
    assert _tree(tmp_path) == _tree(GOLDEN / "gen" / corpus.name)


@pytest.mark.parametrize("corpus", CORPUS_FILES, ids=lambda path: path.name)
def test_model_json_matches_golden(capsys, corpus):
    code, out, _ = run(capsys, "parse", str(corpus), "--emit", "model-json")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "model" / f"{corpus.name}.json").read_bytes()


# stdout and stderr of `convert` and `fmt` on each corpus file, run from the
# repository root. Rewrite one with e.g.
# `PYTHONPATH=src python -m bispec.cli fmt corpus/medbuddy.asl > tests/golden/emit/medbuddy.asl.fmt.stdout
#  2> tests/golden/emit/medbuddy.asl.fmt.stderr`, only when a change of what the emitters write is meant.
EMIT_COMMANDS = {"convert-asl": ("convert", "--to", "asl"), "convert-cnlbi": ("convert", "--to", "cnlbi"), "fmt": ("fmt",)}


@pytest.mark.parametrize("command", EMIT_COMMANDS)
@pytest.mark.parametrize("corpus", CORPUS_FILES, ids=lambda path: path.name)
def test_convert_and_fmt_output_matches_golden(capsys, monkeypatch, corpus, command):
    monkeypatch.chdir(corpus.parent.parent)
    verb, *options = EMIT_COMMANDS[command]
    code, out, err = run(capsys, verb, f"corpus/{corpus.name}", *options)
    assert code == 0
    stem = GOLDEN / "emit" / f"{corpus.name}.{command}"
    assert out.encode("utf-8") == Path(f"{stem}.stdout").read_bytes()
    assert err.encode("utf-8") == Path(f"{stem}.stderr").read_bytes()


def test_a_hash_inside_a_quoted_manifest_file_name_is_part_of_the_name(capsys, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for path in DATA_DIR.iterdir():
        (data / path.name.replace("City.csv", "City#1.csv")).write_bytes(path.read_bytes())
    manifest = data / "manifest.toml"
    manifest.write_text(manifest.read_text().replace('"City.csv"', '"City#1.csv"  # a "#" after the name is a comment'))
    name = "AnalysisAppointmentsInstitutionOnNationalLevel__AppointmentsByInstitutionCity"
    usecase, _, op = name.partition("__")
    code, out, err = run(capsys, "olap", str(CORPUS_CNLBI), "--data", str(data), "--usecase", usecase, "--op", op,
                         "--format", "csv")
    assert code == 0 and "ENG" not in err
    assert out == (Path(__file__).parent / "golden" / "olap" / f"{name}.csv").read_text(encoding="utf-8")


def _odd_data_package(tmp_path, case: str):
    """A copy of the fixture package with one odd file; returns its directory."""
    data = tmp_path / "data"
    data.mkdir()
    for path in DATA_DIR.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    city = data / "City.csv"
    if case == "invalid UTF-8":  # past the first block the decoder reads, so the line is computed
        lines = [f"c{i},38.5,-9.1,City {i}" for i in range(1, 600)]
        lines[449] = "c450,38.5,-9.1,Cidade \xe9"
        city.write_bytes(("id,latitude,longitude,name\n" + "\n".join(lines) + "\n").encode("latin-1"))
    elif case == "field over the csv limit":
        city.write_text(f"id,latitude,longitude,name\nc1,38.5,-9.1,Lisboa\nc2,41.1,-8.6,{'x' * (csv.field_size_limit() + 1)}\n")
    elif case == "data file is a directory":
        city.unlink()
        city.mkdir()
    elif case == "manifest not UTF-8":
        manifest = data / "manifest.toml"
        manifest.write_bytes(b"# data package\n# Lu\xeds\n" + manifest.read_bytes())
    elif case == "manifest is a directory":
        (data / "manifest.toml").unlink()
        (data / "manifest.toml").mkdir()
    elif case == "dangling key":
        with (data / "AppointmentRequest.csv").open("a", encoding="utf-8") as handle:
            handle.write("r99,i1,p999,s1,t1,,10,,false\n")
    elif case == "duplicate manifest entry":
        with (data / "manifest.toml").open("a", encoding="utf-8") as handle:
            handle.write('City = "Nope.csv"\n')
    return data


ODD_DATA = {
    "invalid UTF-8": ("ENG002", "City.csv line 451: not UTF-8 text"),
    "field over the csv limit": ("ENG002", "City.csv line 3: field larger than field limit"),
    "data file is a directory": ("ENG001", "no data file for entity City"),
    "manifest is a directory": ("ENG001", "missing manifest: "),
    "manifest not UTF-8": ("ENG001", "manifest.toml line 2: not UTF-8 text"),
    "dangling key": ("ENG004", "AppointmentRequest row 11, column patient: no Patient row with key 'p999'"),
    "duplicate manifest entry": ("ENG001", "manifest.toml line 8: City is already mapped on line 2"),
}


@pytest.mark.parametrize("case", sorted(ODD_DATA))
def test_odd_data_files_are_coded_diagnostics(capsys, tmp_path, case):
    data = _odd_data_package(tmp_path, case)
    code, out, err = run(
        capsys,
        "olap", str(CORPUS_CNLBI),
        "--data", str(data),
        "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel",
        "--op", "AppointmentsByInstitutionCity",
        "--json",
    )
    assert code == 1 and out == ""
    entries = [json.loads(line) for line in err.splitlines()]
    expected_code, message = ODD_DATA[case]
    assert any(e["code"] == expected_code and e["severity"] == "error" and message in e["message"] for e in entries), err


def test_a_load_error_stops_olap_before_any_query(capsys, tmp_path):
    data = _odd_data_package(tmp_path, "dangling key")
    code, out, err = run(capsys, "olap", str(CORPUS_CNLBI), "--data", str(data),
                         "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel", "--op", "AppointmentsByInstitutionCity")
    role = "description suggests a role restriction that its operations do not encode"
    assert (code, out, err.splitlines()) == (1, "", [
        "error ENG004: AppointmentRequest row 11, column patient: no Patient row with key 'p999'",
        f"{CORPUS_CNLBI}:109:1: warning SEM040: use case AnalysisAppointmentsInstitutionOnInstitutionLevel {role}",
        f"{CORPUS_CNLBI}:144:1: warning SEM040: use case AnalysisAppointmentsPatientOnInstitutionLevel {role}",
    ]) and err.endswith("\n")


_ASL_ENUMERATIONS = """\
DataEnumeration Gender values (Male, Female)
DataEnumeration States values (Booked, Held, Cancelled)
DataEnumeration InstitutionTypes values (HealthCentre, Hospital)
"""


@pytest.mark.parametrize("enumerations", ["cnlbi", "asl"])
def test_enum_literals_resolve_across_the_files_of_a_unit(capsys, tmp_path, enumerations):
    # The corpus split after line 12: its enumerations in one file, the rest in another.
    lines = CORPUS_CNLBI.read_text(encoding="utf-8").splitlines(keepends=True)
    first = tmp_path / f"enums.{enumerations}"
    first.write_text("".join(lines[:12]) if enumerations == "cnlbi" else _ASL_ENUMERATIONS, encoding="utf-8")
    rest = tmp_path / "rest.cnlbi"
    rest.write_text("".join(lines[12:]), encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(first), str(rest), "--emit", "model-json")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "model" / "medbuddy.cnlbi.json").read_bytes()
    code, _, err = run(capsys, "check", str(first), str(rest), "--json")
    entries = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert code == 0 and [e["code"] for e in entries] == ["SEM040", "SEM040"]


PATIENT_SLICE = ("AnalysisAppointmentsPatientOnInstitutionLevel", "ScheduledAppointmentsInSpecificYear")


def _patient_slice_on(tmp_path, predicate: str) -> Path:
    """The corpus with the institution-level patient Slice filtering on ``predicate``."""
    source = CORPUS_CNLBI.read_text(encoding="utf-8")
    slice_where = (
        "      where AppointmentRequest.scheduled_date.year = Time.year\n"
        "      described as slicing the data to visualise the appointments that were scheduled in a specific year,\n"
        "    // Appointments scheduled in a specific year by patients who reside"
    )
    assert source.count(slice_where) == 1
    spec = tmp_path / "variant.cnlbi"
    spec.write_text(source.replace(slice_where, slice_where.replace("AppointmentRequest.scheduled_date.year = Time.year", predicate)))
    return spec


def test_a_parameter_must_have_the_type_of_its_column(capsys, tmp_path):
    spec = _patient_slice_on(tmp_path, "Patient.gender = Time.year")
    code, _, err = run(capsys, "check", str(spec), "--json")
    errors = [(e["code"], e["message"]) for e in map(json.loads, err.splitlines()[:-1]) if e["severity"] == "error"]
    reason = "cannot compare Patient.gender (Gender) with the parameter Time.year (Integer)"
    assert (code, errors) == (1, [("SEM011", f"in operation {PATIENT_SLICE[1]}: {reason}")])
    model, _ = parse_cnlbi(spec.read_text(encoding="utf-8"))
    with pytest.raises(EngineError) as planned:
        plan_operation(model, *PATIENT_SLICE)
    assert (planned.value.code, planned.value.rule, str(planned.value)) == ("ENG030", "type", reason)
    with pytest.raises(GeneratorError) as generated:
        gen_olap_sql(model, *PATIENT_SLICE)
    assert generated.value.code == "GEN010"


def test_an_enum_parameter_takes_only_values_of_its_enumeration(capsys, tmp_path):
    spec = _patient_slice_on(tmp_path, "Patient.gender = Patient.gender")
    argv = ["olap", str(spec), "--data", str(DATA_DIR), "--usecase", PATIENT_SLICE[0], "--op", PATIENT_SLICE[1], "--format", "csv"]
    code, out, err = run(capsys, *argv, "--bind", "gender=Other")
    assert (code, out) == (1, "") and "ENG010: parameter 'gender' expects Gender, got 'Other'" in err
    code, out, _ = run(capsys, *argv, "--bind", "gender=Male")
    assert code == 0 and out.splitlines()[1].startswith("4,4,")


def _olap_argv(data, op, *binds):
    uc = "AnalysisAppointmentsInstitutionOnNationalLevel"
    return ["olap", str(CORPUS_CNLBI), "--data", str(data), "--usecase", uc, "--op", op, "--format", "csv", *binds]


def test_an_integer_cell_beyond_64_bits_is_eng003_not_a_traceback(capsys, tmp_path):
    for path in DATA_DIR.iterdir():
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    facts = tmp_path / "AppointmentRequest.csv"
    text = facts.read_text(encoding="utf-8")
    assert "r01,i1,p1,s2,t1,t2,30,12,true" in text
    facts.write_text(text.replace("r01,i1,p1,s2,t1,t2,30,12,", f"r01,i1,p1,s2,t1,t2,30,{'9' * 400},"), encoding="utf-8")
    code, out, err = run(capsys, *_olap_argv(tmp_path, "AppointmentsByInstitution"))
    assert (code, out) == (1, "")
    assert f"ENG003: AppointmentRequest.csv row 1, column actual_response_time: '{'9' * 400}' is outside the 64-bit Integer range" in err


def test_numeric_text_that_sqlite_keeps_as_text_is_eng003_not_a_traceback(capsys, tmp_path):
    for path in DATA_DIR.iterdir():
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    facts = tmp_path / "AppointmentRequest.csv"
    text = facts.read_text(encoding="utf-8")
    assert "r01,i1,p1,s2,t1,t2,30,12,true" in text
    facts.write_text(text.replace("r01,i1,p1,s2,t1,t2,30,12,", "r01,i1,p1,s2,t1,t2,30,1_2,"), encoding="utf-8")
    cities = tmp_path / "City.csv"
    cities.write_text(cities.read_text(encoding="utf-8").replace("c1,38.72,", "c1,nan,"), encoding="utf-8")
    code, out, err = run(capsys, *_olap_argv(tmp_path, "AppointmentsByInstitution"))
    assert (code, out) == (1, "") and "Traceback" not in err
    assert "ENG003: AppointmentRequest.csv row 1, column actual_response_time: '1_2' is not an Integer" in err
    assert "ENG003: City.csv row 1, column latitude: 'nan' is not a Decimal" in err


MIXED_AWARENESS_SPEC = """
DataEntity Site ("Site") is a Master Dimension with attributes
  id is a UUID (PrimaryKey),
  name is a String (NotNull)
described as sites.

DataEntity Visit ("Visit") is a Transactional Fact with attributes
  id is a UUID (PrimaryKey),
  site refers to Dimension Site (NotNull),
  opened is a DateTime,
  FirstOpened is a DateTime (operation MIN(opened))
described as visits.

Actor Analyst "Analyst" is a User described as an analyst.

UseCase Visits is a BIAnalysis
  actor Analyst,
  data source Visit,
  performs
    OLAP Operation BySite is a Roll-up
      group by Site.name
      described as rolls up the visits per site,

  described as it shows the visits.
"""


def test_a_datetime_column_mixing_naive_and_aware_values_is_eng003_not_a_traceback(capsys, tmp_path):
    spec = tmp_path / "visits.cnlbi"
    spec.write_text(MIXED_AWARENESS_SPEC, encoding="utf-8")
    (tmp_path / "Site.csv").write_text("id,name\ns1,North\n", encoding="utf-8")
    (tmp_path / "Visit.csv").write_text("id,site,opened\nv1,s1,2024-01-01T10:00:00+01:00\nv2,s1,\nv3,s1,2024-01-01T09:30:00\n",
                                        encoding="utf-8")
    (tmp_path / "manifest.toml").write_text('Site = "Site.csv"\nVisit = "Visit.csv"\n', encoding="utf-8")
    code, out, err = run(capsys, "olap", str(spec), "--data", str(tmp_path), "--usecase", "Visits", "--op", "BySite", "--json")
    assert (code, out) == (1, "") and err
    diags = [json.loads(line) for line in err.splitlines()]
    assert [(d["code"], d["message"]) for d in diags] == [
        ("ENG003", "Visit.csv row 3, column opened: '2024-01-01T09:30:00' is offset-naive but the column's first value is offset-aware")
    ]


def test_an_integer_bind_beyond_64_bits_is_eng010(capsys):
    op = "ScheduledAppointmentsBySpecificCityAndYear"
    code, out, err = run(capsys, *_olap_argv(DATA_DIR, op, "--bind", "id=c2", "--bind", f"year={2**63}"))
    assert (code, out) == (1, "") and f"ENG010: parameter 'year' expects Integer, got '{2**63}'" in err
    code, out, _ = run(capsys, *_olap_argv(DATA_DIR, op, "--bind", "id=c2", "--bind", f"year={-(2**63)}"))
    assert code == 0 and out.splitlines()[1].startswith("0,0,")
