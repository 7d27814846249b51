"""What ``import bispec`` and each subcommand load, each in a fresh interpreter
without bytecode, as a one-shot ``bispec`` call runs: a check inside this
process would see every module the tests had already imported.

``import bispec`` loads no submodule; a public name or submodule loads its
module on first use. A subcommand loads a file's parser only for its syntax,
the engine only for ``olap`` and the generators only for ``gen``.
"""

import os
import subprocess
import sys

import pytest

from conftest import CORPUS_ASL, CORPUS_CNLBI, DATA_DIR, ROOT

# the package's names as its eager imports gave them, before they loaded on first use
EAGER = """
from bispec.asl import emit_asl, parse_asl
from bispec.canonical import canonicalize, model_json
from bispec.cnlbi import emit_cnlbi, parse_cnlbi
from bispec.engine import Cube, EngineError, ResultTable, load_cube, pivot, run_plan, run_use_case
from bispec.generators import GeneratorError, gen_dashboard_manifest, gen_olap_sql, gen_requirements_doc, gen_schema_sql
from bispec.model import AttributePath, SpecificationModel, merge_models
from bispec.plan import plan_operation
from bispec.semantics import CheckReport, check_model
"""


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter without bytecode; its last line of
    stdout names the bispec submodules it loaded."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": path}
    script = f"{code}\nimport sys\nprint(' '.join(sorted(name[7:] for name in sys.modules if name.startswith('bispec.'))))"
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] if done.stdout.strip() else ""


def test_import_bispec_loads_no_submodule():
    assert _run("import bispec") == ""


@pytest.mark.parametrize("name, loaded", [
    ("run_plan", "diagnostics engine model plan"),
    ("plan_operation", "diagnostics model plan"),
])
def test_the_query_entry_points_load_on_first_use(name, loaded):
    """Every query runs through ``plan_operation`` and ``run_plan``; the
    view-level names are gone from the package."""
    assert _run(f"""import bispec
assert {name!r} in bispec.__all__ and {name!r} not in vars(bispec)
assert not {{"aggregate", "dice_view", "evaluate_measure", "slice_view"}} & set(bispec.__all__)
bispec.{name}""") == loaded


def test_import_bispec_engine_loads_only_what_the_engine_imports():
    assert _run("import bispec.engine").split() == ["diagnostics", "engine", "model", "plan"]


def _cli(*argv: str) -> set[str]:
    return set(_run(f"from bispec.cli import main\nassert main({list(argv)!r}) == 0").split())


OLAP = ("--data", str(DATA_DIR), "--usecase", "AnalysisAppointmentsInstitutionOnNationalLevel", "--op", "AppointmentsByInstitutionCity")


@pytest.mark.parametrize("argv, unloaded", [
    (("check", str(CORPUS_CNLBI)), {"asl", "engine", "generators"}),
    (("check", str(CORPUS_ASL)), {"cnlbi", "engine", "generators"}),
    (("olap", str(CORPUS_CNLBI), *OLAP), {"asl", "generators"}),
    (("fmt", str(CORPUS_CNLBI)), {"asl", "engine", "generators"}),
    (("convert", str(CORPUS_ASL), "--to", "asl"), {"cnlbi", "engine", "generators"}),
], ids=["check cnlbi", "check asl", "olap", "fmt cnlbi", "convert asl to asl"])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, unloaded):
    loaded = _cli(*argv)
    assert {"cli", "model"} <= loaded and not loaded & unloaded, sorted(loaded)


def test_each_public_name_is_its_module_object_and_the_list_is_unchanged():
    _run(f"""import sys
import bispec
names = {{name: getattr(bispec, name) for name in bispec.__all__}}
eager = {{}}
exec({EAGER!r}, eager)
del eager["__builtins__"]
assert bispec.__all__ == sorted(eager), bispec.__all__
assert all(names[name] is eager[name] for name in eager)
assert set(bispec.__all__) <= set(dir(bispec))
assert bispec.engine is sys.modules["bispec.engine"]
try:
    bispec.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'bispec' has no attribute 'no_such_name'"
else:
    raise AssertionError("bispec.no_such_name resolved")
""")
