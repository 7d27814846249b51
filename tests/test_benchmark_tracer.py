"""The benchmark's tracer (``perfbench/spans.py``) still fits the engine.

``Tracer.install`` patches ``bispec`` attributes by name (``CubeView.rows``,
``aggregate``, ``pivot``, ``evaluate_measure``, ``run_use_case``, ...) and its
load count reads ``Table.rows``. A rename in the engine would break every
traced benchmark run; this test runs the session's operations on the fixture
package with the tracer installed and checks spans, counts and results.
"""

import dataclasses
import sys

import bispec
from bispec import model as m
from conftest import DATA_DIR, ROOT, kept_positions, query

sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
from worker import session_sources  # noqa: E402

BINDS = {"year": "2023", "id": "c2"}


def _session_model():
    models = [bispec.parse_cnlbi(text, name)[0] for name, text in session_sources(ROOT)]
    return bispec.merge_models(models)


def _run_session(model):
    cube, diags = bispec.load_cube(model, DATA_DIR)
    outputs = [
        bispec.engine.result_to_csv(bispec.run_use_case(cube, uc.id, op.id, BINDS))
        for uc in model.use_cases
        for op in uc.operations
    ]
    view = cube.view("AppointmentRequest")
    female = query(model, view.fact_id, [m.Predicate(m.AttributePath.parse("Patient.gender"), m.Literal("Female"))])
    sliced = dataclasses.replace(view, positions=sorted(kept_positions(cube, female)))
    count = bispec.engine.evaluate_measure(view, model.entity("AppointmentRequest").attribute("CountAppointments").measure)
    return cube, diags, outputs, len(sliced.rows()), count


def test_tracer_installs_on_the_engine_and_counts_a_session():
    model = _session_model()
    untraced = _run_session(model)
    originals = (bispec.engine.CubeView.rows, bispec.engine.aggregate, bispec.engine.pivot,
                 bispec.engine.evaluate_measure, bispec.load_cube)
    tracer = spans.Tracer()
    tracer.install(bispec)
    try:
        cube, diags, outputs, sliced, count = _run_session(model)
    finally:
        tracer.uninstall()
    assert originals == (bispec.engine.CubeView.rows, bispec.engine.aggregate, bispec.engine.pivot,
                         bispec.engine.evaluate_measure, bispec.load_cube)

    assert not [d for d in diags if d.is_error]
    assert (outputs, sliced, count) == untraced[2:]
    assert len(outputs) == 15 and sliced == 6 and count == 10
    names = {span[0] for span in tracer.spans}
    assert {"engine.load", "engine.dispatch", "engine.group", "engine.pivot", "engine.render",
            "engine.filter", "engine.measure"} <= names
    counts = tracer.counts[spans.SETUP]
    assert counts["engine.load_rows"] == sum(len(table.rows) for table in cube.tables.values()) == 29
    assert counts["engine.filter_rows_out"] == 6  # the engine filters positions; only this test calls rows()
    assert counts["engine.measure_calls"] == 1
    assert counts["engine.groups"] > 0
    metrics = spans.layer_metrics(tracer.dump(), [])
    assert metrics["engine.load_rows"] == 29 and metrics["engine.filter_calls"] == 1
