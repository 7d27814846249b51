"""Child process that runs bispec for one benchmark measurement.

Usage: ``python3 perfbench/worker.py MODE ARGS_JSON [CLI ARGS...]``

* ``session``: import bispec, parse the corpus plus ``bench_ops.cnlbi``,
  check, ``load_cube``, then run passes over every operation through
  ``run_use_case`` + ``result_to_csv`` until the time is up.
* ``compile``: import bispec, then compile the spec unit once per pass.
* ``cli``: install the tracer, then run ``bispec.cli.main`` on the CLI
  arguments (traced one-shot calls).

With ``setup_only`` the session and compile modes stop after set-up.
Without ``trace`` the first pass is a warm-up; every later operation is
timed between two yardsticks (``yardstick.py``), and peak RSS is read
after the warm-up, before the yardstick first runs. With ``trace`` they
alternate untraced and traced passes, write spans to ``spans_path`` and
skip the yardstick. The last stdout line is a JSON report, except in ``cli``
mode, whose stdout is the CLI's own.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans as tracing
import yardstick


def _import_bispec(root: Path):
    sys.path.insert(0, str(root / "src"))
    import bispec
    import bispec.engine

    if Path(bispec.__file__).resolve().parent != (root / "src" / "bispec").resolve():
        raise RuntimeError(f"imported bispec from {bispec.__file__}, not from {root / 'src'}")
    return bispec


def _peak_rss_kb() -> int:
    """This process image's peak resident set (``VmHWM``). ``ru_maxrss`` would
    also count the parent's peak, which a child inherits across exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


def session_sources(root: Path) -> list[tuple[str, str]]:
    """The session's compilation unit: the CNL-BI corpus plus the benchmark's own file."""
    paths = ("corpus/medbuddy.cnlbi", "perfbench/bench_ops.cnlbi")
    return [(path, (root / path).read_text(encoding="utf-8")) for path in paths]


def compile_unit(bispec, sources: list[tuple[str, str]]) -> tuple[list, list[str], list[str], int]:
    """One full compile: parse, merge, check, model_json, generate, emit.

    Returns the diagnostics, the codes of operations the SQL generator
    refused, every generated text, and the number of queries generated.
    """
    models, diags = [], []
    for name, text in sources:
        parse = bispec.parse_cnlbi if name.endswith(".cnlbi") else bispec.parse_asl
        model, parse_diags = parse(text, name)
        models.append(model)
        diags.extend(parse_diags)
    model = bispec.merge_models(models)
    diags.extend(bispec.check_model(model).diagnostics)
    outputs = [bispec.model_json(model), bispec.gen_schema_sql(model)]
    refused, queries = [], 0
    for uc in model.use_cases:
        for op in uc.operations:
            try:
                outputs.append(bispec.gen_olap_sql(model, uc.id, op.id))
                queries += 1
            except bispec.GeneratorError as exc:
                refused.append(exc.code)
    outputs.append(bispec.gen_dashboard_manifest(model))
    outputs.append(bispec.gen_requirements_doc(model))
    for emit in (bispec.emit_cnlbi, bispec.emit_asl):
        text, emit_diags = emit(model)
        outputs.append(text)
        diags.extend(emit_diags)
    return diags, refused, outputs, queries


class Passes:
    """Yields ``(number, traced)`` per pass until ``seconds`` have elapsed,
    at least two passes, and records each pass's wall time. With
    ``alternate``, odd passes are the traced ones."""

    def __init__(self, seconds: float, alternate: bool):
        self.seconds = seconds
        self.alternate = alternate
        self.walls: list[dict] = []

    def __iter__(self):
        start = perf_counter()
        number = 0
        while True:
            traced = self.alternate and number % 2 == 1
            began = perf_counter()
            yield number, traced
            self.walls.append({"pass": number, "traced": traced, "seconds": perf_counter() - began})
            number += 1
            if number >= 2 and perf_counter() - start >= self.seconds:
                return


def _switch(tracer, bispec, number: int, traced: bool) -> None:
    """Patch bispec for a traced pass and unpatch it for an untraced one."""
    if tracer is None:
        return
    if traced:
        tracer.install(bispec)
    else:
        tracer.uninstall()
    tracer.phase = str(number)


def run_session(args: dict) -> dict:
    root = Path(args["root"])
    sources = session_sources(root)
    tracer = tracing.Tracer() if args["trace"] else None

    started = perf_counter()
    bispec = _import_bispec(root)
    if tracer is not None:
        tracer.install(bispec)
    models, diags = [], []
    for name, text in sources:
        model, parse_diags = bispec.parse_cnlbi(text, name)
        models.append(model)
        diags.extend(parse_diags)
    model = bispec.merge_models(models)
    diags.extend(bispec.check_model(model).diagnostics)
    cube, load_diags = bispec.load_cube(model, args["package"])
    setup_s = perf_counter() - started

    errors = [f"{d.code}: {d.message}" for d in diags + load_diags if d.is_error]
    report = {"setup_s": setup_s, "errors": errors}
    if args["setup_only"] or errors:
        return report

    ops = [(uc.id, op.id, op.kind) for uc in model.use_cases for op in uc.operations]
    binds = args["binds"]
    samples, outputs, failures = [], {}, {}
    peak_rss_kb = None
    passes = Passes(args["seconds"], tracer is not None)
    for number, traced in passes:
        _switch(tracer, bispec, number, traced)
        timed = tracer is None and number > 0
        if timed and peak_rss_kb is None:
            peak_rss_kb = _peak_rss_kb()
        for index, (uc_id, op_id, kind) in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            ruler = yardstick.measure() if timed else None
            began = perf_counter()
            try:
                text = bispec.engine.result_to_csv(bispec.run_use_case(cube, uc_id, op_id, binds))
            except Exception as exc:  # a failing operation counts against the run
                text = None
                failures.setdefault(index, repr(exc))
            elapsed = perf_counter() - began
            same = text is not None and outputs.setdefault(index, text) == text
            samples.append([index, elapsed, same, ruler])
    _bracket([sample for sample in samples if sample[3] is not None], 3)

    report.update(
        ops=[[uc_id, op_id, kind] for uc_id, op_id, kind in ops],
        samples=samples,
        outputs=outputs,
        failures=failures,
        passes=passes.walls,
        peak_rss_kb=peak_rss_kb or _peak_rss_kb(),
    )
    _finish_trace(args, tracer, report)
    return report


def run_compile(args: dict) -> dict:
    root = Path(args["root"])
    unit = Path(args["spec"]) / "unit"
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(unit.iterdir())]
    tracer = tracing.Tracer() if args["trace"] else None

    started = perf_counter()
    bispec = _import_bispec(root)
    report = {"setup_s": perf_counter() - started}
    if args["setup_only"]:
        return report

    results = []
    peak_rss_kb = None
    passes = Passes(args["seconds"], tracer is not None)
    for number, traced in passes:
        _switch(tracer, bispec, number, traced)
        timed = tracer is None and number > 0
        if timed and peak_rss_kb is None:
            peak_rss_kb = _peak_rss_kb()
        ruler = yardstick.measure() if timed else None
        began = perf_counter()
        try:
            diags, refused, outputs, queries = compile_unit(bispec, sources)
        except Exception as exc:  # a failing compile counts against the run
            results.append({"seconds": perf_counter() - began, "yardstick": ruler, "error": repr(exc)})
            continue
        seconds = perf_counter() - began
        results.append(
            {
                "seconds": seconds,
                "yardstick": ruler,
                "codes": dict(Counter(d.code for d in diags) + Counter(refused)),
                "errors": sum(1 for d in diags if d.is_error),
                "queries": queries,
                "digest": hashlib.sha256("\x00".join(outputs).encode("utf-8")).hexdigest(),
            }
        )
    _bracket([result for result in results if result["yardstick"] is not None], "yardstick")

    report.update(results=results, passes=passes.walls, peak_rss_kb=peak_rss_kb or _peak_rss_kb())
    _finish_trace(args, tracer, report)
    return report


def _bracket(timed: list, key) -> None:
    """Replace each timed sample's yardstick (``sample[key]``, the one timed
    just before it) with the mean of that one and the one just after it."""
    if timed:
        rulers = yardstick.bracket([sample[key] for sample in timed], yardstick.measure())
        for sample, ruler in zip(timed, rulers):
            sample[key] = ruler


def _finish_trace(args: dict, tracer, report: dict) -> None:
    if tracer is None:
        return
    tracer.uninstall()
    tracing.write(args["spans_path"], tracer)
    report["traced_passes"] = [w["pass"] for w in report["passes"] if w["traced"]]


def run_cli(args: dict, argv: list[str]) -> int:
    """One traced one-shot CLI call; spans go to ``spans_path``."""
    root = Path(args["root"])
    bispec = _import_bispec(root)
    import bispec.cli

    tracer = tracing.Tracer()
    tracer.phase = str(args["phase"])
    tracer.op = args["op"]
    tracer.install(bispec)
    code = 1
    try:
        with tracer.span("cli.main"):
            code = bispec.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        tracing.write(args["spans_path"], tracer)
    return code


def main(argv: list[str]) -> int:
    mode, args = argv[0], json.loads(argv[1])
    if mode == "cli":
        return run_cli(args, argv[2:])
    run = {"session": run_session, "compile": run_compile}[mode]
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
