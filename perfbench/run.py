"""bispec benchmark: OLAP session, spec compile and one-shot CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from anywhere; paths are resolved from this file. Inputs are generated
from the seed under ``build/perfbench`` (cached by seed and size), the
program runs in child processes, and every result is checked against a
reference that is not the code under test (see ``reference.py``). A table
of every metric goes to stdout, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``NOTES.md`` says why each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build" / "perfbench"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402
from worker import Passes, compile_unit, session_sources  # noqa: E402

# End-to-end metrics, reported by every workload: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_cost.geomean": ("ratio", "lower"),
    "op_cost.mix_mean": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "lexer.tokenize_s": ("s", "lower"),
    "lexer.tokens": ("count", "lower"),
    "lexer.tokens_per_s": ("1/s", "higher"),
    "cnlbi.parse_s": ("s", "lower"),
    "asl.parse_s": ("s", "lower"),
    "cnlbi.emit_s": ("s", "lower"),
    "asl.emit_s": ("s", "lower"),
    "model.merge_s": ("s", "lower"),
    "semantics.check_s": ("s", "lower"),
    "semantics.identifiers_s": ("s", "lower"),
    "semantics.dimensional_s": ("s", "lower"),
    "semantics.measures_s": ("s", "lower"),
    "semantics.use_cases_s": ("s", "lower"),
    "semantics.ui_s": ("s", "lower"),
    "semantics.diagnostics": ("count", "lower"),
    "canonical.model_json_s": ("s", "lower"),
    "canonical.bytes": ("bytes", "lower"),
    "generators.schema_s": ("s", "lower"),
    "generators.olap_sql_s": ("s", "lower"),
    "generators.olap_sql_calls": ("count", "lower"),
    "generators.dashboard_s": ("s", "lower"),
    "generators.doc_s": ("s", "lower"),
    "generators.bytes": ("bytes", "lower"),
    "engine.load_s": ("s", "lower"),
    "engine.load_rows": ("count", "higher"),
    "engine.load_rows_per_s": ("1/s", "higher"),
    "engine.load_rejected": ("count", "lower"),
    "engine.filter_s": ("s", "lower"),
    "engine.filter_calls": ("count", "lower"),
    "engine.filter_rows_out": ("count", "lower"),
    "engine.group_s": ("s", "lower"),
    "engine.groups": ("count", "lower"),
    "engine.measure_s": ("s", "lower"),
    "engine.measure_calls": ("count", "lower"),
    "engine.pivot_s": ("s", "lower"),
    "engine.dispatch_s": ("s", "lower"),
    "engine.render_s": ("s", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

# Raw wall-time metrics every workload prints in the table (not in the JSON
# line: they move with the host's speed, see yardstick.py).
RAW = {"op_ms.geomean": "ms", "yardstick_ms.p50": "ms"}

# Workload-specific metrics printed in the table (not in the JSON line).
NAMED = {
    "olap_session_100k": {
        "rollup_ms.p50": "ms",
        "slice_ms.p50": "ms",
        "slice_ms.p90": "ms",
        "queries_per_s": "1/s",
        "failed_frac": "ratio",
    },
    "spec_compile_32x": {"compile_s.p50": "s", "failed_frac": "ratio"},
    "cli_oneshot_100k": {
        "cli_olap_s.p50": "s",
        "cli_check_s.p50": "s",
        "cli_gen_s.p50": "s",
        "failed_frac": "ratio",
    },
}
WORKLOADS = tuple(NAMED)

GROUP_KINDS = ("RollUp", "DrillDown", "Pivot")

# Runs `bispec` the way `python -m bispec.cli` does (through runpy) and, at
# exit, writes the process's own peak RSS (VmHWM) to the file named by the
# first argument. The child's ru_maxrss would not do: a child inherits its
# parent's peak across exec.
CLI_MAIN = """
import atexit, runpy, sys
def record(path=sys.argv.pop(1)):
    with open("/proc/self/status", encoding="ascii") as status, open(path, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
atexit.register(record)
runpy.run_module("bispec.cli", run_name="__main__", alter_sys=True)
"""
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
CHILD_TIMEOUT = 150


@dataclass(frozen=True)
class Scale:
    facts: int | None  # None: the hand-checkable fixture package
    areas: int


FULL = Scale(facts=100_000, areas=32)
SMOKE = Scale(facts=None, areas=2)


class Run:
    """Inputs and results of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: Scale):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.named: dict[str, float | None] = {}
        self.samples: dict[str, int] = {}
        self.layer_table: list[tuple[str, int, float, float]] = []
        self.trace_dir = BUILD / "trace" / f"{workload}-seed{seed}"

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _env() -> dict:
    """Environment of every child. No process of the benchmark writes
    bytecode caches, so in a fresh checkout each child compiles bispec from
    source (import takes about twice as long as from cached bytecode)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["CNLBI_COLOR"] = "never"
    return env


def _worker(mode: str, payload: dict) -> dict:
    payload = {"root": str(ROOT), "trace": False, "setup_only": False, **payload}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, json.dumps(payload)],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass(frozen=True)
class Child:
    code: int
    stdout: str
    stderr: str
    seconds: float


def _call(command: list[str]) -> Child:
    """Run one child to completion and measure its wall time."""
    began = perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    return Child(proc.returncode, proc.stdout, proc.stderr, perf_counter() - began)


def _wall(command: list[str]) -> float:
    child = _call(command)
    if child.code != 0:
        raise RuntimeError(f"{command} exited {child.code}: {child.stderr[-2000:]}")
    return child.seconds


def _import_probe() -> float:
    """Wall time of a fresh interpreter that imports bispec."""
    return _wall([sys.executable, "-c", "import bispec"])


def _probe_layers() -> dict[str, float]:
    interpreter = statistics.median(_wall([sys.executable, "-c", "pass"]) for _ in range(PROBE_SAMPLES))
    imported = statistics.median(_import_probe() for _ in range(PROBE_SAMPLES))
    return {"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter}


def _bispec():
    sys.dont_write_bytecode = True  # see _env
    sys.path.insert(0, str(ROOT / "src"))
    import bispec
    import bispec.engine

    return bispec


# ---------------------------------------------------------------------------
# Shared inputs and references
# ---------------------------------------------------------------------------


def _package(run: Run) -> Path:
    if run.scale.facts is None:
        return ROOT / "fixtures" / "medbuddy_data"
    return inputs.make_package(ROOT, run.seed, run.scale.facts)


def _session_reference(bispec, package: Path, binds: dict) -> tuple[object, list, dict]:
    """The session unit's model, its operations, and the SQLite reference."""
    models = [bispec.parse_cnlbi(text, name)[0] for name, text in session_sources(ROOT)]
    model = bispec.merge_models(models)
    ops = [(uc.id, op.id, op.kind) for uc in model.use_cases for op in uc.operations]
    queries = [{"kind": kind, "sql": bispec.gen_olap_sql(model, uc_id, op_id)} for uc_id, op_id, kind in ops]
    expected = reference.sqlite_reference(
        package, bispec.gen_schema_sql(model), [e.id for e in model.entities], queries, binds, BUILD / "reference"
    )
    return model, ops, expected["operations"]


def _end_to_end(run: Run, setups: list[float], by_type: dict, peak_rss_kb: int) -> None:
    """The JSON metrics, and the raw times beside them in the table.

    ``by_type`` maps each operation type to its ``(seconds, yardstick
    seconds)`` samples. An operation's cost is its time divided by the
    mean of the yardsticks timed just before and just after it.
    ``op_cost.geomean`` is the geometric mean of the per-type median costs,
    so every type weighs the same whatever its cost; ``op_cost.mix_mean`` is
    their mean weighted by each type's share of the run, so costly types
    weigh more.
    """
    count = sum(len(samples) for samples in by_type.values())
    cost = {key: statistics.median(s / ruler for s, ruler in samples) for key, samples in by_type.items()}
    run.metrics.update(
        {
            "setup_s": statistics.median(setups),
            "op_cost.geomean": statistics.geometric_mean(cost.values()),
            "op_cost.mix_mean": sum(cost[key] * len(samples) for key, samples in by_type.items()) / count,
            "peak_rss_mb": peak_rss_kb / 1024,
        }
    )
    run.named.update(
        {
            "op_ms.geomean": statistics.geometric_mean(
                statistics.median(s for s, _ in samples) for samples in by_type.values()
            )
            * 1000,
            "yardstick_ms.p50": statistics.median(r for samples in by_type.values() for _, r in samples) * 1000,
        }
    )
    run.samples.update({name: count for name in ("op_cost.geomean", "op_cost.mix_mean", *RAW)})
    run.samples["setup_s"] = len(setups)


def _layers(run: Run, dump: dict, traced: list, walls: list[dict]) -> None:
    """Per-layer metrics from spans, plus tracing overhead and coverage."""
    run.metrics.update(spans.layer_metrics(dump, traced))
    run.metrics.update(_probe_layers())
    untraced_s = statistics.median(w["seconds"] for w in walls if not w["traced"])
    traced_s = statistics.median(w["seconds"] for w in walls if w["traced"])
    run.metrics["trace.overhead_s"] = traced_s - untraced_s
    run.metrics["trace.coverage"] = statistics.median(
        spans.top_level_seconds(dump["spans"], w["pass"]) / w["seconds"] for w in walls if w["traced"]
    )
    totals: dict[str, list] = {}
    for per_name in spans.phase_times(dump["spans"]).values():
        for name, values in per_name.items():
            totals[name] = [a + b for a, b in zip(totals.get(name, (0.0, 0.0, 0)), values)]
    run.layer_table = sorted(
        ((name, calls, total, self_time) for name, (total, self_time, calls) in totals.items()),
        key=lambda row: -row[3],
    )
    run.trace_dir.mkdir(parents=True, exist_ok=True)
    (run.trace_dir / "spans.json").write_text(json.dumps(dump), encoding="utf-8")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def olap_session(run: Run) -> None:
    """One client, closed loop: load once, then query many times in-process."""
    bispec = _bispec()
    package = _package(run)
    binds = inputs.package_binds(package, run.seed)
    _, ops, expected = _session_reference(bispec, package, binds)

    run.trace_dir.mkdir(parents=True, exist_ok=True)
    payload = {"package": str(package), "binds": binds, "seconds": run.seconds}
    report = _worker("session", {**payload, "trace": run.trace, "spans_path": str(run.trace_dir / "worker.json")})
    if report["errors"]:
        raise RuntimeError(f"session set-up failed: {report['errors']}")
    if [tuple(op) for op in report["ops"]] != ops:
        raise RuntimeError("the session ran other operations than the reference covers")

    verdicts = {}
    for index in range(len(ops)):
        why = report["failures"].get(str(index)) or reference.compare(report["outputs"].get(str(index)), expected[index])
        verdicts[index] = why
    run.attempted = len(report["samples"])
    for index, elapsed, same, _ in report["samples"]:
        why = verdicts[index] or (None if same else "output differs from the first pass")
        if why:
            run.fail(f"{ops[index][0]}/{ops[index][1]}: {why}")

    # Timed samples: every operation after the warm-up pass (see worker.py).
    timed = [(index, elapsed, ruler) for index, elapsed, _, ruler in report["samples"] if ruler is not None]
    latencies = [elapsed for _, elapsed, _ in timed]
    group = [elapsed for index, elapsed, _ in timed if ops[index][2] in GROUP_KINDS]
    filters = [elapsed for index, elapsed, _ in timed if ops[index][2] not in GROUP_KINDS]

    if run.trace:
        dump = json.loads((run.trace_dir / "worker.json").read_text(encoding="utf-8"))
        _layers(run, dump, report["traced_passes"], report["passes"])
        return
    setups = [report["setup_s"]]
    setups += [_worker("session", {**payload, "setup_only": True})["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    by_op: dict[int, list[tuple[float, float]]] = {}
    for index, elapsed, ruler in timed:
        by_op.setdefault(index, []).append((elapsed, ruler))
    _end_to_end(run, setups, by_op, report["peak_rss_kb"])
    run.named.update(
        {
            "rollup_ms.p50": statistics.median(group) * 1000,
            "slice_ms.p50": statistics.median(filters) * 1000,
            "slice_ms.p90": (
                statistics.quantiles(filters, n=10)[-1] * 1000 if len(filters) >= P90_MIN_SAMPLES else None
            ),
            "queries_per_s": len(latencies) / sum(latencies),
        }
    )
    run.samples.update({"rollup_ms.p50": len(group), "slice_ms.p50": len(filters), "slice_ms.p90": len(filters)})


def spec_compile(run: Run) -> None:
    """One client, closed loop: compile the whole spec unit again and again."""
    bispec = _bispec()
    corpus = {
        syntax: ((ROOT / "corpus" / f"medbuddy.{syntax}").read_text(encoding="utf-8"), parse)
        for syntax, parse in (("cnlbi", bispec.parse_cnlbi), ("asl", bispec.parse_asl))
    }
    spec = inputs.make_spec(ROOT, run.seed, run.scale.areas, corpus)

    # Reference: each area contributes exactly its corpus rendering's counts.
    per_syntax = run.scale.areas // 2
    expected_codes: dict[str, int] = {}
    expected_queries = 0
    for syntax, (text, _) in corpus.items():
        diags, refused, _, queries = compile_unit(bispec, [(f"medbuddy.{syntax}", text)])
        for code in [d.code for d in diags] + refused:
            expected_codes[code] = expected_codes.get(code, 0) + per_syntax
        expected_queries += queries * per_syntax
    subset_mismatches = []
    for path in sorted((spec / "unit").iterdir()):
        other = "asl" if path.suffix == ".cnlbi" else "cnlbi"
        alt = spec / "alt" / f"{path.stem}.{other}"
        subsets = []
        for source in (path, alt):
            parse = bispec.parse_cnlbi if source.suffix == ".cnlbi" else bispec.parse_asl
            model, _ = parse(source.read_text(encoding="utf-8"), source.name)
            subsets.append(bispec.canonicalize(model.data_subset()))
        if subsets[0] != subsets[1]:
            subset_mismatches.append(path.name)

    run.trace_dir.mkdir(parents=True, exist_ok=True)
    payload = {"spec": str(spec), "seconds": run.seconds}
    report = _worker("compile", {**payload, "trace": run.trace, "spans_path": str(run.trace_dir / "worker.json")})
    run.attempted = len(report["results"])
    first_digest = next((r.get("digest") for r in report["results"] if "digest" in r), None)
    for result in report["results"]:
        if "error" in result:
            why = result["error"]
        elif subset_mismatches:
            why = f"data_subset differs between syntaxes in {', '.join(subset_mismatches)}"
        elif result["errors"]:
            why = f"{result['errors']} error diagnostics"
        elif result["codes"] != expected_codes:
            why = f"diagnostic counts {result['codes']} != {expected_codes}"
        elif result["queries"] != expected_queries:
            why = f"{result['queries']} queries != {expected_queries}"
        elif result["digest"] != first_digest:
            why = "output differs from the first iteration"
        else:
            continue
        run.fail(why)

    # Timed samples: every compile after the warm-up (see worker.py).
    timed = [(result["seconds"], result["yardstick"]) for result in report["results"] if result["yardstick"] is not None]
    if run.trace:
        dump = json.loads((run.trace_dir / "worker.json").read_text(encoding="utf-8"))
        _layers(run, dump, report["traced_passes"], report["passes"])
        return
    setups = [report["setup_s"]]
    setups += [_worker("compile", {**payload, "setup_only": True})["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    _end_to_end(run, setups, {"compile": timed}, report["peak_rss_kb"])
    run.named["compile_s.p50"] = statistics.median(seconds for seconds, _ in timed)
    run.samples["compile_s.p50"] = len(timed)


def _library_outputs(bispec, model) -> dict[str, str]:
    """The files ``bispec gen`` should write, by path under the output directory."""
    gen = {"schema.sql": bispec.gen_schema_sql(model)}
    for uc in model.use_cases:
        for op in uc.operations:
            gen[f"queries/{uc.id}__{op.id}.sql"] = bispec.gen_olap_sql(model, uc.id, op.id)
    gen["dashboard.json"] = bispec.gen_dashboard_manifest(model)
    gen["requirements.md"] = bispec.gen_requirements_doc(model)
    return gen


def _diagnostic_rows(diags) -> list[tuple]:
    """(file, line, col, code, severity, message) per diagnostic, as ``--json`` prints them."""
    rows = []
    for d in diags:
        where = (d.span.file, d.span.line, d.span.col) if d.span else (None, None, None)
        rows.append((*where, d.code, d.severity.value, d.message))
    return sorted(rows, key=repr)


def _read_tree(folder: Path) -> dict[str, str]:
    if not folder.is_dir():
        return {}
    return {
        path.relative_to(folder).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(folder.rglob("*"))
        if path.is_file()
    }


def cli_oneshot(run: Run) -> None:
    """One client, closed loop, one subprocess at a time: every call pays
    interpreter start, import, parse, check and (for olap) a full load."""
    bispec = _bispec()
    package = _package(run)
    binds = inputs.package_binds(package, run.seed)
    model, ops, expected = _session_reference(bispec, package, binds)
    files = [name for name, _ in session_sources(ROOT)]
    parse_diags = [d for name, text in session_sources(ROOT) for d in bispec.parse_cnlbi(text, name)[1]]
    expected_check = _diagnostic_rows(parse_diags + list(bispec.check_model(model).diagnostics))
    expected_gen = _library_outputs(bispec, model)
    gen_dir = BUILD / "cli_gen"

    # One pass: every operation through `bispec olap`, each followed by a
    # `check` or a `gen` call, alternating.
    calls = []
    for index in range(len(ops)):
        calls.append(("olap", index))
        calls.append(("check" if index % 2 == 0 else "gen", index))
    bind_args = [arg for key in sorted(binds) for arg in ("--bind", f"{key}={binds[key]}")]

    def argv(kind: str, index: int) -> list[str]:
        if kind == "olap":
            uc_id, op_id, _ = ops[index]
            return ["olap", *files, "--data", str(package), "--usecase", uc_id, "--op", op_id, *bind_args, "--format", "csv"]
        if kind == "check":
            return ["check", *files, "--json"]
        return ["gen", *files, "--out-dir", str(gen_dir)]

    def verdict(kind: str, index: int, proc: Child) -> str | None:
        if proc.code != 0:
            return f"exit {proc.code}: {proc.stderr.strip()[-300:]}"
        if kind == "olap":
            return reference.compare(proc.stdout, expected[index])
        if kind == "check":
            lines = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith("{")]
            got = sorted(
                ((d.get("file"), d["line"], d["col"], d["code"], d["severity"], d["message"]) for d in lines), key=repr
            )
            return None if got == expected_check else "check diagnostics differ from the library's"
        return None if _read_tree(gen_dir) == expected_gen else "generated files differ from the library's"

    run.trace_dir.mkdir(parents=True, exist_ok=True)
    timed = []  # [call type, seconds, yardstick] per untraced call, in order
    peak_rss_kb = 0
    hwm_path = BUILD / "cli_peak_rss_kb"
    dumps = []
    passes = Passes(run.seconds, run.trace)
    for number, traced in passes:
        for call, (kind, index) in enumerate(calls):
            if kind == "gen":
                shutil.rmtree(gen_dir, ignore_errors=True)
            if traced:
                spans_path = run.trace_dir / f"call-{number}-{call}.json"
                meta = {"root": str(ROOT), "spans_path": str(spans_path), "phase": number, "op": call}
                command = [sys.executable, str(HERE / "worker.py"), "cli", json.dumps(meta), *argv(kind, index)]
            else:
                command = [sys.executable, "-c", CLI_MAIN, str(hwm_path), *argv(kind, index)]
            hwm_path.unlink(missing_ok=True)
            ruler = None if run.trace else yardstick.measure()
            proc = _call(command)
            if not run.trace:
                timed.append([(kind, index if kind == "olap" else None), proc.seconds, ruler])
            if not traced:
                peak_rss_kb = max(peak_rss_kb, int(hwm_path.read_text(encoding="ascii")))
            run.attempted += 1
            why = verdict(kind, index, proc)
            if why:
                run.fail(f"{kind} {ops[index][1] if kind == 'olap' else ''}: {why}")
            if traced:
                dumps.append(json.loads(spans_path.read_text(encoding="utf-8")))
    shutil.rmtree(gen_dir, ignore_errors=True)

    if run.trace:
        traced_passes = [w["pass"] for w in passes.walls if w["traced"]]
        _layers(run, spans.merge_dumps(dumps), traced_passes, passes.walls)
        return
    rulers = yardstick.bracket([ruler for _, _, ruler in timed], yardstick.measure())
    timings: dict[tuple, list[tuple[float, float]]] = {}
    for (key, seconds, _), ruler in zip(timed, rulers):
        timings.setdefault(key, []).append((seconds, ruler))
    setups = [_import_probe() for _ in range(SETUP_SAMPLES)]
    _end_to_end(run, setups, timings, peak_rss_kb)
    for kind in ("olap", "check", "gen"):
        values = [t for (k, _), times in timings.items() if k == kind for t, _ in times]
        run.named[f"cli_{kind}_s.p50"] = statistics.median(values)
        run.samples[f"cli_{kind}_s.p50"] = len(values)


RUNNERS = {"olap_session_100k": olap_session, "spec_compile_32x": spec_compile, "cli_oneshot_100k": cli_oneshot}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: Scale) -> Run:
    run = Run(workload, seed, seconds, trace, scale)
    RUNNERS[workload](run)
    run.named["failed_frac"] = run.failed / run.attempted if run.attempted else 1.0
    return run


def report_lines(run: Run) -> list[str]:
    mode = "traced" if run.trace else "untraced"
    lines = [f"== {run.workload}  seed={run.seed}  seconds={run.seconds:g}  {mode}"]
    lines.append(f"   attempted={run.attempted} failed={run.failed}")
    lines.extend(f"   problem: {why}" for why in run.problems[:20])
    if run.trace:
        lines.append(f"   {'span':<26}{'calls':>9}{'total_s':>12}{'self_s':>12}")
        for name, calls, total, self_time in run.layer_table:
            lines.append(f"   {name:<26}{calls:>9}{total:>12.4f}{self_time:>12.4f}")
        lines.append(f"   {'per-layer metric':<32}{'value':>16}  unit")
        for name, (unit, _) in PER_LAYER.items():
            lines.append(f"   {name:<32}{run.metrics[name]:>16.6g}  {unit}")
        return lines
    lines.append(f"   {'metric':<20}{'value':>14}  {'unit':<6}samples")
    rows = [(name, run.metrics[name], unit) for name, (unit, _) in END_TO_END.items()]
    rows += [(name, run.named.get(name), unit) for name, unit in {**RAW, **NAMED[run.workload]}.items()]
    for name, value, unit in rows:
        count = run.samples.get(name, "")
        if value is None:
            text = f"n/a (needs {P90_MIN_SAMPLES} samples)"
            lines.append(f"   {name:<20}{text:>14}  {unit:<6}{count}")
        else:
            lines.append(f"   {name:<20}{value:>14.6g}  {unit:<6}{count}")
    return lines


def result_json(run: Run) -> str:
    specs = PER_LAYER if run.trace else END_TO_END
    return json.dumps(
        {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": run.metrics[name], "unit": unit} for name, (unit, _) in specs.items()},
        }
    )


def smoke() -> int:
    """Fixture package and a 2-area spec, every workload untraced and traced."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            run = run_workload(workload, seed=1, seconds=0, trace=trace, scale=SMOKE)
            lines = report_lines(run)
            print("\n".join(lines))
            text = "\n".join(lines)
            table_only = {**RAW, **NAMED[workload]}
            wanted = dict(PER_LAYER) if trace else {**END_TO_END, **{k: (u, None) for k, u in table_only.items()}}
            for name, (unit, _) in wanted.items():
                if not any(line.split()[:1] == [name] and f"  {unit}" in line for line in text.splitlines()):
                    problems.append(f"{workload}: {name} not printed with unit {unit}")
            if run.named["failed_frac"] != 0:
                problems.append(f"{workload}: failed_frac {run.named['failed_frac']}")
    for why in problems:
        print(f"smoke: {why}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def _program_present() -> bool:
    needed = [ROOT / "src" / "bispec" / "__init__.py", ROOT / "corpus" / "medbuddy.cnlbi", ROOT / "corpus" / "medbuddy.asl"]
    return all(path.is_file() for path in needed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast check on the fixture package")
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"error: no bispec sources and corpus under {ROOT}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace), FULL)
        print("\n".join(report_lines(run)))
        print(result_json(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
