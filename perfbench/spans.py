"""Outside-in spans around bispec's public functions, for the traced run only.

A ``Tracer`` replaces module attributes with wrappers that record a span
(name, start, end, parent span, phase, operation id) per call, plus counts
taken from the results. Every wrapper sits at the name the caller
looks up: the lexer spans wrap ``cnlbi.tokenize``, ``asl.tokenize`` and
``measure.tokenize``; the CLI's checks wrap ``cli.check_model``; the
benchmark's own calls go through the ``bispec`` package attributes.
``CubeView.rows`` is patched on the class. ``evaluate_measure`` recurses
through its module attribute, so every call is counted but only the
outermost call records a span.

Spans stay in memory until ``dump``. ``layer_metrics`` turns them into the
per-layer metrics: a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SETUP = "setup"


def _tokens(counts, result):
    counts["lexer.tokens"] += len(result[0])


def _diagnostics(counts, result):
    counts["semantics.diagnostics"] += len(result.diagnostics)


def _canonical_bytes(counts, result):
    counts["canonical.bytes"] += len(result.encode("utf-8"))


def _generated_bytes(counts, result):
    counts["generators.bytes"] += len(result.encode("utf-8"))


def _loaded(counts, result):
    cube, diags = result
    counts["engine.load_rows"] += sum(len(table.rows) for table in cube.tables.values())
    counts["engine.load_rejected"] += sum(1 for d in diags if d.code == "ENG003")


def _filtered(counts, result):
    counts["engine.filter_rows_out"] += len(result)


def _grouped(counts, result):
    counts["engine.groups"] += len(result.rows)


# (module under ``bispec``, attribute, span name, count hook run on the result)
WRAPS = (
    ("cnlbi", "tokenize", "lexer.tokenize", _tokens),
    ("asl", "tokenize", "lexer.tokenize", _tokens),
    ("measure", "tokenize", "lexer.tokenize", _tokens),
    ("", "parse_cnlbi", "cnlbi.parse", None),
    ("cnlbi", "parse_cnlbi", "cnlbi.parse", None),
    ("", "parse_asl", "asl.parse", None),
    ("asl", "parse_asl", "asl.parse", None),
    ("", "emit_cnlbi", "cnlbi.emit", None),
    ("cnlbi", "emit_cnlbi", "cnlbi.emit", None),
    ("", "emit_asl", "asl.emit", None),
    ("asl", "emit_asl", "asl.emit", None),
    ("", "merge_models", "model.merge", None),
    ("model", "merge_models", "model.merge", None),
    ("", "check_model", "semantics.check", _diagnostics),
    ("cli", "check_model", "semantics.check", _diagnostics),
    ("semantics", "check_identifiers", "semantics.identifiers", None),
    ("semantics", "check_dimensional", "semantics.dimensional", None),
    ("semantics", "check_measures", "semantics.measures", None),
    ("semantics", "check_use_cases", "semantics.use_cases", None),
    ("semantics", "check_ui", "semantics.ui", None),
    ("", "model_json", "canonical.model_json", _canonical_bytes),
    ("cli", "model_json", "canonical.model_json", _canonical_bytes),
    ("", "gen_schema_sql", "generators.schema", _generated_bytes),
    ("generators", "gen_schema_sql", "generators.schema", _generated_bytes),
    ("", "gen_olap_sql", "generators.olap_sql", _generated_bytes),
    ("generators", "gen_olap_sql", "generators.olap_sql", _generated_bytes),
    ("", "gen_dashboard_manifest", "generators.dashboard", _generated_bytes),
    ("generators", "gen_dashboard_manifest", "generators.dashboard", _generated_bytes),
    ("", "gen_requirements_doc", "generators.doc", _generated_bytes),
    ("generators", "gen_requirements_doc", "generators.doc", _generated_bytes),
    ("", "load_cube", "engine.load", _loaded),
    ("engine", "load_cube", "engine.load", _loaded),
    ("engine.CubeView", "rows", "engine.filter", _filtered),
    ("engine", "aggregate", "engine.group", _grouped),
    ("engine", "pivot", "engine.pivot", None),
    ("", "run_use_case", "engine.dispatch", None),
    ("engine", "run_use_case", "engine.dispatch", None),
    ("engine", "result_to_csv", "engine.render", None),
)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase, op id]
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.phase = SETUP
        self.op = None
        self._stack: list[int] = []
        self._measure_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; the span ends even if it raises."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, args, kwargs, count=None):
        with self.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(self.counts[self.phase], result)
        return result

    # -- patching ----------------------------------------------------------

    def _wrapper(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        return traced

    def _measure_wrapper(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.counts[tracer.phase]["engine.measure_calls"] += 1
            if tracer._measure_depth:
                return fn(*args, **kwargs)
            tracer._measure_depth += 1
            try:
                return tracer.call("engine.measure", fn, args, kwargs)
            finally:
                tracer._measure_depth -= 1

        return traced

    def install(self, bispec) -> None:
        """Patch the loaded ``bispec`` package; modules not imported are skipped."""
        if self._saved:
            return
        for module_name, attr, name, count in WRAPS:
            owner_name, _, cls = module_name.partition(".")
            owner = sys.modules.get(f"bispec.{owner_name}" if owner_name else "bispec")
            if owner is not None and cls:
                owner = getattr(owner, cls)
            if owner is None:
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, count))
        engine = bispec.engine
        original = engine.evaluate_measure
        self._saved.append((engine, "evaluate_measure", original))
        engine.evaluate_measure = self._measure_wrapper(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": {phase: dict(c) for phase, c in self.counts.items()}}


def write(path, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)


def merge_dumps(dumps: list[dict]) -> dict:
    """Concatenate span dumps from several processes, re-basing parent indices."""
    spans: list[list] = []
    counts: dict = defaultdict(lambda: defaultdict(int))
    for dump in dumps:
        offset = len(spans)
        for name, start, end, parent, phase, op in dump["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, phase, op])
        for phase, phase_counts in dump["counts"].items():
            for key, value in phase_counts.items():
                counts[phase][key] += value
    return {"spans": spans, "counts": {phase: dict(c) for phase, c in counts.items()}}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (span name, whether the metric is the span's self time)
SPAN_METRICS = {
    "lexer.tokenize_s": ("lexer.tokenize", True),
    "cnlbi.parse_s": ("cnlbi.parse", True),
    "asl.parse_s": ("asl.parse", True),
    "cnlbi.emit_s": ("cnlbi.emit", True),
    "asl.emit_s": ("asl.emit", True),
    "model.merge_s": ("model.merge", True),
    "semantics.check_s": ("semantics.check", False),
    "semantics.identifiers_s": ("semantics.identifiers", True),
    "semantics.dimensional_s": ("semantics.dimensional", True),
    "semantics.measures_s": ("semantics.measures", True),
    "semantics.use_cases_s": ("semantics.use_cases", True),
    "semantics.ui_s": ("semantics.ui", True),
    "canonical.model_json_s": ("canonical.model_json", True),
    "generators.schema_s": ("generators.schema", True),
    "generators.olap_sql_s": ("generators.olap_sql", True),
    "generators.dashboard_s": ("generators.dashboard", True),
    "generators.doc_s": ("generators.doc", True),
    "engine.load_s": ("engine.load", True),
    "engine.filter_s": ("engine.filter", True),
    "engine.group_s": ("engine.group", True),
    "engine.measure_s": ("engine.measure", True),
    "engine.pivot_s": ("engine.pivot", True),
    "engine.dispatch_s": ("engine.dispatch", True),
    "engine.render_s": ("engine.render", True),
}

COUNT_METRICS = (
    "lexer.tokens",
    "semantics.diagnostics",
    "canonical.bytes",
    "generators.bytes",
    "engine.load_rows",
    "engine.load_rejected",
    "engine.filter_rows_out",
    "engine.groups",
    "engine.measure_calls",
)

# call-count metric -> span name; a span is recorded for failing calls too
CALL_METRICS = {
    "generators.olap_sql_calls": "generators.olap_sql",
    "engine.filter_calls": "engine.filter",
}

# rate metric -> (numerator, denominator)
RATE_METRICS = {
    "lexer.tokens_per_s": ("lexer.tokens", "lexer.tokenize_s"),
    "engine.load_rows_per_s": ("engine.load_rows", "engine.load_s"),
}


def phase_times(spans: list[list]) -> dict:
    """Per phase, per span name: [total duration, self time, calls]."""
    covered = defaultdict(float)
    for name, start, end, parent, phase, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    times: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for index, (name, start, end, parent, phase, op) in enumerate(spans):
        entry = times[str(phase)][name]
        entry[0] += end - start
        entry[1] += end - start - covered[index]
        entry[2] += 1
    return times


def top_level_seconds(spans: list[list], phase) -> float:
    return sum(end - start for name, start, end, parent, p, op in spans if parent < 0 and str(p) == str(phase))


def layer_metrics(dump: dict, passes: list) -> dict[str, float]:
    """Per-layer values: the set-up phase plus the median over traced passes."""
    times = phase_times(dump["spans"])
    counts = dump["counts"]
    passes = [str(p) for p in passes]

    def combine(per_phase) -> float:
        value = per_phase(SETUP)
        if passes:
            value += statistics.median(per_phase(p) for p in passes)
        return value

    metrics: dict[str, float] = {}
    for metric, (span, self_time) in SPAN_METRICS.items():
        column = 1 if self_time else 0
        metrics[metric] = combine(lambda p: times.get(p, {}).get(span, (0.0, 0.0, 0))[column])
    for metric in COUNT_METRICS:
        metrics[metric] = combine(lambda p: counts.get(p, {}).get(metric, 0))
    for metric, span in CALL_METRICS.items():
        metrics[metric] = combine(lambda p: times.get(p, {}).get(span, (0.0, 0.0, 0))[2])
    for metric, (numerator, denominator) in RATE_METRICS.items():
        metrics[metric] = metrics[numerator] / metrics[denominator] if metrics[denominator] > 0 else 0.0
    return metrics
