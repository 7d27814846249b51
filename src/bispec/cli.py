"""Command-line surface for batch use: parse, check, convert, gen, olap, fmt.

Each subcommand imports, when it runs, only the modules it needs: a file's
parser by its syntax, the emitter of ``convert``'s target, the generators
for ``gen`` and the engine for ``olap``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import model as m
from .canonical import model_json
from .diagnostics import Diagnostic, error, has_errors, render_json, render_text, sorted_diagnostics, want_color, warning
from .plan import EngineError, Plan, plan_operation
from .semantics import check_model

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2


def _emit_diagnostics(diags: list[Diagnostic], as_json: bool) -> None:
    color = want_color(sys.stderr)
    for diag in sorted_diagnostics(diags):
        line = render_json(diag) if as_json else render_text(diag, color)
        print(line, file=sys.stderr)


def _syntax_for(path: str, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    if path.endswith(".cnlbi"):
        return "cnlbi"
    if path.endswith(".asl"):
        return "asl"
    raise SystemExit_usage(f"cannot infer syntax for {path!r}; pass --syntax cnlbi|asl")


def SystemExit_usage(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _read_source(path: str) -> str:
    """A spec file's text, or stdin's for ``-``, decoded as UTF-8 less a leading BOM."""
    if path != "-":
        data = Path(path).read_bytes()
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()
    else:  # a text stream put in place of stdin
        return sys.stdin.read()
    return data.decode("utf-8-sig")


def _parse_files(paths: list[str], syntax: str) -> tuple[m.SpecificationModel, list[Diagnostic]]:
    models = []
    diags: list[Diagnostic] = []
    for path in paths:
        if path == "-" and syntax == "auto":
            raise SystemExit_usage("reading from stdin requires an explicit --syntax")
        chosen = _syntax_for(path, syntax)
        name = "<stdin>" if path == "-" else path
        unreadable = "CNL000" if chosen == "cnlbi" else "ASL000"
        try:
            source = _read_source(path)
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            diags.append(error(unreadable, f"{name} line {line}: not UTF-8 text"))
            continue
        except OSError as exc:
            diags.append(error(unreadable, f"cannot read {name}: {exc.strerror}"))
            continue
        if chosen == "cnlbi":
            from .cnlbi import parse_cnlbi as parse
        else:
            from .asl import parse_asl as parse
        model, file_diags = parse(source, name)
        models.append(model)
        diags.extend(file_diags)
    return m.merge_models(models), diags


def cmd_parse(args) -> int:
    model, diags = _parse_files(args.files, args.syntax)
    _emit_diagnostics(diags, args.json)
    if args.emit == "model-json":
        sys.stdout.write(model_json(model))
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def cmd_check(args) -> int:
    model, diags = _parse_files(args.files, args.syntax)
    report = check_model(model)
    diags = diags + list(report.diagnostics)
    _emit_diagnostics(diags, args.json)
    print(f"schema shape: {report.schema_shape}", file=sys.stderr)
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def cmd_convert(args) -> int:
    """Re-emit one file in ``--to``; ``fmt`` passes no ``--to`` and keeps the input syntax."""
    target = args.to or _syntax_for(args.file, args.syntax)
    model, diags = _parse_files([args.file], args.syntax)
    if has_errors(diags):
        _emit_diagnostics(diags, args.json)
        return EXIT_DIAGNOSTICS
    if target == "cnlbi":
        from .cnlbi import emit_cnlbi as emit
    else:
        from .asl import emit_asl as emit
    text, emit_diags = emit(model)
    _emit_diagnostics(diags + emit_diags, args.json)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import generators

    model, diags = _parse_files(args.files, args.syntax)
    report = check_model(model)
    diags = diags + list(report.diagnostics)
    _emit_diagnostics(diags, args.json)
    if has_errors(diags):
        return EXIT_DIAGNOSTICS

    wanted = set(args.only) if args.only else {"sql", "queries", "dashboard", "doc"}
    files: dict[str, str] = {}  # path under the output directory -> text
    if "sql" in wanted:
        try:
            files["schema.sql"] = generators.gen_schema_sql(model)
        except generators.GeneratorError as exc:
            _emit_diagnostics([error(exc.code, str(exc))], args.json)
            return EXIT_DIAGNOSTICS
    if "queries" in wanted:
        skipped = []
        for uc in model.use_cases:
            for op in uc.operations:
                try:
                    files[f"queries/{uc.id}__{op.id}.sql"] = generators.gen_olap_sql(model, uc.id, op.id)
                except generators.GeneratorError as exc:
                    skipped.append(warning(exc.code, f"skipping {uc.id}/{op.id}: {exc}"))
        _emit_diagnostics(skipped, args.json)
    if "dashboard" in wanted:
        files["dashboard.json"] = generators.gen_dashboard_manifest(model)
    if "doc" in wanted:
        files["requirements.md"] = generators.gen_requirements_doc(model)

    target = out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if "queries" in wanted:
            target = out_dir / "queries"
            target.mkdir(exist_ok=True)
        for name, text in files.items():
            target = out_dir / name
            target.write_text(text, encoding="utf-8")
    except OSError as exc:
        _emit_diagnostics([error("GEN020", f"cannot write {target}: {exc.strerror}")], args.json)
        return EXIT_DIAGNOSTICS
    return EXIT_OK


def cmd_olap(args) -> int:
    from . import engine

    model, diags = _parse_files(args.files, args.syntax)
    report = check_model(model)
    diags = diags + list(report.diagnostics)
    if has_errors(diags):
        _emit_diagnostics(diags, args.json)
        return EXIT_DIAGNOSTICS

    # the bindings and the plan come before the load, so a mistake in either costs none
    binds = args.bind or []
    unplanned = [error("ENG010", f"--bind expects key=value, got {bind!r}") for bind in binds if "=" not in bind]
    bindings = dict(bind.split("=", 1) for bind in binds if "=" in bind)
    try:
        plan = plan_operation(model, args.usecase, args.op)
    except EngineError as exc:
        unplanned.append(error(exc.code, str(exc)))
    if unplanned:
        _emit_diagnostics(diags + unplanned, args.json)
        return EXIT_DIAGNOSTICS

    cube, load_diags = engine.load_cube(model, args.data)
    diags = diags + load_diags
    _emit_diagnostics(diags, args.json)
    if has_errors(diags):
        return EXIT_DIAGNOSTICS

    try:
        _emit_diagnostics(_unused_bindings(plan, bindings), args.json)
        result = engine.run_plan(cube, plan, bindings)
    except EngineError as exc:
        _emit_diagnostics([error(exc.code, str(exc))], args.json)
        return EXIT_DIAGNOSTICS
    render = engine.result_to_csv if args.format == "csv" else engine.result_to_table
    sys.stdout.write(render(result))
    return EXIT_OK


def _unused_bindings(plan: Plan, bindings: dict) -> list[Diagnostic]:
    """A warning for each ``--bind`` key that supplies none of the operation's parameters."""
    params = ", ".join(f"{param.name} ({param.path})" for param in plan.parameters)
    takes = f"takes {params}" if params else "takes no parameters"
    used = {param.key(bindings) for param in plan.parameters}
    return [
        warning("ENG011", f"--bind {key} is not used by operation {plan.operation.id}, which {takes}")
        for key in bindings
        if key not in used
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bispec", description="BI requirements compiler and OLAP runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, multi: bool = True):
        if multi:
            p.add_argument("files", nargs="+", help="input files (.cnlbi / .asl); '-' for stdin")
        else:
            p.add_argument("file", help="input file; '-' for stdin")
        p.add_argument("--syntax", choices=["cnlbi", "asl", "auto"], default="auto")
        p.add_argument("--json", action="store_true", help="machine-readable diagnostics on stderr")

    p = sub.add_parser("parse", help="parse files and optionally emit the canonical model")
    add_common(p)
    p.add_argument("--emit", choices=["model-json"], default=None)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="parse and run all semantic checks")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="convert one file to the other syntax")
    add_common(p, multi=False)
    p.add_argument("--to", choices=["cnlbi", "asl"], required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("fmt", help="canonical re-emit in the same syntax")
    add_common(p, multi=False)
    p.set_defaults(func=cmd_convert, to=None)

    p = sub.add_parser("gen", help="generate SQL, dashboard manifest, and documentation")
    add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--only", action="append", choices=["sql", "queries", "dashboard", "doc"])
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("olap", help="run one OLAP operation against a data package")
    add_common(p)
    p.add_argument("--data", required=True, help="data package directory (manifest.toml + CSVs)")
    p.add_argument("--usecase", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--bind", action="append", metavar="KEY=VALUE")
    p.add_argument("--format", choices=["csv", "table"], default="table")
    p.set_defaults(func=cmd_olap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
