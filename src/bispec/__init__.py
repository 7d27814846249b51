"""bispec: compiler and desk-scale OLAP engine for BI requirements.

Two controlled-language frontends (CNL-BI and ASL) parse into one shared
model; semantic checks, an OLAP engine over CSV data packages, and SQL,
dashboard, and documentation generators consume it. Each public name and
submodule is imported on first use (PEP 562), so a caller loads only those.
"""

import importlib

_EXPORTS = {  # each public name -> the submodule that defines it
    name: module
    for module, names in {
        "asl": ("emit_asl", "parse_asl"),
        "canonical": ("canonicalize", "model_json"),
        "cnlbi": ("emit_cnlbi", "parse_cnlbi"),
        "engine": ("Cube", "EngineError", "ResultTable", "aggregate", "dice_view", "evaluate_measure", "load_cube", "pivot",
                   "run_use_case", "slice_view"),
        "generators": ("GeneratorError", "gen_dashboard_manifest", "gen_olap_sql", "gen_requirements_doc", "gen_schema_sql"),
        "model": ("AttributePath", "SpecificationModel", "merge_models"),
        "semantics": ("CheckReport", "check_model"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, kept in the package once its submodule is imported, or a submodule."""
    if name in _EXPORTS:
        globals()[name] = value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # a submodule that failed to import one of its own imports
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
