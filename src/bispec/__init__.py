"""bispec: compiler and desk-scale OLAP engine for BI requirements.

Two controlled-language frontends (CNL-BI and ASL) parse into one shared
model; semantic checks, an OLAP engine over CSV data packages, and SQL,
dashboard, and documentation generators consume it.
"""

from .asl import emit_asl, parse_asl
from .canonical import canonicalize, model_json
from .cnlbi import emit_cnlbi, parse_cnlbi
from .engine import Cube, EngineError, ResultTable, aggregate, dice_view, evaluate_measure, load_cube, pivot, run_use_case, slice_view
from .generators import GeneratorError, gen_dashboard_manifest, gen_olap_sql, gen_requirements_doc, gen_schema_sql
from .model import AttributePath, SpecificationModel, merge_models
from .semantics import CheckReport, check_model

__all__ = [
    "AttributePath",
    "CheckReport",
    "Cube",
    "EngineError",
    "GeneratorError",
    "ResultTable",
    "SpecificationModel",
    "aggregate",
    "canonicalize",
    "check_model",
    "dice_view",
    "emit_asl",
    "emit_cnlbi",
    "evaluate_measure",
    "gen_dashboard_manifest",
    "gen_olap_sql",
    "gen_requirements_doc",
    "gen_schema_sql",
    "load_cube",
    "merge_models",
    "model_json",
    "parse_asl",
    "parse_cnlbi",
    "pivot",
    "run_use_case",
    "slice_view",
]

__version__ = "0.1.0"
