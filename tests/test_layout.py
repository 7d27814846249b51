"""Module layout rules for ``src/bispec``, read from the source's syntax trees.

No module imports another module's private (``_``-prefixed) names, and the
intra-package import graph has no cycle. Imports inside functions count as
edges too: a deferred import hides a cycle from Python, not from the design.
No module calls ``json.dumps`` with ``indent``, which selects the pure-Python
encoder; ``canonical.indented_json`` writes the same text. The lexer imports
nothing from ``enum``: a token kind is a plain string constant, which the
parsers test for nearly every token at a quarter of the cost of loading an
``Enum`` member. The engine and the SQL generator never name ``MeasureRef``
or ``Aggregate``, and the checks name no measure node at all: measures reach
them only as ``plan.measure_program`` lowered and typed them, so no second
walk over measures can creep back.
Likewise the checks name no OLAP operation kind and import no filter or pivot
planner: an operation reaches them only through ``plan.operation_plan``.
Every bracketed ASL body is read by the one clause loop ``_Parser.body``,
and the error plumbing of both parsers lives once, on ``lexer.Parser``.
Every key of every clause table, in CNL-BI and in ASL, has a reader and a
writer, and each emitter writes a table's clauses only through it, so a
clause's syntax is stated once for reading and writing.
The engine keeps no module-level cache of cube data: what a query derives
and keeps (a reference's postings and member folds) lives on its ``Table``
and dies with the cube, and no other module reads the member folds. Every
measure fold but a Decimal SUM or AVERAGE, whose per-member sums would round
twice, has a rule for combining it from member folds. No class is a
``@dataclass(frozen=True)``: an immutable value is a ``diagnostics.value``,
which compiles one method at import where the frozen dataclass compiles six.
"""

import ast
from pathlib import Path

from bispec import asl, cnlbi, engine

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bispec"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.Module):
    """(imported bispec module, names taken from it, alias the module is bound to) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level == 1
            if relative and node.module is None:  # from . import model as m
                for alias in node.names:
                    yield alias.name, (), alias.asname or alias.name
            elif relative or (node.module or "").startswith("bispec"):
                module = node.module if relative else node.module.partition(".")[2] or "__init__"
                yield module, tuple(alias.name for alias in node.names), None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bispec."):
                    yield alias.name.partition(".")[2], (), alias.asname


def test_modules_use_no_private_names_of_other_modules():
    found = []
    for name, tree in MODULES.items():
        aliases = {}
        for module, names, alias in _imports(tree):
            found += [f"{name} imports {module}.{n}" for n in names if n.startswith("_")]
            if alias is not None:
                aliases[alias] = module
        found += [
            f"{name} reads {aliases[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases and node.attr.startswith("_")
        ]
    assert found == []


def test_import_graph_has_no_cycle():
    graph = {name: {module for module, _, _ in _imports(tree) if module != name} for name, tree in MODULES.items()}
    assert graph["semantics"] >= {"model", "plan"}  # the walk below sees the imports
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for module in sorted(graph.get(name, ())):
                visit(module)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_no_module_calls_json_dumps_with_indent():
    found = [
        f"{name} line {node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "dumps" or getattr(node.func, "id", None) == "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert found == []


def test_lexer_imports_nothing_from_enum():
    found = [
        f"lexer line {node.lineno}"
        for node in ast.walk(MODULES["lexer"])
        if isinstance(node, ast.ImportFrom) and node.module == "enum"
        or isinstance(node, ast.Import) and any(alias.name == "enum" for alias in node.names)
    ]
    assert found == []


def _named(module: str, names: tuple[str, ...]) -> list[str]:
    """The lines of ``module`` that name one of ``names``, bare or as ``m.<name>``."""
    return [
        f"{module} line {node.lineno}"
        for node in ast.walk(MODULES[module])
        if getattr(node, "attr", getattr(node, "id", None)) in names
    ]


def test_engine_and_sql_generator_leave_measure_lowering_to_the_planner():
    assert _named("engine", ("MeasureRef", "Aggregate")) + _named("generators", ("MeasureRef", "Aggregate")) == []


def test_checks_see_measures_only_as_the_planner_typed_them():
    assert _named("semantics", ("MeasureRef", "Aggregate", "Arithmetic", "Literal")) == []


def test_checks_plan_operations_only_through_the_planner():
    kinds = {"Slice", "Dice", "RollUp", "DrillDown", "Pivot"}
    found = [
        f"semantics line {node.lineno} names {node.value}"
        for node in ast.walk(MODULES["semantics"])
        if isinstance(node, ast.Constant) and node.value in kinds
    ]
    found += [
        f"semantics imports {module}.{name}"
        for module, names, _ in _imports(MODULES["semantics"])
        for name in names
        if name == "plan_filters" or "pivot" in name.lower()
    ]
    assert found == []


def _calls_at_punct_close(node) -> bool:
    return any(
        isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "at_punct"
        and [getattr(arg, "value", None) for arg in call.args] == ["]"]
        for call in ast.walk(node)
    )


def test_asl_reads_every_bracketed_body_in_one_loop():
    loops = {
        function.name
        for function in ast.walk(MODULES["asl"]) if isinstance(function, ast.FunctionDef)
        for loop in ast.walk(function) if isinstance(loop, ast.While) and _calls_at_punct_close(loop)
    }
    assert loops == {"body", "skip_block"}


def _tables_in_calls(module, functions: tuple[str, ...]) -> set[str]:
    """The module-level dicts of ``module`` that a call of one of ``functions`` takes as an argument."""
    return {
        arg.id
        for node in ast.walk(MODULES[module.__name__.rpartition(".")[2]]) if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in functions
        for arg in (getattr(arg, "value", arg) for arg in node.args)
        if isinstance(arg, ast.Name) and isinstance(getattr(module, arg.id, None), dict)
    }


def _writes(writer) -> bool:
    """Whether ``writer`` is a writer: a function, or a tuple of functions that run in turn."""
    return callable(writer) or isinstance(writer, tuple) and bool(writer) and all(map(callable, writer))


def test_every_clause_table_entry_has_a_reader_and_a_writer():
    read = {cnlbi: _tables_in_calls(cnlbi, ("clauses",)), asl: _tables_in_calls(asl, ("body", "eat_word"))}
    assert read[cnlbi] == {"_ACTOR", "_USE_CASE", "_OPERATION", "_COMPONENT"}  # the walk sees every table
    assert read[asl] == {
        "_ENTITY", "_ATTRIBUTE", "_CLUSTER", "_ACTOR", "_USE_CASE", "_COMPONENT", "_EVENT", "_CONTAINER", "_ACTION_TAG"
    }
    missing = [
        f"{module.__name__}.{table}[{key!r}]"
        for module, tables in read.items() for table in sorted(tables)
        for key, entry in getattr(module, table).items()
        if not (isinstance(entry, tuple) and len(entry) >= 2 and callable(entry[-2]) and _writes(entry[-1]))
    ]
    assert missing == []
    assert _tables_in_calls(cnlbi, ("_writer",)) == read[cnlbi]
    assert _tables_in_calls(asl, ("_body", "_inline")) == read[asl] | {"_DESCRIPTION"}


def test_parsers_define_no_error_plumbing_of_their_own():
    found = [
        f"{module} defines {node.name}"
        for module in ("asl", "cnlbi")
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.FunctionDef) and node.name in ("fail", "ident", "expect_word")
        or isinstance(node, ast.ClassDef) and (
            node.name.endswith("Error") or any(getattr(base, "id", None) == "Exception" for base in node.bases)
        )
    ]
    assert found == []


_MUTATORS = {"append", "add", "clear", "extend", "insert", "pop", "popitem", "remove", "setdefault", "update"}


def test_engine_keeps_no_module_level_cache_of_cube_data():
    tree = MODULES["engine"]
    found = [f"{at} memoises" for at in _named("engine", ("cache", "lru_cache"))]
    containers = {
        target.id
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(target, ast.Name)
    }
    at_query_time = {
        node for function in ast.walk(tree) if isinstance(function, (ast.FunctionDef, ast.Lambda)) for node in ast.walk(function)
    }
    for node in at_query_time:
        if isinstance(node, ast.Global):
            found.append(f"engine line {node.lineno} rebinds a global")
        written = node.value if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) else (
            node.func.value if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS else None
        )
        if isinstance(written, ast.Name) and written.id in containers:
            found.append(f"engine line {node.lineno} fills module-level {written.id}")
    assert containers >= {"_BOOLEANS", "_PARSERS", "_FOLDS"}  # the walk above sees the module's tables
    assert sorted(found) == []


def test_every_fold_but_a_decimal_sum_combines_from_member_folds():
    folds = {*engine._FOLDS.values(), *engine._INTEGER_FOLDS.values(), engine._hits, len}  # len: COUNT of a NOT NULL column
    assert set(engine._MEMBER_FOLDS) == folds - {engine._decimal_sum, engine._decimal_average}
    assert {each for per_member, _ in engine._MEMBER_FOLDS.values() for each in per_member} <= set(engine._COMBINE)
    assert [at for module in MODULES if module != "engine" for at in _named(module, ("folds", "_member_program"))] == []


def test_immutable_values_are_value_classes_not_frozen_dataclasses():
    found = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "dataclass"
        and any(keyword.arg == "frozen" for keyword in decorator.keywords)
    ]
    assert found == []
