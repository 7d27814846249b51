"""Deterministic emitters from a checked model.

Star/snowflake DDL, per-operation SQL, a dashboard manifest, and a
stakeholder-readable requirements document. All output is a pure function of
the model: byte-identical across runs and across reorderings of the input
declarations.
"""

from __future__ import annotations

from . import measure as mx
from . import model as m
from .canonical import indented_json
from .plan import (Column, EngineError, Filter, MeasureProgram, Parameter, Plan, column, measure_program, plan_operation, read_type,
                   source_fact)
from .semantics import schema_shape

_SQL_TYPES = {
    "UUID": "CHAR(36)",
    "Integer": "INTEGER",
    "Decimal": "DECIMAL(18,6)",
    "Boolean": "BOOLEAN",
    "Date": "DATE",
    "Time": "TIME",
    "DateTime": "TIMESTAMP",
}


class GeneratorError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _ident(name: str) -> str:
    # Identifiers are double-quoted verbatim; no case folding anywhere.
    return f'"{name}"'


def _sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _sql_literal(value) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    return _sql_string(str(value))


def _column_type(model: m.SpecificationModel, attr: m.DataAttribute) -> str:
    """The SQL type of the values the engine reads for ``attr`` (``plan.read_type``):
    a reference takes its target's key type, else CHAR(36)."""
    t = read_type(model, attr)
    if t is not None and t.kind == "primitive":
        if t.name == "String":
            return f"VARCHAR({t.length if t.length is not None else 255})"
        return _SQL_TYPES[t.name]
    return "VARCHAR(255)" if t is not None and t.kind == "enum" else "CHAR(36)"


def _topological_entities(model: m.SpecificationModel) -> tuple[m.DataEntity, ...]:
    """Dimensions before the facts that reference them; GEN001 on cycles."""
    ordered, cyclic = model.reference_order()
    if cyclic:  # name only the entities on a cycle, not those behind one
        names = ", ".join(e.id for e in model.reference_cycles())
        raise GeneratorError("GEN001", f"reference cycle among entities: {names}")
    return ordered


def gen_schema_sql(model: m.SpecificationModel) -> str:
    """ANSI DDL: one CREATE TABLE per entity, measures as a comment block."""
    lines = [
        "-- Generated star/snowflake schema",
        f"-- shape: {schema_shape(model)}" if model.entities else "-- shape: empty",
        "",
    ]
    if not model.entities:
        return "\n".join(lines[:2]) + "\n"

    for entity in _topological_entities(model):
        stored = [a for a in entity.attributes if not a.is_measure]
        column_lines: list[str] = []
        table_constraints: list[str] = []
        for attr in stored:
            parts = [f"  {_ident(attr.id)} {_column_type(model, attr)}"]
            kinds = {c.kind for c in attr.constraints}
            if attr.is_primary_key:
                parts.append("PRIMARY KEY")
            if attr.not_null:  # SQLite keeps NULL keys in a PRIMARY KEY column unless NOT NULL is declared
                parts.append("NOT NULL")
            if "Unique" in kinds and not attr.is_primary_key:
                parts.append("UNIQUE")
            if attr.default_value is not None:
                parts.append(f"DEFAULT {_sql_literal(attr.default_value.value)}")
            if attr.attr_type.kind == "enum":
                enum = model.enumeration(attr.attr_type.name)
                if enum is not None:
                    values = ", ".join(_sql_string(v) for v in enum.values)
                    parts.append(f"CHECK ({_ident(attr.id)} IN ({values}))")
            column_lines.append(" ".join(parts))

            own = [attr.dimension_target] if attr.dimension_target else []
            declared = sorted(c.target for c in attr.constraints if c.kind == "ForeignKey")
            for target_id in own + declared:
                target = model.entity(target_id)
                pk = target.primary_key if target else None
                if pk is not None:
                    table_constraints.append(
                        f"  FOREIGN KEY ({_ident(attr.id)}) REFERENCES {_ident(target.id)} ({_ident(pk.id)})"
                    )

        lines.append(f"CREATE TABLE {_ident(entity.id)} (")
        lines.append(",\n".join(column_lines + table_constraints))
        lines.append(");")
        if entity.measures:
            lines.append(f"-- measures of {entity.id} (computed, not stored):")
            for attr in entity.measures:
                lines.append(f"--   {attr.id} = {mx.measure_text(attr.measure)}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# OLAP queries
# ---------------------------------------------------------------------------


class _JoinSet:
    """Join aliases for the hop chains a query touches."""

    def __init__(self, model: m.SpecificationModel, fact: m.DataEntity):
        self.model = model
        self.fact = fact
        self.aliases: dict[tuple, tuple[str, str]] = {}  # chain -> (alias, entity id)

    def column(self, col: Column) -> str:
        if not col.chain:
            return f'"f".{_ident(col.attribute.id)}'
        return f"{self._alias(col.chain)}.{_ident(col.attribute.id)}"

    def _alias(self, chain: tuple) -> str:
        for length in range(1, len(chain) + 1):
            prefix = chain[:length]
            if prefix not in self.aliases:
                name = '"j_' + "_".join(fk for fk, _ in prefix) + '"'
                self.aliases[prefix] = (name, prefix[-1][1])
        return self.aliases[chain][0]

    def join_clauses(self) -> list[str]:
        clauses = []
        for chain in sorted(self.aliases, key=lambda c: (len(c), c)):
            alias, entity_id = self.aliases[chain]
            fk_attr_id, _ = chain[-1]
            if len(chain) == 1:
                owner_alias, owner_entity = '"f"', self.fact
            else:
                owner_alias, owner_id = self.aliases[chain[:-1]]
                owner_entity = self.model.entity(owner_id)
            fk_attr = owner_entity.attribute(fk_attr_id)
            target = self.model.entity(entity_id)
            pk = target.primary_key
            join = "JOIN" if fk_attr.not_null else "LEFT JOIN"
            clauses.append(
                f"{join} {_ident(target.id)} {alias} ON {owner_alias}.{_ident(fk_attr_id)} = {alias}.{_ident(pk.id)}"
            )
        return clauses


def _measure_sql(joins: _JoinSet, program: MeasureProgram) -> list[str]:
    """Each root of a measure program as one SQL expression."""
    leaves = [
        f"COUNT(CASE WHEN {_filter_sql(joins, leaf.input)} THEN 1 END)" if isinstance(leaf.input, Filter)
        else f"{'AVG' if leaf.fn == 'AVERAGE' else leaf.fn}({joins.column(leaf.input)})"
        for leaf in program.leaves
    ]

    def render(node) -> str:
        if isinstance(node, int):
            return leaves[node]
        if isinstance(node, m.Literal):
            return _sql_literal(node.value)
        op, left, right = node[0], render(node[1]), render(node[2])
        if op == "/":
            return f"(CAST({left} AS REAL) / NULLIF({right}, 0))"
        return f"({left} {op} {right})"

    return [render(root) for root in program.roots]


def _filter_sql(joins: _JoinSet, filt: Filter) -> str:
    if isinstance(filt.value, Parameter):
        return f"{joins.column(filt.column)} = :{filt.value.name}"
    return f"{joins.column(filt.column)} = {_sql_literal(filt.value)}"


def gen_olap_sql(model: m.SpecificationModel, use_case_id: str, op_id: str) -> str:
    try:
        return _plan_sql(model, plan_operation(model, use_case_id, op_id))
    except EngineError as exc:
        raise GeneratorError("GEN010", str(exc)) from None


def _plan_sql(model: m.SpecificationModel, plan: Plan) -> str:
    fact = plan.fact
    op = plan.operation
    joins = _JoinSet(model, fact)
    header = [f"-- {op.kind}: {plan.use_case} / {op.id}"]
    if op.description:
        header.append(f"-- {op.description}")

    if plan.kind in ("Slice", "Dice"):
        conditions = [_filter_sql(joins, filt) for filt in plan.filters]
        select = ['SELECT "f".*', f"FROM {_ident(fact.id)} \"f\""]
        select.extend(joins.join_clauses())
        select.append("WHERE " + "\n  AND ".join(conditions))
        return "\n".join(header + select) + ";\n"

    keys = plan.keys
    if plan.kind == "Pivot":  # grouped over both swap axes; the transpose happens engine-side
        header.append("-- pivot: axes swapped when rendering; cells are unchanged")
        keys = keys[::-1]

    key_cols = [(joins.column(key), key.path) for key in keys]
    program = measure_program(model, fact.id, [attr.measure for attr in plan.measures])
    measure_cols = list(zip(_measure_sql(joins, program), (attr.id for attr in plan.measures)))
    select_list = [f"{expr} AS {_ident(label)}" for expr, label in key_cols + measure_cols]
    query = ["SELECT " + ",\n       ".join(select_list), f"FROM {_ident(fact.id)} \"f\""]
    query.extend(joins.join_clauses())
    query.append("GROUP BY " + ", ".join(expr for expr, _ in key_cols))
    query.append("ORDER BY " + ", ".join(expr for expr, _ in key_cols))
    return "\n".join(header + query) + ";\n"


# ---------------------------------------------------------------------------
# Dashboard manifest
# ---------------------------------------------------------------------------


def _binding_info(model: m.SpecificationModel, context: str | None, path: m.AttributePath) -> dict:
    """The part's path and, when the planner reads it from the component's data
    source, the entity and attribute it lands on."""
    info = {"path": str(path)}
    source = model.data_source(context) if context is not None else None
    if source is not None:
        fact_id = source_fact(source)
        try:
            col = column(model, fact_id, path)
        except EngineError:
            return info
        info["entity"] = col.chain[-1][1] if col.chain else fact_id
        info["attribute"] = col.attribute.id
    return info


def gen_dashboard_manifest(model: m.SpecificationModel) -> str:
    """Neutral JSON contract for dashboards: containers, components, bindings."""
    containers = []
    for container in sorted(model.ui_containers, key=lambda c: c.id):
        components = []
        for comp in container.components:
            binding = None
            if comp.data_binding is not None:
                source = model.data_source(comp.data_binding)
                kind = "cluster" if isinstance(source, m.DataEntityCluster) else "entity"
                binding = {"kind": kind, "id": comp.data_binding}
            components.append(
                {
                    "id": comp.id,
                    "name": comp.display_name,
                    "type": comp.component_type,
                    "subtype": comp.component_subtype,
                    "dataBinding": binding,
                    "parts": [
                        {
                            "id": part.id,
                            "name": part.display_name,
                            "kind": part.part_kind,
                            "binding": _binding_info(model, comp.data_binding, part.binding),
                        }
                        for part in comp.parts
                    ],
                    "actions": sorted(comp.actions),
                    "navigatesTo": comp.navigates_to,
                    "tags": [{"name": name, "value": value} for name, value in comp.tags],
                }
            )
        containers.append(
            {
                "id": container.id,
                "name": container.display_name,
                "type": container.container_type,
                "subtype": container.container_subtype,
                "components": components,
                "navigation": [
                    {"id": e.id, "type": e.event_type, "subtype": e.event_subtype, "to": e.navigates_to}
                    for e in container.events
                ],
            }
        )
    return indented_json({"version": 1, "containers": containers}) + "\n"


# ---------------------------------------------------------------------------
# Requirements document
# ---------------------------------------------------------------------------


_KIND_PROSE = {
    "Slice": "Filter the data",
    "Dice": "Filter the data",
    "RollUp": "Aggregate to a coarser view",
    "DrillDown": "Aggregate to a finer view",
    "Pivot": "Swap the result axes",
}


def _operation_prose(op: m.OlapOperation) -> str:
    head = _KIND_PROSE[op.kind]
    if op.kind in ("Slice", "Dice") and op.where_clauses:
        conds = " and ".join(
            f"{p.left} equals {mx.operand_text(p.right)}" for p in op.where_clauses
        )
        return f"{head} keeping rows where {conds}."
    if op.kind in ("RollUp", "DrillDown") and op.group_by is not None:
        return f"{head}, grouped by {op.group_by}."
    if op.kind == "Pivot" and op.swap is not None:
        return f"{head}: {op.swap[0]} with {op.swap[1]}."
    if op.touched_dimensions:
        return f"{head} over dimensions {', '.join(op.touched_dimensions)} (detail unspecified)."
    return f"{head} (detail unspecified)."


def gen_requirements_doc(model: m.SpecificationModel) -> str:
    out: list[str] = ["# Requirements Overview", ""]

    if model.enumerations or model.entities or model.clusters:
        out.append("## Data Model")
        out.append("")
        for enum in sorted(model.enumerations, key=lambda e: e.id):
            out.append(f"- Enumeration **{enum.id}**: {', '.join(enum.values)}")
        if model.enumerations:
            out.append("")
        for entity in sorted(model.entities, key=lambda e: e.id):
            classification = entity.entity_type + (f" / {entity.sub_type}" if entity.sub_type else "")
            out.append(f"### {entity.id} — {classification}")
            out.append("")
            if entity.description:
                out.append(entity.description)
                out.append("")
            out.append("| Attribute | Type | Constraints |")
            out.append("| --- | --- | --- |")
            for attr in entity.attributes:
                if attr.is_measure:
                    continue
                if attr.attr_type.kind == "dimension":
                    type_text = f"reference to {attr.attr_type.name}"
                elif attr.attr_type.kind == "enum":
                    type_text = f"enumeration {attr.attr_type.name}"
                else:
                    type_text = attr.attr_type.name
                    if attr.attr_type.length is not None:
                        type_text += f"({attr.attr_type.length})"
                kinds = sorted(c.kind for c in attr.constraints)
                out.append(f"| {attr.id} | {type_text} | {', '.join(kinds) if kinds else ''} |")
            out.append("")
        for cluster in sorted(model.clusters, key=lambda c: c.id):
            out.append(f"### Cluster {cluster.id}")
            out.append("")
            out.append(f"Main entity {cluster.main}; uses {', '.join(cluster.uses) if cluster.uses else 'nothing'}.")
            out.append("")

    measured = [e for e in sorted(model.entities, key=lambda e: e.id) if e.measures]
    if measured:
        out.append("## Measures")
        out.append("")
        for entity in measured:
            for attr in entity.measures:
                out.append(f"- **{entity.id}.{attr.id}** ({attr.attr_type.name}): `{mx.measure_text(attr.measure)}`")
        out.append("")

    if model.actors or model.use_cases:
        out.append("## Actors & Use Cases")
        out.append("")
        for actor in sorted(model.actors, key=lambda a: a.id):
            suffix = f" — {actor.description}" if actor.description else ""
            out.append(f"- **{actor.display_name}** ({actor.actor_type}){suffix}")
        if model.actors:
            out.append("")
        for uc in sorted(model.use_cases, key=lambda u: u.id):
            out.append(f"### {uc.display_name}")
            out.append("")
            line = f"{uc.uc_type} performed by {uc.primary_actor}"
            if uc.data_source:
                line += f" over {uc.data_source}"
            out.append(line + ".")
            if uc.description:
                out.append("")
                out.append(uc.description)
            out.append("")
            for op in uc.operations:
                out.append(f"- **{op.display_name}** ({op.kind}): {_operation_prose(op)}")
            if uc.operations:
                out.append("")

    if model.ui_containers:
        out.append("## User Interface")
        out.append("")
        for container in sorted(model.ui_containers, key=lambda c: c.id):
            out.append(f"### {container.display_name}")
            out.append("")
            for comp in container.components:
                kind = comp.component_subtype or comp.component_type
                bind = f" bound to {comp.data_binding}" if comp.data_binding else ""
                out.append(f"- **{comp.display_name}** ({kind}){bind}")
                for part in comp.parts:
                    out.append(f"  - {part.part_kind}: {part.binding}")
                if comp.actions:
                    out.append(f"  - actions: {', '.join(sorted(comp.actions))}")
                if comp.navigates_to:
                    out.append(f"  - navigates to {comp.navigates_to}")
            out.append("")

    text = "\n".join(out).rstrip("\n")
    return text + "\n"
