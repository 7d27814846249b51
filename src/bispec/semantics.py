"""Semantic analysis: name resolution and domain validation over a parsed model.

Checks are pure functions of the model and can run independently; they return
diagnostics rather than raising. ``check_model`` bundles every category and
reports the dimensional schema shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import model as m
from .diagnostics import Diagnostic, error, sorted_diagnostics, warning
from .plan import EngineError, aggregate_column, column, measure_program, pivot_axis, plan_filters, source_fact

_NUMERIC = {"Integer", "Decimal"}
_RESTRICTION_RE = re.compile(r"\bonly\b", re.IGNORECASE)


@dataclass(frozen=True)
class CheckReport:
    diagnostics: tuple[Diagnostic, ...]
    schema_shape: str
    resolved_model: m.SpecificationModel | None

    @property
    def ok(self) -> bool:
        return self.resolved_model is not None


def check_model(model: m.SpecificationModel) -> CheckReport:
    diags: list[Diagnostic] = []
    diags.extend(check_identifiers(model))
    diags.extend(check_dimensional(model))
    diags.extend(check_measures(model))
    diags.extend(check_use_cases(model))
    diags.extend(check_ui(model))
    ordered = tuple(sorted_diagnostics(diags))
    has_errors = any(d.is_error for d in ordered)
    return CheckReport(ordered, schema_shape(model), None if has_errors else model)


def schema_shape(model: m.SpecificationModel) -> str:
    """"star" when no dimension references another dimension, else "snowflake"."""
    for entity in model.dimensions:
        for ref in entity.dimension_refs:
            target = model.entity(ref.dimension_target)
            if target is not None and target.is_dimension:
                return "snowflake"
    return "star"


# ---------------------------------------------------------------------------
# Identifier uniqueness
# ---------------------------------------------------------------------------


def check_identifiers(model: m.SpecificationModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def dupes(items, what: str) -> None:
        seen: dict[str, object] = {}
        for item in items:
            if item.id in seen:
                diags.append(error("SEM050", f"duplicate {what} id {item.id!r}", item.loc))
            else:
                seen[item.id] = item

    dupes(model.enumerations, "enumeration")
    dupes(model.entities, "entity")
    dupes(model.clusters, "cluster")
    dupes(model.actors, "actor")
    dupes(model.use_cases, "use case")
    dupes(model.ui_containers, "container")
    for entity in model.entities:
        dupes(entity.attributes, f"attribute in entity {entity.id}")
    for container in model.ui_containers:
        dupes(container.components, f"component in container {container.id}")
    for uc in model.use_cases:
        dupes(uc.operations, f"operation in use case {uc.id}")
    return diags


# ---------------------------------------------------------------------------
# Dimensional integrity
# ---------------------------------------------------------------------------


def check_dimensional(model: m.SpecificationModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    for entity in model.entities:
        pk_count = sum(1 for a in entity.attributes if a.is_primary_key)
        if pk_count != 1:
            diags.append(
                error("SEM003", f"entity {entity.id} has {pk_count} PrimaryKey attributes; exactly one required", entity.loc)
            )

        for attr in entity.attributes:
            if attr.attr_type.kind == "dimension":
                target = model.entity(attr.attr_type.name)
                if target is None:
                    diags.append(
                        error("SEM001", f"{entity.id}.{attr.id} references unknown entity {attr.attr_type.name!r}", attr.loc)
                    )
                elif not target.is_dimension:
                    diags.append(
                        error(
                            "SEM001",
                            f"{entity.id}.{attr.id} references {target.id}, which is not a Dimension",
                            attr.loc,
                        )
                    )
            elif attr.attr_type.kind == "enum":
                if model.enumeration(attr.attr_type.name) is None:
                    diags.append(
                        error("SEM013", f"{entity.id}.{attr.id} names unknown enumeration {attr.attr_type.name!r}", attr.loc)
                    )
            for constraint in attr.constraints:
                if constraint.kind == "ForeignKey" and model.entity(constraint.target) is None:
                    diags.append(
                        error("SEM001", f"{entity.id}.{attr.id} ForeignKey targets unknown entity {constraint.target!r}", attr.loc)
                    )

        if entity.is_fact and not entity.dimension_refs:
            diags.append(warning("SEM002", f"fact entity {entity.id} references no dimensions", entity.loc))

    for cluster in model.clusters:
        main = model.entity(cluster.main)
        if main is None or not main.is_fact:
            diags.append(error("SEM004", f"cluster {cluster.id} main {cluster.main!r} is not a Fact entity", cluster.loc))
        for member in cluster.uses:
            entity = model.entity(member)
            if entity is None or not entity.is_dimension:
                diags.append(error("SEM005", f"cluster {cluster.id} uses {member!r}, which is not a Dimension entity", cluster.loc))

    return diags


# ---------------------------------------------------------------------------
# Measure typing
# ---------------------------------------------------------------------------


def check_measures(model: m.SpecificationModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for entity in model.entities:
        for attr in entity.measures:
            if isinstance(attr.measure, m.OpaqueMeasure):
                continue
            checked = len(diags)
            inferred = _infer(model, entity, attr, attr.measure, diags)
            if len(diags) == checked:  # the planner reports cycles, unknown and opaque references
                try:
                    measure_program(model, entity.id, (attr.measure,))
                except EngineError as exc:
                    diags.append(error("SEM010", f"in measure {entity.id}.{attr.id}: {exc}", attr.loc))
            if inferred is None:
                continue
            declared = attr.attr_type.name if attr.attr_type.kind == "primitive" else None
            if declared is None:
                diags.append(
                    error("SEM011", f"measure {entity.id}.{attr.id} must be declared with a primitive type", attr.loc)
                )
            elif declared != inferred and not (declared == "Decimal" and inferred == "Integer"):
                diags.append(
                    error(
                        "SEM011",
                        f"measure {entity.id}.{attr.id} is declared {declared} but computes {inferred}",
                        attr.loc,
                    )
                )
    return diags


def _infer(model, entity: m.DataEntity, owner: m.DataAttribute, expr, diags) -> str | None:
    if isinstance(expr, m.Literal):
        if isinstance(expr.value, bool):
            return "Boolean"
        if isinstance(expr.value, int):
            return "Integer"
        if isinstance(expr.value, float):
            return "Decimal"
        return "String"

    if isinstance(expr, m.MeasureRef):  # the target's declared type
        target = entity.attribute(expr.attribute)
        return target.attr_type.name if target is not None and target.attr_type.kind == "primitive" else None

    if isinstance(expr, m.Arithmetic):
        left = _infer(model, entity, owner, expr.left, diags)
        right = _infer(model, entity, owner, expr.right, diags)
        if left is None or right is None:
            return None
        for side in (left, right):
            if side not in _NUMERIC:
                diags.append(
                    error("SEM011", f"arithmetic in {entity.id}.{owner.id} requires numeric operands, got {side}", owner.loc)
                )
                return None
        if expr.op == "/":
            return "Decimal"
        return "Integer" if left == right == "Integer" else "Decimal"

    if isinstance(expr, m.Aggregate):
        if expr.fn == "COUNT":
            if isinstance(expr.arg, m.Predicate):
                _check_predicate(model, entity.id, expr.arg, f"measure {entity.id}.{owner.id}", owner.loc, "SEM011", diags)
            else:
                _argument_type(model, entity, owner, expr.arg, diags)
            return "Integer"
        arg_type = _argument_type(model, entity, owner, expr.arg, diags)
        if expr.fn in ("SUM", "AVERAGE"):
            if arg_type is not None and arg_type not in _NUMERIC:
                diags.append(
                    error("SEM011", f"{expr.fn} in {entity.id}.{owner.id} requires a numeric attribute, got {arg_type}", owner.loc)
                )
                return None
            return "Decimal"
        return arg_type  # MIN/MAX take the argument's type

    return None


def _planned(model, fact_id: str, path: m.AttributePath, context: str, loc, diags, code: str = "SEM022"):
    """The attribute the planner reads for ``path``, or None after ``code`` ``context: <planner reason>``."""
    try:
        return column(model, fact_id, path).attribute
    except EngineError as exc:
        diags.append(error(code, f"{context}: {exc}", path.loc or loc))
        return None


def _argument_type(model, entity: m.DataEntity, owner: m.DataAttribute, path: m.AttributePath, diags) -> str | None:
    attr = _planned(model, entity.id, path, f"in measure {entity.id}.{owner.id}", owner.loc, diags)
    if attr is None:
        return None
    if attr.dimension_target is None:
        return "String" if attr.attr_type.kind == "enum" else attr.attr_type.name
    try:
        role = aggregate_column(model, entity.id, path).attribute
    except EngineError as exc:
        diags.append(
            error(
                "SEM012",
                f"in measure {entity.id}.{owner.id}: {exc}; {attr.dimension_target} has no single Date attribute",
                owner.loc,
            )
        )
        return None
    return "Date" if role.attr_type.name == "DateTime" else role.attr_type.name


def _check_predicate(model, fact_id: str, pred: m.Predicate, where: str, loc, hop_code: str, diags) -> None:
    """The one rule for a measure's COUNT predicate and an operation's where clause.

    An enum role hop the planner cannot make is ``hop_code``: SEM011 in a
    measure, SEM022 in an operation. Each finding reports at the predicate,
    or at ``loc`` when the predicate has no span.
    """
    loc = pred.loc or loc
    context = f"predicate path {pred.left} in {where}"
    left = _planned(model, fact_id, pred.left, context, loc, diags)
    right = pred.right
    if isinstance(right, m.AttributePath):  # a parameter; the planner refuses one in a measure
        _planned(model, fact_id, right, f"predicate path {right} in {where}", loc, diags)
        return
    if isinstance(right, m.EnumLiteral):
        enum = model.enumeration(right.enum)
        if enum is None or right.value not in enum.values:
            diags.append(error("SEM013", f"unknown enum literal {right} in {where}", loc))
            return
    if left is None:
        return
    kind = left.attr_type.name if left.attr_type.kind == "primitive" else left.attr_type.kind
    if isinstance(right, m.Literal):
        value = right.value
        if not (
            isinstance(value, str)
            or (isinstance(value, bool) and kind == "Boolean")
            or (isinstance(value, (int, float)) and not isinstance(value, bool) and kind in _NUMERIC)
        ):
            diags.append(error("SEM011", f"{context}: {value!r} does not match {left.attr_type.name}", loc))
    elif kind == "dimension":
        try:
            plan_filters(model, fact_id, (pred,))  # compares through the dimension's enum role
        except EngineError as exc:
            diags.append(error(hop_code, f"{context}: {exc}", loc))
    elif kind != "enum":
        diags.append(error("SEM011", f"{context} matches an enum literal against {kind}", loc))
    elif left.attr_type.name != right.enum:
        diags.append(error("SEM011", f"{context} mixes enumerations {left.attr_type.name} and {right.enum}", loc))


# ---------------------------------------------------------------------------
# Use cases
# ---------------------------------------------------------------------------


def check_use_cases(model: m.SpecificationModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    actor_ids = {a.id for a in model.actors}

    for actor in model.actors:
        if actor.is_a is not None and actor.is_a not in actor_ids:
            diags.append(error("SEM020", f"actor {actor.id} extends unknown actor {actor.is_a!r}", actor.loc))
    for actor in model.actors:
        seen = {actor.id}
        current = actor
        while current is not None and current.is_a is not None:
            if current.is_a in seen:
                diags.append(error("SEM020", f"actor {actor.id} has a cyclic isA chain", actor.loc))
                break
            seen.add(current.is_a)
            current = model.actor(current.is_a)

    for uc in model.use_cases:
        if uc.primary_actor not in actor_ids:
            diags.append(error("SEM020", f"use case {uc.id} names unknown actor {uc.primary_actor!r}", uc.loc))
        for sup in uc.supporting_actors:
            if sup not in actor_ids:
                diags.append(error("SEM020", f"use case {uc.id} names unknown supporting actor {sup!r}", uc.loc))

        source = model.data_source(uc.data_source) if uc.data_source else None
        if uc.uc_type == "BIAnalysis":
            valid = isinstance(source, m.DataEntityCluster) or (isinstance(source, m.DataEntity) and source.is_fact)
            if not valid:
                diags.append(
                    error("SEM021", f"use case {uc.id} needs a data source naming a Fact entity or a cluster", uc.loc)
                )
                source = None
            if not uc.operations and not uc.action_kinds:
                diags.append(warning("SEM025", f"BI analysis use case {uc.id} declares no operations", uc.loc))
        elif uc.data_source is not None and source is None:
            diags.append(error("SEM021", f"use case {uc.id} names unknown data source {uc.data_source!r}", uc.loc))

        for op in uc.operations:
            diags.extend(_check_operation(model, uc, op, source))

        if uc.description and _RESTRICTION_RE.search(uc.description):
            diags.append(
                warning(
                    "SEM040",
                    f"use case {uc.id} description suggests a role restriction that its operations do not encode",
                    uc.loc,
                )
            )
    return diags


def _check_operation(model, uc: m.UseCase, op: m.OlapOperation, source) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if op.is_underspecified:
        diags.append(
            warning("SEM041", f"operation {op.id} in use case {uc.id} is underspecified (no clause detail)", op.loc)
        )
        return diags
    if source is None:
        return diags
    fact_id = source_fact(source)

    if op.kind in ("Slice", "Dice"):
        expected = "exactly 1" if op.kind == "Slice" else "at least 2"
        count = len(op.where_clauses)
        if (op.kind == "Slice" and count != 1) or (op.kind == "Dice" and count < 2):
            diags.append(
                error("SEM023", f"{op.kind} {op.id} has {count} predicates; {expected} required", op.loc)
            )
        for pred in op.where_clauses:
            _check_predicate(model, fact_id, pred, f"operation {op.id}", op.loc, "SEM022", diags)
    elif op.kind in ("RollUp", "DrillDown"):
        _planned(model, fact_id, op.group_by, f"group-by path {op.group_by} in operation {op.id}", op.loc, diags)
    else:  # Pivot
        fact = model.entity(fact_id)
        for dim_id in op.swap:
            dim = model.entity(dim_id)
            if dim is None or not dim.is_dimension:
                diags.append(error("SEM024", f"pivot {op.id} swaps {dim_id!r}, which is not a dimension", op.loc))
            elif fact is not None:
                try:
                    pivot_axis(model, fact, dim_id)
                except EngineError as exc:
                    diags.append(error("SEM024", f"pivot {op.id} swaps {dim_id}: {exc}", op.loc))
    return diags


# ---------------------------------------------------------------------------
# User interface
# ---------------------------------------------------------------------------


def check_ui(model: m.SpecificationModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    container_ids = {c.id for c in model.ui_containers}
    action_extensions = {x.id for x in model.vocabulary_extensions if x.category == "ActionType"}

    for container in model.ui_containers:
        for comp in container.components:
            binding = model.data_source(comp.data_binding) if comp.data_binding else None
            if comp.data_binding is not None and binding is None:
                diags.append(
                    error("SEM030", f"component {comp.id} binds unknown data source {comp.data_binding!r}", comp.loc)
                )
            if comp.parts and comp.data_binding is None:
                diags.append(error("SEM030", f"component {comp.id} has parts but no data binding", comp.loc))

            for part in comp.parts if binding is not None else ():
                context = f"part {part.id} of {comp.id} binds {part.binding}"
                _planned(model, source_fact(binding), part.binding, context, part.loc, diags, "SEM031")

            if comp.chart_subtype is not None:
                counts: dict[str, int] = {}
                for part in comp.parts:
                    counts[part.part_kind] = counts.get(part.part_kind, 0) + 1
                for kind, required in m.REQUIRED_CHART_PARTS[comp.chart_subtype]:
                    if counts.get(kind, 0) != required:
                        diags.append(
                            error(
                                "SEM032",
                                f"{comp.chart_subtype} {comp.id} requires exactly {required} {kind} part(s), "
                                f"found {counts.get(kind, 0)}",
                                comp.loc,
                            )
                        )

            for action in sorted(comp.actions):
                if action not in m.CHART_ACTIONS and action not in action_extensions:
                    diags.append(error("SEM033", f"component {comp.id} uses unknown action {action!r}", comp.loc))

            if comp.navigates_to is not None and comp.navigates_to not in container_ids:
                diags.append(
                    error("SEM034", f"component {comp.id} navigates to unknown container {comp.navigates_to!r}", comp.loc)
                )

        for event in container.events:
            if event.navigates_to is not None and event.navigates_to not in container_ids:
                diags.append(
                    error("SEM034", f"event {event.id} navigates to unknown container {event.navigates_to!r}", event.loc)
                )
    return diags
