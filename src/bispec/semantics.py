"""Semantic analysis: name resolution and domain validation over a parsed model.

Checks are pure functions of the model and can run independently; they return
diagnostics rather than raising. ``check_model`` bundles every category and
reports the dimensional schema shape.
"""

from __future__ import annotations

import re

from . import model as m
from .diagnostics import Diagnostic, error, sorted_diagnostics, value, warning
from .plan import EngineError, column, executable_measures, measure_program, operation_plan, source_fact

_RESTRICTION_RE = re.compile(r"\bonly\b", re.IGNORECASE)


@value
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

    on_cycle = model.reference_cycles()  # the engine loads them; only the DDL cannot order them
    if on_cycle:
        names = ", ".join(e.id for e in on_cycle)
        diags.append(warning("SEM006", f"reference cycle among entities: {names}; gen cannot order their tables", on_cycle[0].loc))

    return diags


# ---------------------------------------------------------------------------
# Measure typing
# ---------------------------------------------------------------------------


def check_measures(model: m.SpecificationModel) -> list[Diagnostic]:
    """Lower every executable measure through the planner and compare the type it
    computes with the declared one (Decimal accepts Integer). A lowering
    failure is reported only at the measure whose own expression fails."""
    diags: list[Diagnostic] = []
    for entity in model.entities:
        for attr, lowered in _lowered(model, entity.id, executable_measures(entity)):
            where = f"in measure {entity.id}.{attr.id}"
            declared = attr.attr_type.name if attr.attr_type.kind == "primitive" else None
            if isinstance(lowered, EngineError):
                if lowered.measure in (None, attr.id):  # else the referenced measure reports it
                    diags.append(_refused(lowered, where, attr.loc, "SEM011"))
            elif lowered is not None and declared is None:
                diags.append(error("SEM011", f"{where}: must be declared with a primitive type", attr.loc))
            elif lowered not in (None, declared) and (declared, lowered) != ("Decimal", "Integer"):
                diags.append(error("SEM011", f"{where}: declared {declared} but computes {lowered}", attr.loc))
    return diags


def _lowered(model, fact_id: str, measures) -> list:
    """Each measure with the type the planner lowers it to, or with the planner's
    first failure in it. The measures lower in one call; only when that call
    fails does each lower on its own, so that every failing measure is found."""
    try:
        return list(zip(measures, measure_program(model, fact_id, [a.measure for a in measures]).types))
    except EngineError as exc:
        if len(measures) == 1:
            return [(measures[0], exc)]
    return [pair for attr in measures for pair in _lowered(model, fact_id, (attr,))]


_RULE_CODES = {
    "path": "SEM022", "date role": "SEM012", "type": "SEM011", "enum literal": "SEM013", "planner": "SEM010",
    "data source": "SEM021", "arity": "SEM023", "pivot": "SEM024",
}


def _refused(exc: EngineError, where: str, loc, enum_role_code: str) -> Diagnostic:
    """The planner's failure ``<where>: <reason>``, coded by the rule it names."""
    code = enum_role_code if exc.rule == "enum role" else _RULE_CODES[exc.rule]
    return error(code, f"{where}: {exc}", exc.span or loc)


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
            if op.is_underspecified:
                diags.append(
                    warning("SEM041", f"operation {op.id} in use case {uc.id} is underspecified (no clause detail)", op.loc)
                )
            elif source is not None:  # else SEM021 is reported above
                try:
                    operation_plan(model, uc, op)
                except EngineError as exc:
                    diags.append(_refused(exc, f"in operation {op.id}", op.loc, "SEM022"))

        if uc.description and _RESTRICTION_RE.search(uc.description):
            diags.append(
                warning(
                    "SEM040",
                    f"use case {uc.id} description suggests a role restriction that its operations do not encode",
                    uc.loc,
                )
            )
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
                try:
                    column(model, source_fact(binding), part.binding)
                except EngineError as exc:
                    diags.append(error("SEM031", f"in part {part.id} of {comp.id}: {exc}", exc.span or part.loc))

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
