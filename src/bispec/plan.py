"""Query planning: the one place paths, role hops and parameters resolve.

An OLAP operation becomes a frozen ``Plan``: the fact, resolved filter and
group-key columns, and the measures to evaluate. Measures lower into a
``MeasureProgram`` over shared aggregate leaves. The engine executes a plan
and its measure program, the SQL generator renders the same plan and
program, and the semantic checks report the planner's own failures, so the
three cannot disagree about what a path or a measure means.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model as m


class EngineError(Exception):
    """Coded query error (ENG0xx), raised while planning or executing."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def source_fact(source: m.DataEntity | m.DataEntityCluster) -> str:
    """The entity a data source's paths start from: a cluster's ``main``.

    A cluster's ``uses`` list does not widen what a path may reach.
    """
    return source.main if isinstance(source, m.DataEntityCluster) else source.id


def enum_role_attribute(dimension: m.DataEntity, enum_id: str) -> m.DataAttribute | None:
    """The single attribute of ``dimension`` typed by the given enumeration.

    An enum literal compared against a dimension reference compares through
    it (``state = States.Cancelled`` reads ``RequestState.name``).
    """
    matches = [a for a in dimension.attributes if a.attr_type.kind == "enum" and a.attr_type.name == enum_id]
    return matches[0] if len(matches) == 1 else None


def date_role_attribute(dimension: m.DataEntity) -> m.DataAttribute | None:
    """The single Date-typed attribute an aggregated dimension hop lands on
    (``MIN(scheduled_date)`` reads ``Time.date``)."""
    dates = [
        a for a in dimension.attributes
        if a.attr_type.kind == "primitive" and a.attr_type.name in ("Date", "DateTime")
    ]
    return dates[0] if len(dates) == 1 else None


def executable_measures(fact: m.DataEntity) -> tuple[m.DataAttribute, ...]:
    """The fact's measures that can be evaluated (opaque ones are skipped)."""
    return tuple(a for a in fact.measures if not isinstance(a.measure, m.OpaqueMeasure))


# ---------------------------------------------------------------------------
# Columns and filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Column:
    """An attribute read from a fact row by following ``chain``."""

    path: str  # the path as written; names the result column
    chain: tuple[m.Hop, ...]
    attribute: m.DataAttribute


@dataclass(frozen=True)
class Parameter:
    """A free path on a where clause's right side, supplied at run time
    (a measure's predicate may not hold one: measures take no bindings).

    ``name`` is the path's last segment, or all its segments joined by
    ``_`` when another parameter of the same operation already took that
    name. The full dotted ``path`` is accepted as a binding key too.
    """

    name: str
    path: str


@dataclass(frozen=True)
class Filter:
    """``column = value``; ``value`` is a literal or a ``Parameter``."""

    column: Column
    value: object


def column(model: m.SpecificationModel, fact_id: str, path: m.AttributePath) -> Column:
    """Resolve an attribute path against the fact: the one path grammar.

    ``attr`` reads the fact. ``Entity.attr`` reads an entity the fact
    reaches, and ``ref.attr`` hops through a dimension reference of the
    fact. ``Entity.ref.attr`` hops through a dimension reference of the
    entity it names. A named entity is reached through ``hop_chains``.
    """
    fact = model.entity(fact_id)
    if fact is None:
        raise EngineError("ENG030", f"unknown entity {fact_id!r}")

    def fail(reason: str) -> EngineError:
        return EngineError("ENG030", f"cannot resolve {path} from {fact_id}: {reason}")

    segs = path.segments
    anchor, ref, leaf = fact, None, segs[-1]  # the path starts at anchor and may hop through ref
    if len(segs) > 1:
        named = model.entity(segs[0])
        if named is None:
            ref = fact.attribute(segs[0])
            if ref is None or len(segs) != 2:
                raise fail(f"unknown entity {segs[0]!r}")
        else:
            anchor = named
            if len(segs) == 3:
                ref = named.attribute(segs[1])
                if ref is None:
                    raise fail(f"{named.id} has no attribute {segs[1]!r}")
    owner, hop = anchor, ()
    if ref is not None:
        if ref.dimension_target is None:
            raise fail(f"{anchor.id}.{ref.id} does not reference a dimension")
        owner = model.entity(ref.dimension_target)
        if owner is None:
            raise fail(f"unknown entity {ref.dimension_target!r}")
        hop = ((ref.id, owner.id),)
    attribute = owner.attribute(leaf)
    if attribute is None:
        raise fail(f"{owner.id} has no attribute {leaf!r}")
    chain = model.hop_chains(fact_id).get(anchor.id)
    if chain is None:
        raise EngineError("ENG030", f"{anchor.id} is not reachable from {fact_id}")
    return Column(str(path), chain + hop, attribute)


def _role_hop(model: m.SpecificationModel, col: Column, role_of, failure: str) -> Column:
    """``col``, or when it holds a dimension reference, the dimension's role attribute."""
    ref = col.attribute
    if ref.dimension_target is None:
        return col
    dimension = model.entity(ref.dimension_target)
    role = role_of(dimension) if dimension is not None else None
    if role is None:
        raise EngineError("ENG030", failure)
    return Column(col.path, col.chain + ((ref.id, dimension.id),), role)


def aggregate_column(model: m.SpecificationModel, fact_id: str, path: m.AttributePath) -> Column:
    """The column an aggregate reads: a dimension reference lands on its date role."""
    return _role_hop(model, column(model, fact_id, path), date_role_attribute, f"aggregation over {path} is ambiguous")


def plan_filters(model: m.SpecificationModel, fact_id: str, predicates) -> tuple[Filter, ...]:
    """Resolve a conjunction of predicates, naming its parameters once."""
    taken: dict[str, str] = {}  # parameter name -> dotted path
    filters = []
    for pred in predicates:
        col = column(model, fact_id, pred.left)
        right = pred.right
        if isinstance(right, m.EnumLiteral):
            col = _role_hop(
                model, col, lambda dim: enum_role_attribute(dim, right.enum), f"cannot compare {pred.left} against {right}"
            )
            value = right.value
        elif isinstance(right, m.Literal):
            value = right.value
        else:
            name = right.segments[-1]
            if taken.get(name, str(right)) != str(right):
                name = "_".join(right.segments)
            taken[name] = str(right)
            value = Parameter(name, str(right))
        filters.append(Filter(col, value))
    return tuple(filters)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """An aggregate the measures share: ``fn`` over a ``Column``, or COUNT of
    the rows where a ``Filter`` holds."""

    fn: str
    input: Column | Filter


@dataclass(frozen=True)
class MeasureProgram:
    """Measures lowered onto one leaf per distinct aggregate. Each root, one per
    measure, is a leaf index, an ``m.Literal`` or an ``(op, left, right)``
    tuple of roots; measure references are inlined."""

    leaves: tuple[Leaf, ...]
    roots: tuple


def measure_program(model: m.SpecificationModel, fact_id: str, exprs) -> MeasureProgram:
    """Lower the fact's measure expressions; ENG030 for a reference cycle, an
    unknown or opaque measure, a predicate against a free path (measures take
    no bindings), or an unsupported node."""
    leaves: dict[m.Aggregate, int] = {}
    planned: list[Leaf] = []

    def lower(expr, stack: tuple):
        if isinstance(expr, m.Literal):
            return expr
        if isinstance(expr, m.MeasureRef):
            if expr.attribute in stack:
                raise EngineError("ENG030", f"measure reference cycle at {expr.attribute}")
            target = model.entity(fact_id).attribute(expr.attribute)
            if target is None or target.measure is None:
                raise EngineError("ENG030", f"unknown measure {expr.attribute!r}")
            return lower(target.measure, stack + (expr.attribute,))
        if isinstance(expr, m.Arithmetic):
            return (expr.op, lower(expr.left, stack), lower(expr.right, stack))
        if isinstance(expr, m.Aggregate):
            index = leaves.setdefault(expr, len(planned))
            if index == len(planned):
                if isinstance(expr.arg, m.Predicate):
                    (source,) = plan_filters(model, fact_id, (expr.arg,))
                    if isinstance(source.value, Parameter):
                        left, right = expr.arg.left, expr.arg.right
                        raise EngineError("ENG030", f"measure predicate on {left} compares against the free path {right}")
                else:
                    source = aggregate_column(model, fact_id, expr.arg)
                planned.append(Leaf(expr.fn, source))
            return index
        if isinstance(expr, m.OpaqueMeasure):
            raise EngineError("ENG030", f"opaque measure {expr.text!r} cannot be evaluated")
        raise EngineError("ENG030", f"unsupported measure node {expr!r}")

    roots = tuple(lower(expr, ()) for expr in exprs)
    return MeasureProgram(tuple(planned), roots)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """A resolved OLAP operation.

    Slice and Dice keep the fact rows passing every filter. RollUp and
    DrillDown group by ``keys``. A Pivot groups by the label columns of its
    two swapped dimensions, in swap order, and then transposes the result.
    """

    use_case: str
    operation: m.OlapOperation
    fact: m.DataEntity
    filters: tuple[Filter, ...]
    keys: tuple[Column, ...]
    measures: tuple[m.DataAttribute, ...]

    @property
    def kind(self) -> str:
        return self.operation.kind


def pivot_axis(model: m.SpecificationModel, fact: m.DataEntity, dim_id: str) -> m.AttributePath:
    """A pivot axis: the dimension's ``name``, else its key, via the fact's reference to it."""
    dim = model.entity(dim_id)
    fk = next((a for a in fact.dimension_refs if a.dimension_target == dim_id), None)
    if dim is None or fk is None:
        raise EngineError("ENG030", f"{fact.id} has no dimension reference to {dim_id}")
    label = next((a.id for a in dim.attributes if a.id == "name"), None)
    if label is None:
        label = dim.primary_key.id if dim.primary_key else dim.attributes[0].id
    return m.AttributePath((fk.id, label))


def plan_operation(model: m.SpecificationModel, use_case_id: str, op_id: str) -> Plan:
    """Resolve one operation of a use case; ENG030 / ENG031 when it cannot run."""
    uc = model.use_case(use_case_id)
    if uc is None:
        raise EngineError("ENG030", f"unknown use case {use_case_id!r}")
    op = next((o for o in uc.operations if o.id == op_id), None)
    if op is None:
        raise EngineError("ENG030", f"use case {use_case_id} has no operation {op_id!r}")
    if op.is_underspecified:
        raise EngineError("ENG031", f"operation {op_id} was decoded from bare action tags and carries no predicates")
    source = model.data_source(uc.data_source) if uc.data_source else None
    fact = model.entity(source_fact(source)) if source is not None else None
    if fact is None:
        raise EngineError("ENG030", f"use case {use_case_id} has no resolvable data source")

    filters: tuple[Filter, ...] = ()
    keys: tuple[Column, ...] = ()
    if op.kind in ("Slice", "Dice"):
        filters = plan_filters(model, fact.id, op.where_clauses)
    elif op.kind in ("RollUp", "DrillDown"):
        keys = (column(model, fact.id, op.group_by),)
    else:
        keys = tuple(column(model, fact.id, pivot_axis(model, fact, dim_id)) for dim_id in op.swap)
    return Plan(use_case_id, op, fact, filters, keys, executable_measures(fact))
