"""Query planning: the one place paths, role hops and parameters resolve.

An OLAP operation becomes a frozen ``Plan``: the fact, resolved filter and
group-key columns, and the measures to evaluate. Measures lower into a
typed ``MeasureProgram`` over shared aggregate leaves. The engine executes a
plan and its measure program, the SQL generator renders the same plan and
program, and the semantic checks report the planner's own failures, so the
three cannot disagree about what a path, a predicate or a measure means.
"""

from __future__ import annotations

from . import model as m
from .diagnostics import value


class EngineError(Exception):
    """Coded query error (ENG0xx), raised while planning or executing. A planning
    failure names its ``rule`` ("path", "date role", "enum role", "type", "enum
    literal", "arity", "pivot", "data source", else "planner") and the ``span``
    of the failing path or predicate; ``measure`` names the referenced measure
    whose own expression failed."""

    def __init__(self, code: str, message: str, rule: str = "planner", span=None):
        super().__init__(message)
        self.code = code
        self.rule = rule
        self.span = span
        self.measure = None


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


_NUMERIC = {"Integer", "Decimal"}


def _literal_type(value) -> str:
    if isinstance(value, bool):
        return "Boolean"
    return "Integer" if isinstance(value, int) else "Decimal" if isinstance(value, float) else "String"


# ---------------------------------------------------------------------------
# Columns and filters
# ---------------------------------------------------------------------------


@value
class Column:
    """An attribute read from a fact row by following ``chain``."""

    path: str  # the path as written; names the result column
    chain: tuple[m.Hop, ...]
    attribute: m.DataAttribute


@value
class Parameter:
    """A free path on a where clause's right side, supplied at run time
    (a measure's predicate may not hold one: measures take no bindings).

    ``name`` is the path's last segment, or all its segments joined by
    ``_`` when another parameter of the same operation already took that
    name. The full dotted ``path`` is accepted as a binding key too.
    """

    name: str
    path: str

    def key(self, bindings: dict) -> str | None:
        """The binding key that supplies this parameter: its name, else its path."""
        return self.name if self.name in bindings else self.path if self.path in bindings else None


@value
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
        raise EngineError("ENG030", f"unknown entity {fact_id!r}", "path", path.loc)

    def fail(reason: str) -> EngineError:
        return EngineError("ENG030", f"cannot resolve {path} from {fact_id}: {reason}", "path", path.loc)

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
        raise EngineError("ENG030", f"{anchor.id} is not reachable from {fact_id}", "path", path.loc)
    return Column(str(path), chain + hop, attribute)


def _role_hop(model: m.SpecificationModel, col: Column, role_of) -> Column | None:
    """``col``, a dimension reference, hopped onto the dimension's role attribute; None without one."""
    ref = col.attribute
    dimension = model.entity(ref.dimension_target)
    role = role_of(dimension) if dimension is not None else None
    return None if role is None else Column(col.path, col.chain + ((ref.id, dimension.id),), role)


def _compared(model: m.SpecificationModel, col: Column, pred: m.Predicate) -> Column:
    """The column ``pred``'s literal is compared with: ``col``, or for an enum
    literal against a dimension reference, the dimension's enum role."""
    right, attr_type = pred.right, col.attribute.attr_type
    if isinstance(right, m.EnumLiteral):
        enum = model.enumeration(right.enum)
        if enum is None or right.value not in enum.values:
            raise EngineError("ENG030", f"unknown enum literal {right}", "enum literal", pred.loc)
        if attr_type.kind == "dimension":
            role = _role_hop(model, col, lambda dim: enum_role_attribute(dim, right.enum))
            if role is None:
                reason = f"cannot compare {pred.left} with {right}: {attr_type.name} has no single {right.enum} attribute"
                raise EngineError("ENG030", reason, "enum role", pred.loc)
            return role
        matches, shown = attr_type.kind == "enum" and attr_type.name == right.enum, str(right)
    else:
        kind = attr_type.name if attr_type.kind == "primitive" else None
        value_type, shown = _literal_type(right.value), repr(right.value)
        matches = value_type in ("String", kind) or (value_type in _NUMERIC and kind in _NUMERIC)
    if not matches:
        raise EngineError("ENG030", f"cannot compare {pred.left} ({attr_type.name}) with {shown}", "type", pred.loc)
    return col


def read_type(model: m.SpecificationModel, attr: m.DataAttribute) -> m.AttributeType | None:
    """The type of ``attr``'s values as the engine loads and reads them: a
    dimension reference reads as its target's primary key; None when it has none."""
    attr_type = attr.attr_type
    if attr_type.kind != "dimension":
        return attr_type
    target = model.entity(attr_type.name)
    key = target.primary_key if target is not None else None
    return None if key is None else key.attr_type


def _same_type(left: m.AttributeType | None, right: m.AttributeType | None) -> bool:
    if left is None or right is None:  # a missing primary key is reported on its own
        return True
    if left.kind == right.kind == "primitive" and {left.name, right.name} <= _NUMERIC:
        return True
    return (left.kind, left.name) == (right.kind, right.name)


def plan_filters(model: m.SpecificationModel, fact_id: str, predicates) -> tuple[Filter, ...]:
    """Resolve a conjunction of predicates, naming its parameters once. An enum
    literal must exist and match the column's enumeration or its dimension's
    enum role, a literal the column's type (any column takes a string), and a
    parameter's path must resolve to a column of the left column's type, where
    Integer and Decimal are one numeric type."""
    taken: dict[str, str] = {}  # parameter name -> dotted path
    filters = []
    for pred in predicates:
        col = column(model, fact_id, pred.left)
        right = pred.right
        if isinstance(right, m.AttributePath):
            left_type, right_type = read_type(model, col.attribute), read_type(model, column(model, fact_id, right).attribute)
            if not _same_type(left_type, right_type):
                reason = f"cannot compare {pred.left} ({left_type.name}) with the parameter {right} ({right_type.name})"
                raise EngineError("ENG030", reason, "type", pred.loc)
            name = right.segments[-1]
            if taken.get(name, str(right)) != str(right):
                name = "_".join(right.segments)
            taken[name] = str(right)
            filters.append(Filter(col, Parameter(name, str(right))))
        else:
            filters.append(Filter(_compared(model, col, pred), right.value))
    return tuple(filters)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


@value
class Leaf:
    """An aggregate the measures share: ``fn`` over a ``Column``, or COUNT of
    the rows where a ``Filter`` holds; ``type`` is its result type."""

    fn: str
    input: Column | Filter
    type: str


@value
class MeasureProgram:
    """Measures lowered onto one leaf per distinct aggregate. Each root, one per
    measure, is a leaf index, an ``m.Literal`` or an ``(op, left, right)``
    tuple of roots; measure references are inlined. ``types`` holds each
    root's result type, None where a reference's target has no primitive type."""

    leaves: tuple[Leaf, ...]
    roots: tuple
    types: tuple


def measure_program(model: m.SpecificationModel, fact_id: str, exprs) -> MeasureProgram:
    """Lower and type the fact's measure expressions, once per model, fact and
    expression objects (see ``_lower_measures``)."""
    exprs = tuple(exprs)
    return model.derived(("measure program", fact_id), exprs, lambda: _lower_measures(model, fact_id, exprs))


def _lower_measures(model: m.SpecificationModel, fact_id: str, exprs: tuple) -> MeasureProgram:
    """Lower and type the fact's measure expressions.

    COUNT is Integer; SUM and AVERAGE need a numeric input and are Decimal;
    MIN and MAX take their column's type (an enum reads as String, a date
    role as Date). Arithmetic needs numeric operands and is Integer over
    Integers except for ``/``, else Decimal. A literal has its own type, a
    reference its target's declared type. ENG030 for what these rules
    refuse, a reference cycle, an unknown or opaque measure, a predicate
    against a free path (measures take no bindings), or an unsupported node.
    """
    fact = model.entity(fact_id)
    leaves: dict[m.Aggregate, int] = {}
    planned: list[Leaf] = []

    def lower(expr, stack: tuple):
        if isinstance(expr, m.Literal):
            return expr, _literal_type(expr.value)
        if isinstance(expr, m.MeasureRef):
            name = expr.attribute
            if name in stack:
                raise EngineError("ENG030", f"measure reference cycle at {name}")
            target = fact.attribute(name)
            if target is None or target.measure is None:
                raise EngineError("ENG030", f"unknown measure {name!r}")
            if isinstance(target.measure, m.OpaqueMeasure):
                raise EngineError("ENG030", f"opaque measure {target.measure.text!r} cannot be evaluated")
            try:
                root, _ = lower(target.measure, stack + (name,))
            except EngineError as exc:
                exc.measure = exc.measure or name  # the innermost reference owns the failure
                raise
            return root, target.attr_type.name if target.attr_type.kind == "primitive" else None
        if isinstance(expr, m.Arithmetic):
            (left, left_type), (right, right_type) = lower(expr.left, stack), lower(expr.right, stack)
            kinds = {left_type, right_type}
            if None not in kinds and not kinds <= _NUMERIC:
                reason = f"arithmetic needs numeric operands, got {left_type} {expr.op} {right_type}"
                raise EngineError("ENG030", reason, "type")
            kind = None if None in kinds else "Integer" if kinds == {"Integer"} and expr.op != "/" else "Decimal"
            return (expr.op, left, right), kind
        if isinstance(expr, m.Aggregate):
            index = leaves.setdefault(expr, len(planned))
            if index == len(planned):
                planned.append(_leaf(model, fact_id, expr))
            return index, planned[index].type
        raise EngineError("ENG030", f"unsupported measure node {expr!r}")

    lowered = [lower(expr, ()) for expr in exprs]
    return MeasureProgram(tuple(planned), tuple(root for root, _ in lowered), tuple(kind for _, kind in lowered))


def _leaf(model: m.SpecificationModel, fact_id: str, agg: m.Aggregate) -> Leaf:
    path = agg.arg
    if isinstance(path, m.Predicate):
        (source,) = plan_filters(model, fact_id, (path,))
        if isinstance(source.value, Parameter):
            raise EngineError("ENG030", f"measure predicate on {path.left} compares against the free path {path.right}")
        return Leaf(agg.fn, source, "Integer")
    source = column(model, fact_id, path)
    attr = source.attribute
    kind = "String" if attr.attr_type.kind == "enum" else attr.attr_type.name
    if attr.dimension_target is not None:
        source, kind = _role_hop(model, source, date_role_attribute), "Date"
        if source is None:
            reason = f"aggregation over {path} is ambiguous: {attr.dimension_target} has no single Date attribute"
            raise EngineError("ENG030", reason, "date role", path.loc)
    if agg.fn in ("SUM", "AVERAGE"):
        if kind not in _NUMERIC:
            raise EngineError("ENG030", f"{agg.fn} over {path} needs a numeric attribute, got {kind}", "type", path.loc)
        kind = "Decimal"
    return Leaf(agg.fn, source, "Integer" if agg.fn == "COUNT" else kind)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@value
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

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """What ``--bind`` supplies: each filter's parameter, in predicate order."""
        return tuple(f.value for f in self.filters if isinstance(f.value, Parameter))


def plan_operation(model: m.SpecificationModel, use_case_id: str, op_id: str) -> Plan:
    """Look one operation of a use case up by id and plan it; ENG030 for an unknown id."""
    uc = model.use_case(use_case_id)
    if uc is None:
        raise EngineError("ENG030", f"unknown use case {use_case_id!r}")
    op = next((o for o in uc.operations if o.id == op_id), None)
    if op is None:
        raise EngineError("ENG030", f"use case {use_case_id} has no operation {op_id!r}")
    return operation_plan(model, uc, op)


def operation_plan(model: m.SpecificationModel, use_case: m.UseCase, op: m.OlapOperation) -> Plan:
    """``_resolve_operation``, once per model, use case and operation object."""
    return model.derived(("plan",), (use_case, op), lambda: _resolve_operation(model, use_case, op))


def _resolve_operation(model: m.SpecificationModel, use_case: m.UseCase, op: m.OlapOperation) -> Plan:
    """Resolve one operation: the one rule for whether it can run. ENG031 when it
    is underspecified; else ENG030 under the rule "data source" when the use case
    names no fact to read, "arity" when a Slice has other than one predicate or a
    Dice fewer than two, "pivot" for a swap target the fact does not reference as
    a dimension, or the rule of the first path or predicate that fails to plan."""
    if op.is_underspecified:
        raise EngineError("ENG031", f"operation {op.id} was decoded from bare action tags and carries no predicates")
    source = model.data_source(use_case.data_source) if use_case.data_source else None
    fact = model.entity(source_fact(source)) if source is not None else None
    if fact is None:
        raise EngineError("ENG030", f"use case {use_case.id} has no resolvable data source", "data source")

    filters: tuple[Filter, ...] = ()
    keys: tuple[Column, ...] = ()
    if op.kind in ("Slice", "Dice"):
        count = len(op.where_clauses)
        if count != 1 if op.kind == "Slice" else count < 2:
            wanted = "exactly 1 predicate" if op.kind == "Slice" else "at least 2 predicates"
            raise EngineError("ENG030", f"a {op.kind} takes {wanted}, got {count}", "arity")
        filters = plan_filters(model, fact.id, op.where_clauses)
    elif op.kind in ("RollUp", "DrillDown"):
        keys = (column(model, fact.id, op.group_by),)
    else:
        keys = tuple(_pivot_axis(model, fact, dim_id) for dim_id in op.swap)
    return Plan(use_case.id, op, fact, filters, keys, executable_measures(fact))


def _pivot_axis(model: m.SpecificationModel, fact: m.DataEntity, dim_id: str) -> Column:
    """A pivot axis: the dimension's ``name``, else its key, else its first
    attribute, read through the fact's own reference to the dimension."""
    dim = model.entity(dim_id)
    if dim is None or not dim.is_dimension:
        raise EngineError("ENG030", f"cannot swap {dim_id!r}: it is not a dimension", "pivot")
    ref = next((a for a in fact.dimension_refs if a.dimension_target == dim_id), None)
    if ref is None:
        raise EngineError("ENG030", f"cannot swap {dim_id}: {fact.id} has no dimension reference to it", "pivot")
    label = dim.attribute("name") or dim.primary_key or dim.attributes[0]
    return Column(f"{ref.id}.{label.id}", ((ref.id, dim.id),), label)
