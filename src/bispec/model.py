"""Shared abstract model for BI requirements specifications.

Both language frontends produce these values and every downstream stage
(semantic checks, OLAP engine, generators) consumes them. Each model class is
a value class (``diagnostics.value``): one generated ``__init__`` stores the
fields and runs the class's checks, and the equality, hashing and assignment
guard that every value class shares make the values immutable after
construction and safe to share across threads. Source locations ride along
on ``loc`` fields, which equality and hashing never compare.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import field, fields, replace
from functools import cached_property
from itertools import chain
from types import MappingProxyType

from .diagnostics import Span, value

_IMPORTED = frozenset(dir())  # left out of __all__, which lists what this module defines

# ---------------------------------------------------------------------------
# Vocabularies
#
# Closed sets come straight from the language definition; alias tables fold
# the alternate spellings the source corpus uses into one canonical term.
# ---------------------------------------------------------------------------

ENTITY_TYPES = ("Reference", "Master", "Transaction")
ENTITY_TYPE_ALIASES = {"Transactional": "Transaction"}

ENTITY_SUBTYPES = ("Fact", "Dimension")
ENTITY_SUBTYPE_ALIASES = {"BI_Fact": "Fact", "BI_Dimension": "Dimension"}

PRIMITIVE_TYPES = ("UUID", "Integer", "Decimal", "String", "Boolean", "Date", "Time", "DateTime")

ACTOR_TYPES = ("User", "ExternalSystem")

CONSTRAINT_KINDS = ("PrimaryKey", "NotNull", "Unique", "ForeignKey")

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVERAGE", "MIN", "MAX")

OLAP_KINDS = ("Slice", "Dice", "RollUp", "DrillDown", "Pivot")
OLAP_KIND_ALIASES = {
    "Roll-up": "RollUp",
    "Drill-down": "DrillDown",
    "Drilldown": "DrillDown",
    "BI_Slice": "Slice",
    "BI_Dice": "Dice",
    "BI_Rollup": "RollUp",
    "BI_RollUp": "RollUp",
    "BI_DrillDown": "DrillDown",
    "BI_Drilldown": "DrillDown",
    "BI_Pivot": "Pivot",
}

USE_CASE_TYPES = ("EntityCreate", "EntityRead", "EntityUpdate", "EntityDelete", "BIAnalysis")
USE_CASE_TYPE_ALIASES = {"BI_Analysis": "BIAnalysis"}

CHART_ACTIONS = ("DrillDown", "RealTimeDataUpdate", "ZoomAndPanUpdate", "TooltipAndHoverDetail")
CHART_ACTION_ALIASES = {
    "TooltipAndHoverDetails": "TooltipAndHoverDetail",
    "TooltipAndHoverDetailShow": "TooltipAndHoverDetail",
    "DrillDownUpdate": "DrillDown",
}

COMPONENT_TYPES = ("Form", "List", "Detail", "Filter", "InteractiveChart")

CHART_SUBTYPES = (
    "InteractiveBarChart",
    "InteractiveLineChart",
    "InteractivePieChart",
    "InteractiveScatterPlot",
    "InteractiveGeographicalMap",
)
COMPONENT_SUBTYPES = ("Table",) + CHART_SUBTYPES

CONTAINER_TYPES = ("MainWindow", "ModalWindow")
CONTAINER_TYPE_ALIASES = {"Window": "MainWindow"}
CONTAINER_SUBTYPES = ("Dashboard", "Page")

PART_KINDS = (
    "Column",
    "X_Axis",
    "Y_Axis",
    "Value",
    "Label",
    "Legend",
    "Latitude",
    "Longitude",
    "Location",
    "Option",
    "Area",
)

EXTENSION_CATEGORIES = (
    "DataEntitySubType",
    "DataAttributeType",
    "UIContainerSubType",
    "UIComponentType",
    "UIComponentSubType",
    "UIComponentPartSubType",
    "ActionType",
    "UseCaseType",
)

# Parts every chart subtype must carry (kind -> exact count).
REQUIRED_CHART_PARTS: dict[str, tuple[tuple[str, int], ...]] = {
    "InteractiveBarChart": (("X_Axis", 1), ("Y_Axis", 1)),
    "InteractiveLineChart": (("X_Axis", 1), ("Y_Axis", 1)),
    "InteractivePieChart": (("Label", 1), ("Value", 1)),
    "InteractiveScatterPlot": (("X_Axis", 1), ("Y_Axis", 1)),
    "InteractiveGeographicalMap": (("Latitude", 1), ("Longitude", 1), ("Value", 1)),
}

class ModelError(ValueError):
    """Raised when a model value is constructed with invalid content."""

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.span = span


def is_identifier(text: str) -> bool:
    """Whether ``text`` is an ASCII identifier: a letter or ``_``, then letters, digits or ``_``."""
    return text.isascii() and text.isidentifier()


def _require_identifier(text: str, what: str) -> None:
    if not is_identifier(text):
        raise ModelError(f"{what} {text!r} is not a valid identifier")


def _require_term(value: str | None, allowed: tuple[str, ...], what: str, optional: bool = False) -> None:
    if value is None:
        if optional:
            return
        raise ModelError(f"{what} is required")
    if value not in allowed:
        raise ModelError(f"unknown {what} {value!r}; expected one of {', '.join(allowed)}")


# Category -> canonical built-in terms plus alias table. Used when deciding
# whether a vocabulary extension introduces anything new.
BUILTIN_TERMS: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {
    "DataEntitySubType": (ENTITY_SUBTYPES, ENTITY_SUBTYPE_ALIASES),
    "DataAttributeType": (PRIMITIVE_TYPES + ("_Dimension",), {}),
    "UIContainerSubType": (CONTAINER_SUBTYPES, {}),
    "UIComponentType": (COMPONENT_TYPES, {}),
    "UIComponentSubType": (COMPONENT_SUBTYPES, {}),
    "UIComponentPartSubType": (PART_KINDS, {}),
    "ActionType": (CHART_ACTIONS + OLAP_KINDS, {**CHART_ACTION_ALIASES, **OLAP_KIND_ALIASES}),
    "UseCaseType": (USE_CASE_TYPES, USE_CASE_TYPE_ALIASES),
}


def is_builtin_term(category: str, term: str) -> bool:
    builtins, aliases = BUILTIN_TERMS[category]
    return term in builtins or term in aliases


def normalize_term(category: str, term: str) -> str:
    _, aliases = BUILTIN_TERMS[category]
    return aliases.get(term, term)


# ---------------------------------------------------------------------------
# Paths, types, constraints
# ---------------------------------------------------------------------------


@value
class AttributePath:
    """Dotted attribute reference with one to three segments.

    ``attr`` | ``Entity.attr`` | ``Entity.attr.attr`` — the three-segment
    form hops through a dimension-reference attribute into the referenced
    dimension (``AppointmentRequest.scheduled_date.year``).
    """

    segments: tuple[str, ...]
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= len(self.segments) <= 3:
            raise ModelError(f"attribute path must have 1-3 segments, got {len(self.segments)}")
        for seg in self.segments:
            _require_identifier(seg, "path segment")

    def __str__(self) -> str:
        return ".".join(self.segments)

    @classmethod
    def parse(cls, text: str, loc: Span | None = None) -> "AttributePath":
        return cls(tuple(text.split(".")), loc)


@value
class AttributeType:
    """Attribute type: primitive, enumeration reference, or dimension reference."""

    kind: str  # "primitive" | "enum" | "dimension"
    name: str
    length: int | None = None

    def __post_init__(self):
        if self.kind not in ("primitive", "enum", "dimension"):
            raise ModelError(f"unknown attribute type kind {self.kind!r}")
        if self.kind == "primitive":
            _require_term(self.name, PRIMITIVE_TYPES, "primitive type")
            if self.length is not None and self.name != "String":
                raise ModelError("only String may carry a length")
        else:
            _require_identifier(self.name, "type reference")
            if self.length is not None:
                raise ModelError("only String may carry a length")

    @classmethod
    def primitive(cls, name: str, length: int | None = None) -> "AttributeType":
        return cls("primitive", name, length)

    @classmethod
    def enum(cls, enum_id: str) -> "AttributeType":
        return cls("enum", enum_id)

    @classmethod
    def dimension(cls, entity_id: str) -> "AttributeType":
        return cls("dimension", entity_id)


@value
class Constraint:
    kind: str
    target: str | None = None  # referenced entity id, ForeignKey only

    def __post_init__(self):
        _require_term(self.kind, CONSTRAINT_KINDS, "constraint")
        if self.kind == "ForeignKey":
            if not self.target:
                raise ModelError("ForeignKey constraint requires a target entity id")
            _require_identifier(self.target, "ForeignKey target")
        elif self.target is not None:
            raise ModelError(f"{self.kind} constraint takes no target")


# ---------------------------------------------------------------------------
# Measure expressions
# ---------------------------------------------------------------------------


@value
class Literal:
    value: object  # int | float | str | bool

    def __post_init__(self):
        if not isinstance(self.value, (int, float, str, bool)):
            raise ModelError(f"unsupported literal {self.value!r}")


@value
class EnumLiteral:
    enum: str
    value: str

    def __str__(self) -> str:
        return f"{self.enum}.{self.value}"


@value
class Predicate:
    """Equality predicate: left attribute path = literal, enum literal, or free path."""

    left: AttributePath
    right: object  # Literal | EnumLiteral | AttributePath
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.right, (Literal, EnumLiteral, AttributePath)):
            raise ModelError("predicate right side must be a literal, enum literal, or path")


@value
class Aggregate:
    fn: str
    arg: object  # AttributePath | Predicate

    def __post_init__(self):
        _require_term(self.fn, AGGREGATE_FUNCTIONS, "aggregate function")
        if isinstance(self.arg, Predicate):
            if self.fn != "COUNT":
                raise ModelError(f"{self.fn} accepts an attribute path, not a predicate")
        elif not isinstance(self.arg, AttributePath):
            raise ModelError("aggregate argument must be an attribute path or predicate")


@value
class MeasureRef:
    attribute: str

    def __post_init__(self):
        _require_identifier(self.attribute, "measure reference")


@value
class Arithmetic:
    op: str
    left: object
    right: object

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ModelError(f"unknown arithmetic operator {self.op!r}")
        for side in (self.left, self.right):
            if not isinstance(side, (Aggregate, MeasureRef, Arithmetic, Literal)):
                raise ModelError("arithmetic operands must be aggregates, measure refs, literals, or arithmetic")


@value
class OpaqueMeasure:
    """Unparseable measure expression kept as raw text; excluded from execution."""

    text: str


MeasureExpression = (Aggregate, MeasureRef, Arithmetic, Literal, OpaqueMeasure)


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@value
class DataEnumeration:
    id: str
    name: str | None = None
    values: tuple[str, ...] = ()
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "enumeration id")
        if not self.values:
            raise ModelError(f"enumeration {self.id} must declare at least one value")
        seen = set()
        for v in self.values:
            _require_identifier(v, "enumeration value")
            if v in seen:
                raise ModelError(f"duplicate value {v!r} in enumeration {self.id}")
            seen.add(v)

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id


@value
class DataAttribute:
    id: str
    attr_type: AttributeType
    name: str | None = None
    default_value: Literal | None = None
    measure: object | None = None  # MeasureExpression
    constraints: frozenset[Constraint] = frozenset()
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "attribute id")
        if self.measure is not None and not isinstance(self.measure, MeasureExpression):
            raise ModelError("measure must be a measure expression")
        kinds = {c.kind for c in self.constraints}
        if self.measure is not None and kinds & {"PrimaryKey", "ForeignKey"}:
            raise ModelError(f"measure attribute {self.id} cannot carry PrimaryKey or ForeignKey")
        # PrimaryKey subsumes NotNull and Unique, and a dimension reference is
        # its own ForeignKey; keep the canonical minimum.
        implied = {"NotNull", "Unique"} if "PrimaryKey" in kinds else set()
        kept = frozenset(
            c for c in self.constraints
            if c.kind not in implied and not (c.kind == "ForeignKey" and c.target == self.dimension_target)
        )
        if kept != self.constraints:
            object.__setattr__(self, "constraints", kept)

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id

    @property
    def is_measure(self) -> bool:
        return self.measure is not None

    @property
    def is_primary_key(self) -> bool:
        return any(c.kind == "PrimaryKey" for c in self.constraints)

    @property
    def not_null(self) -> bool:
        return any(c.kind in ("NotNull", "PrimaryKey") for c in self.constraints)

    @property
    def dimension_target(self) -> str | None:
        return self.attr_type.name if self.attr_type.kind == "dimension" else None


@value
class DataEntity:
    id: str
    entity_type: str
    attributes: tuple[DataAttribute, ...]
    name: str | None = None
    sub_type: str | None = None
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "entity id")
        _require_term(self.entity_type, ENTITY_TYPES, "entity type")
        if self.sub_type is not None:
            _require_identifier(self.sub_type, "entity subtype")
        if not self.attributes:
            raise ModelError(f"entity {self.id} must declare at least one attribute")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id

    @property
    def is_fact(self) -> bool:
        return self.sub_type == "Fact"

    @property
    def is_dimension(self) -> bool:
        return self.sub_type == "Dimension"

    def attribute(self, attr_id: str) -> DataAttribute | None:
        for attr in self.attributes:
            if attr.id == attr_id:
                return attr
        return None

    @property
    def primary_key(self) -> DataAttribute | None:
        for attr in self.attributes:
            if attr.is_primary_key:
                return attr
        return None

    @property
    def dimension_refs(self) -> tuple[DataAttribute, ...]:
        return tuple(a for a in self.attributes if a.attr_type.kind == "dimension")

    @property
    def measures(self) -> tuple[DataAttribute, ...]:
        return tuple(a for a in self.attributes if a.is_measure)


@value
class DataEntityCluster:
    id: str
    entity_type: str
    main: str
    uses: tuple[str, ...] = ()
    name: str | None = None
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "cluster id")
        _require_term(self.entity_type, ENTITY_TYPES, "cluster entity type")
        _require_identifier(self.main, "cluster main entity")
        for u in self.uses:
            _require_identifier(u, "cluster member")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id


@value
class Actor:
    id: str
    actor_type: str
    name: str | None = None
    stakeholder: str | None = None
    is_a: str | None = None
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "actor id")
        _require_term(self.actor_type, ACTOR_TYPES, "actor type")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id


@value
class OlapOperation:
    id: str
    kind: str
    name: str | None = None
    where_clauses: tuple[Predicate, ...] = ()
    group_by: AttributePath | None = None
    swap: tuple[str, str] | None = None
    touched_dimensions: tuple[str, ...] = ()
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "operation id")
        _require_term(self.kind, OLAP_KINDS, "OLAP operation kind")
        # Clause population must match the kind; arity of where clauses is a
        # semantic concern, their presence on the wrong kind is not.
        if self.kind in ("Slice", "Dice"):
            if self.group_by is not None or self.swap is not None:
                raise ModelError(f"{self.kind} operation {self.id} takes only where clauses")
        elif self.kind in ("RollUp", "DrillDown"):
            if self.where_clauses or self.swap is not None:
                raise ModelError(f"{self.kind} operation {self.id} takes only a group-by clause")
        else:  # Pivot
            if self.where_clauses or self.group_by is not None:
                raise ModelError(f"Pivot operation {self.id} takes only a swap clause")
            if self.swap is not None and self.swap[0] == self.swap[1]:
                raise ModelError(f"Pivot operation {self.id} must swap two distinct dimensions")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id

    @property
    def is_underspecified(self) -> bool:
        """True for operations decoded from bare action tags (no clause detail)."""
        if self.kind in ("Slice", "Dice"):
            return not self.where_clauses
        if self.kind in ("RollUp", "DrillDown"):
            return self.group_by is None
        return self.swap is None


@value
class UseCase:
    id: str
    uc_type: str
    primary_actor: str
    name: str | None = None
    stakeholder: str | None = None
    supporting_actors: tuple[str, ...] = ()
    data_source: str | None = None
    action_kinds: tuple[str, ...] = ()
    operations: tuple[OlapOperation, ...] = ()
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "use case id")
        _require_identifier(self.uc_type, "use case type")
        _require_identifier(self.primary_actor, "primary actor")
        for kind in self.action_kinds:
            _require_term(kind, OLAP_KINDS, "action kind")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id


@value
class UIPart:
    id: str
    part_kind: str
    binding: AttributePath
    name: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "part id")
        _require_identifier(self.part_kind, "part kind")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id


@value
class NavigationEvent:
    id: str
    event_type: str | None = None
    event_subtype: str | None = None
    navigates_to: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "event id")


@value
class UIComponent:
    id: str
    component_type: str
    name: str | None = None
    component_subtype: str | None = None
    data_binding: str | None = None
    parts: tuple[UIPart, ...] = ()
    actions: frozenset[str] = frozenset()
    navigates_to: str | None = None
    tags: tuple[tuple[str, str], ...] = ()
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "component id")
        _require_identifier(self.component_type, "component type")
        if self.component_subtype is not None:
            _require_identifier(self.component_subtype, "component subtype")
        # A chart subtype appears exactly on InteractiveChart components.
        if self.component_type == "InteractiveChart":
            if self.component_subtype not in CHART_SUBTYPES:
                raise ModelError(f"InteractiveChart component {self.id} requires a chart subtype")
        elif self.component_subtype in CHART_SUBTYPES:
            raise ModelError(f"component {self.id} carries a chart subtype but is not an InteractiveChart")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id

    @property
    def chart_subtype(self) -> str | None:
        return self.component_subtype if self.component_type == "InteractiveChart" else None


@value
class UIContainer:
    id: str
    container_type: str = "MainWindow"
    name: str | None = None
    container_subtype: str | None = None
    components: tuple[UIComponent, ...] = ()
    events: tuple[NavigationEvent, ...] = ()
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_identifier(self.id, "container id")
        _require_term(self.container_type, CONTAINER_TYPES, "container type")
        if self.container_subtype is not None:
            _require_identifier(self.container_subtype, "container subtype")

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.id

    def component(self, comp_id: str) -> UIComponent | None:
        for comp in self.components:
            if comp.id == comp_id:
                return comp
        return None


@value
class VocabularyExtension:
    category: str
    id: str
    description: str | None = None
    loc: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_term(self.category, EXTENSION_CATEGORIES, "extension category")
        _require_identifier(self.id, "extension id")


Hop = tuple[str, str]  # (dimension-reference attribute id, referenced entity id)


@value
class SpecificationModel:
    """Root aggregate: the style-independent instance every syntax maps onto."""

    enumerations: tuple[DataEnumeration, ...] = ()
    entities: tuple[DataEntity, ...] = ()
    clusters: tuple[DataEntityCluster, ...] = ()
    actors: tuple[Actor, ...] = ()
    use_cases: tuple[UseCase, ...] = ()
    ui_containers: tuple[UIContainer, ...] = ()
    vocabulary_extensions: tuple[VocabularyExtension, ...] = ()

    @classmethod
    def empty(cls) -> "SpecificationModel":
        return cls()

    @cached_property
    def _by_id(self) -> dict[str, dict[str, object]]:
        """Per construct field, each id's first declaration; planning and the
        checks look entities up for every path and hop."""
        index: dict[str, dict[str, object]] = {}
        for name in ("enumerations", "entities", "clusters", "actors", "use_cases", "ui_containers"):
            table = index[name] = {}
            for item in getattr(self, name):
                table.setdefault(item.id, item)
        return index

    def enumeration(self, enum_id: str) -> DataEnumeration | None:
        return self._by_id["enumerations"].get(enum_id)

    def entity(self, entity_id: str) -> DataEntity | None:
        return self._by_id["entities"].get(entity_id)

    def cluster(self, cluster_id: str) -> DataEntityCluster | None:
        return self._by_id["clusters"].get(cluster_id)

    def actor(self, actor_id: str) -> Actor | None:
        return self._by_id["actors"].get(actor_id)

    def use_case(self, uc_id: str) -> UseCase | None:
        return self._by_id["use_cases"].get(uc_id)

    def container(self, container_id: str) -> UIContainer | None:
        return self._by_id["ui_containers"].get(container_id)

    @cached_property
    def _derived(self) -> dict:
        """``derived`` results per key, filled as they are asked for."""
        return {}

    def derived(self, key: tuple, inputs: tuple, derive):
        """``derive()``, kept for the life of the model under ``key`` and the
        identity of each of ``inputs``: a model never changes, so neither does
        what is derived from it. Inputs are told apart by ``id``, so no call
        hashes an expression tree; the entry holds them, so no id is reused
        while it lives. An error that ``derive`` raises is not kept."""
        entry_key = (*key, *map(id, inputs))
        entry = self._derived.get(entry_key)
        if entry is None:
            entry = self._derived[entry_key] = (inputs, derive())
        return entry[1]

    @cached_property
    def _hop_chains(self) -> dict[str, Mapping[str, tuple[Hop, ...]]]:
        """``hop_chains`` per fact id, filled as facts are asked for."""
        return {}

    def hop_chains(self, fact_id: str) -> Mapping[str, tuple[Hop, ...]]:
        """Shortest hop chain from ``fact_id`` to every entity it reaches.

        Breadth-first over dimension references in declaration order, so ties
        resolve deterministically. Walked once per fact and model; empty when
        ``fact_id`` names no entity.
        """
        chains = self._hop_chains.get(fact_id)
        if chains is None:
            found: dict[str, tuple[Hop, ...]] = {}
            fact = self.entity(fact_id)
            if fact is not None:
                found[fact_id] = ()
                queue = [fact]
                for current in queue:
                    for attr in current.dimension_refs:
                        target_id = attr.dimension_target
                        target = self.entity(target_id) if target_id not in found else None
                        if target is not None:
                            found[target_id] = found[current.id] + ((attr.id, target_id),)
                            queue.append(target)
            chains = self._hop_chains[fact_id] = MappingProxyType(found)
        return chains

    def reference_order(self) -> tuple[tuple[DataEntity, ...], tuple[DataEntity, ...]]:
        """``(ordered, cyclic)``: passes over the sorted entity ids each take every
        entity whose targets are all taken (a self-reference is no dependency);
        ``cyclic`` holds, in sorted order, the entities on or behind a cycle."""
        deps = self._reference_deps()
        done: dict[str, None] = {}
        pending = sorted(deps)
        while pending:
            remaining = []
            for entity_id in pending:
                if deps[entity_id].issubset(done):
                    done[entity_id] = None
                else:
                    remaining.append(entity_id)
            if len(remaining) == len(pending):
                break
            pending = remaining
        return tuple(map(self.entity, done)), tuple(map(self.entity, pending))

    def reference_cycles(self) -> tuple[DataEntity, ...]:
        """The entities, in sorted order, that reach themselves through their
        dimension references; the rest of ``reference_order()``'s ``cyclic``
        only sits behind a cycle."""
        deps = self._reference_deps()

        def on_cycle(start: str) -> bool:
            seen, stack = set(), list(deps[start])
            while stack:
                entity_id = stack.pop()
                if entity_id == start:
                    return True
                if entity_id not in seen:
                    seen.add(entity_id)
                    stack += deps[entity_id]
            return False

        return tuple(e for e in self.reference_order()[1] if on_cycle(e.id))

    def _reference_deps(self) -> dict[str, set[str]]:
        """Entity id -> the other entities its dimension references target."""
        ids = {e.id for e in self.entities}
        return {e.id: ({a.dimension_target for a in e.dimension_refs} & ids) - {e.id} for e in self.entities}

    def data_source(self, source_id: str) -> DataEntity | DataEntityCluster | None:
        """Resolve an id that may name an entity or a cluster (entities win)."""
        return self.entity(source_id) or self.cluster(source_id)

    @property
    def facts(self) -> tuple[DataEntity, ...]:
        return tuple(e for e in self.entities if e.is_fact)

    @property
    def dimensions(self) -> tuple[DataEntity, ...]:
        return tuple(e for e in self.entities if e.is_dimension)

    def data_subset(self) -> "SpecificationModel":
        """Reduce to the construct categories shared by both linguistic styles."""
        return SpecificationModel(enumerations=self.enumerations, entities=self.entities, actors=self.actors)


def _enum_operand(value: object, enum_ids: set[str]) -> object:
    if isinstance(value, AttributePath) and len(value.segments) == 2 and value.segments[0] in enum_ids:
        return EnumLiteral(value.segments[0], value.segments[1])
    return value


def _enum_predicate(pred: Predicate, enum_ids: set[str]) -> Predicate:
    right = _enum_operand(pred.right, enum_ids)
    return pred if right is pred.right else Predicate(pred.left, right, pred.loc)


def _enum_measure(expr: object, enum_ids: set[str]) -> object:
    if isinstance(expr, Aggregate) and isinstance(expr.arg, Predicate):
        arg = _enum_predicate(expr.arg, enum_ids)
        return expr if arg is expr.arg else Aggregate(expr.fn, arg)
    if isinstance(expr, Arithmetic):
        left, right = _enum_measure(expr.left, enum_ids), _enum_measure(expr.right, enum_ids)
        return expr if left is expr.left and right is expr.right else Arithmetic(expr.op, left, right)
    return expr


def normalize_enum_literals(spec: SpecificationModel) -> SpecificationModel:
    """Rewrite ``Enum.value`` paths on predicate right sides into enum literals.

    Each parser runs it on its document and ``merge_models`` on the unit, so
    an enumeration declared in one file classifies the literals of another.
    """
    enum_ids = {e.id for e in spec.enumerations}
    if not enum_ids:
        return spec

    entities = []
    for entity in spec.entities:
        attrs = []
        changed = False
        for attr in entity.attributes:
            if attr.measure is not None:
                measure = _enum_measure(attr.measure, enum_ids)
                if measure is not attr.measure:
                    attr = replace(attr, measure=measure)
                    changed = True
            attrs.append(attr)
        entities.append(replace(entity, attributes=tuple(attrs)) if changed else entity)

    use_cases = []
    for uc in spec.use_cases:
        ops = []
        changed = False
        for op in uc.operations:
            preds = tuple([_enum_predicate(p, enum_ids) for p in op.where_clauses])
            if preds != op.where_clauses:
                op = replace(op, where_clauses=preds)
                changed = True
            ops.append(op)
        use_cases.append(replace(uc, operations=tuple(ops)) if changed else uc)

    return replace(spec, entities=tuple(entities), use_cases=tuple(use_cases))


def merge_models(models: list[SpecificationModel]) -> SpecificationModel:
    """Concatenate several parsed documents into one compilation unit."""
    merged = SpecificationModel(
        **{f.name: tuple(chain.from_iterable(getattr(model, f.name) for model in models)) for f in fields(SpecificationModel)}
    )
    return normalize_enum_literals(merged)


__all__ = [name for name in dir() if not name.startswith("_") and name not in _IMPORTED]
