"""ASL frontend: parser and canonical emitter for the bracketed, typed style.

ASL is the richer of the two syntaxes: vocabulary extension declarations
register terms before use, measures arrive as formulas or expression tags,
clusters group facts with their dimensions, and UI containers reference
standalone component declarations. Everything the model can hold is
representable, so emit is lossless.

Each construct's bracketed body is a list of keyword clauses. One loop,
``_Parser.body``, reads every body; the construct's clause table, built
once below the parser, maps each keyword to the reader of its clause.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

from . import measure as mx
from . import model as m
from .diagnostics import Diagnostic, Span, error, warning
from .lexer import Clauses, Cursor, Parser, Token, TokenKind, tokenize

# Terms usable without an in-document extension declaration.
_ASL_BASE: dict[str, frozenset[str]] = {
    "DataEntitySubType": frozenset({"Fact", "Dimension"}),
    "DataAttributeType": frozenset(set(m.PRIMITIVE_TYPES) - {"UUID"}),
    "UIContainerSubType": frozenset(),
    "UIComponentType": frozenset({"Form", "List", "Detail", "Menu"}),
    "UIComponentSubType": frozenset(),
    "UIComponentPartSubType": frozenset(),
    "ActionType": frozenset(set(m.OLAP_KINDS) | set(m.CHART_ACTIONS)),
    "UseCaseType": frozenset(m.USE_CASE_TYPES),
}

# Canonical term -> the dialect spelling emitted (and auto-declared) in ASL.
_DIALECT_SPELLING = {
    "Fact": "BI_Fact",
    "Dimension": "BI_Dimension",
    "BIAnalysis": "BI_Analysis",
}
_ACTION_SPELLING = {
    "Slice": "BI_Slice",
    "Dice": "BI_Dice",
    "RollUp": "BI_Rollup",
    "DrillDown": "BI_DrillDown",
    "Pivot": "BI_Pivot",
}


def _tag_cursor(text: str, at: Span) -> Cursor:
    """A cursor over a tag value. The value is one string token in the file, so
    every token in it reports at the tag (``at``)."""
    tokens, lex_diags = tokenize(text, code_prefix="ASL", string_quotes="'\"")
    if any(d.is_error for d in lex_diags):
        raise mx.ExprSyntaxError("unreadable tag value", at)
    lines = SimpleNamespace(span=lambda offset, length: at)
    return Cursor([tok._replace(lines=lines) for tok in tokens])


def _tag_expression(text: str, at: Span) -> object | None:
    """The measure expression an ``expression`` tag carries; None when it does not parse."""
    try:
        cur = _tag_cursor(text, at)
        expr = mx.parse_expression(cur)
    except mx.ExprSyntaxError:
        return None
    return expr if cur.at_eof() else None


@dataclass
class _RawAttribute:
    id: str
    name: str | None
    attr_type: m.AttributeType | None  # None while a _Dimension awaits its ForeignKey
    is_dimension_typed: bool
    length: int | None
    constraints: list[m.Constraint]
    default: m.Literal | None
    raw_measure: object | None
    expression_tag: tuple[str, Span] | None
    loc: Span


@dataclass
class _RawComponent:
    id: str
    name: str | None
    component_type: str
    component_subtype: str | None
    data_binding: str | None
    parts: list[m.UIPart]
    actions: set[str]
    nav_candidates: list[str]
    tags: list[tuple[str, str]]
    description: str | None
    loc: Span


def parse_asl(source: str, file: str = "<asl>") -> tuple[m.SpecificationModel, list[Diagnostic]]:
    return _Parser(source, file).parse()


class _Parser(Parser):
    prefix = "ASL"

    def __init__(self, source: str, file: str):
        super().__init__(*tokenize(source, file=file, code_prefix="ASL", block_comments=True))
        self.registered: dict[str, set[str]] = {cat: set() for cat in m.EXTENSION_CATEGORIES}
        self.model_extensions: list[m.VocabularyExtension] = []
        self.components: dict[str, _RawComponent] = {}
        self.component_order: list[str] = []

    # -- plumbing ----------------------------------------------------------

    def at_declaration(self) -> bool:
        return self.cur.peek().text in _DECLARATIONS

    def named(self, what: str) -> tuple[Token, str | None]:
        """``id "name"? :`` after a declaration's keyword: the id token and the name."""
        ident = self.ident(what)
        name = self.opt_name()
        self.expect_punct(":")
        return ident, name

    def opt_name(self) -> str | None:
        if self.cur.peek().kind is TokenKind.STRING:
            return str(self.cur.next().value)
        return None

    def expect_punct(self, text: str) -> Token:
        tok = self.cur.eat_punct(text)
        if tok is None:
            found = self.cur.peek()
            code = "ASL011" if text in "[]" else "ASL010"
            raise self.fail(code, f"expected {text!r}, found {found.text or 'end of input'!r}")
        return tok

    def term(self, category: str, tok: Token) -> str:
        """Check a vocabulary term against base terms and registered extensions."""
        text = tok.text
        if text in _ASL_BASE[category] or text in self.registered[category]:
            return m.normalize_term(category, text)
        raise self.fail("ASL020", f"unknown {category} term {text!r}; declare it before use", tok.span)

    def string(self, what: str) -> str:
        tok = self.cur.peek()
        if tok.kind is TokenKind.STRING:
            return str(self.cur.next().value)
        raise self.fail("ASL010", f"expected {what} string, found {tok.text or 'end of input'!r}")

    def listed(self, item) -> list:
        """``item (, item)*``, each item read by ``item(self)``."""
        items = [item(self)]
        while self.cur.eat_punct(","):
            items.append(item(self))
        return items

    def tag_pair(self, start: Token) -> tuple[str, str, Span]:
        """``(name "..." value "...")`` after the ``tag`` keyword ``start``."""
        if self.cur.eat_punct("(") is None:
            raise self.fail("ASL021", "malformed tag: expected '('", start.span)
        if self.cur.eat_word("name") is None:
            raise self.fail("ASL021", "malformed tag: expected 'name'", self.cur.peek().span)
        tag_name = self.string("tag name")
        if self.cur.eat_word("value") is None:
            raise self.fail("ASL021", "malformed tag: expected 'value'", self.cur.peek().span)
        tag_value = self.string("tag value")
        if self.cur.eat_punct(")") is None:
            raise self.fail("ASL021", "malformed tag: expected ')'", self.cur.peek().span)
        return tag_name, tag_value, start.span

    def body(self, what: str, at: Token, clauses: dict) -> Clauses:
        """``[ clause* ]``: each clause opens with a keyword of ``clauses``; the
        keyword is consumed and its reader called with the parser, the keyword
        and ``at``. ASL011 at ``at`` when the input ends first; a token that
        opens no clause is reported (ASL010) and skipped."""
        self.expect_punct("[")
        found = Clauses()
        cur = self.cur
        while not cur.at_punct("]"):
            if cur.at_eof():
                raise self.fail("ASL011", f"unbalanced bracket in {what} body", at.span)
            tok = cur.next()
            reader = clauses.get(tok.text)
            if reader is None:
                self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in {what} body", tok.span))
            else:
                found.setdefault(tok.text, []).append(reader(self, tok, at))
        cur.next()
        return found

    def skip_block(self) -> None:
        """Consume a bracketed block after an error, keeping brackets balanced."""
        depth = 0
        while not self.cur.at_eof():
            if self.cur.at_punct("["):
                depth += 1
            elif self.cur.at_punct("]"):
                depth -= 1
                if depth <= 0:
                    self.cur.next()
                    return
            self.cur.next()

    # -- top level ---------------------------------------------------------

    def parse(self) -> tuple[m.SpecificationModel, list[Diagnostic]]:
        found = self.declarations(_DECLARATIONS)
        model = m.SpecificationModel(
            enumerations=tuple(found.get("DataEnumeration", ())),
            entities=tuple(found.get("DataEntity", ())),
            clusters=tuple(found.get("DataEntityCluster", ())),
            actors=tuple(found.get("Actor", ())),
            use_cases=tuple(found.get("UseCase", ())),
            ui_containers=tuple(self._finalize_containers(found.get("UIContainer", ()))),
            vocabulary_extensions=tuple(self.model_extensions),
        )
        return m.normalize_enum_literals(model), self.diags

    def extension(self) -> None:
        cat_tok = self.cur.next()
        ident = self.ident("an extension term")
        description = None
        if self.cur.at_punct("["):
            self.cur.next()
            if self.cur.eat_word("description"):
                description = self.string("description")
            self.expect_punct("]")
        self.registered[cat_tok.text].add(ident.text)
        # Terms that merely respell a built-in register the spelling but add
        # nothing to the model.
        if not m.is_builtin_term(cat_tok.text, ident.text):
            self.model_extensions.append(
                m.VocabularyExtension(cat_tok.text, ident.text, description, cat_tok.span)
            )

    # -- data model --------------------------------------------------------

    def enumeration(self) -> m.DataEnumeration:
        start = self.cur.next()
        ident = self.ident("an enumeration id")
        name = self.opt_name()
        self.expect_word("values")
        self.expect_punct("(")
        values = self.listed(_enum_value)
        self.expect_punct(")")
        return self.build(ident, m.DataEnumeration, ident.text, name, tuple(values), start.span)

    def entity(self) -> m.DataEntity:
        start = self.cur.next()
        ident, name = self.named("an entity id")
        entity_type = self.one_of("ASL020", "entity type", m.ENTITY_TYPES, m.ENTITY_TYPE_ALIASES)
        sub_type = self.term("DataEntitySubType", self.cur.next()) if self.cur.eat_punct(":") else None
        body = self.body("entity", start, _ENTITY)
        return self.build(
            ident,
            m.DataEntity,
            id=ident.text,
            entity_type=entity_type,
            attributes=self._finish_attributes(body.get("attribute", ())),
            name=name,
            sub_type=sub_type,
            description=body.last("description"),
            loc=start.span,
        )

    def attribute(self) -> _RawAttribute:
        ident, name = self.named("an attribute id")
        attr_type: m.AttributeType | None = None
        is_dimension = False
        length = None
        type_tok = self.cur.next()
        if type_tok.text == "DataEnumeration":
            attr_type = m.AttributeType.enum(self.ident("an enumeration id").text)
        elif type_tok.text == "_Dimension":
            self.term("DataAttributeType", type_tok)
            is_dimension = True
        else:
            term = self.term("DataAttributeType", type_tok)
            if term in m.PRIMITIVE_TYPES:
                if self.cur.at_punct("(") and self.cur.peek(1).kind is TokenKind.NUMBER:
                    self.cur.next()
                    length = int(self.cur.next().value)
                    self.expect_punct(")")
                attr_type = m.AttributeType.primitive(term, length)
            else:
                # A registered non-primitive type reads as a named vocabulary;
                # semantically it must resolve to an enumeration.
                attr_type = m.AttributeType.enum(term)

        body = self.body("attribute", ident, _ATTRIBUTE) if self.cur.at_punct("[") else Clauses()
        expressions = [(value, span) for tag, value, span in body.get("tag", ()) if tag == "expression"]
        return _RawAttribute(
            ident.text,
            name,
            attr_type,
            is_dimension,
            length,
            body.joined("constraints"),
            body.last("defaultValue"),
            body.last("formula"),
            expressions[-1] if expressions else None,
            ident.span,
        )

    def _constraints(self) -> list[m.Constraint]:
        self.expect_punct("(")
        out: list[m.Constraint] = []
        while not self.cur.at_punct(")"):
            if self.cur.at_eof():
                raise self.fail("ASL010", "unterminated constraint list")
            tok = self.cur.next()
            if tok.text not in m.CONSTRAINT_KINDS:
                raise self.fail("ASL010", f"unknown constraint {tok.text!r}", tok.span)
            target = None
            if tok.text == "ForeignKey":
                self.expect_punct("(")
                target = self.ident("a target entity id").text
                self.expect_punct(")")
            out.append(m.Constraint(tok.text, target))
            self.cur.eat_punct(",")
        self.cur.next()  # )
        return out

    def _formula(self, start: Token) -> object | None:
        if self.cur.eat_word("details"):
            self.expect_punct(":")
        elif not self.cur.eat_word("arithmetic"):
            raise self.fail("ASL010", "expected 'arithmetic' or 'details' after formula", start.span)
        try:
            return mx.parse_expression(self.cur)
        except mx.ExprSyntaxError as exc:
            self.diags.append(error("ASL010", f"malformed formula: {exc}", exc.span or start.span))
            return None

    def _literal(self) -> m.Literal:
        tok = self.cur.next()
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING):
            return m.Literal(tok.value)
        if tok.text in ("True", "False", "true", "false"):
            return m.Literal(tok.text.lower() == "true")
        raise self.fail("ASL010", f"expected a literal, found {tok.text!r}", tok.span)

    def _finish_attributes(self, raw_attrs: list[_RawAttribute]) -> tuple[m.DataAttribute, ...]:
        has_measure = {
            a.id for a in raw_attrs if a.raw_measure is not None or a.expression_tag is not None
        }
        out: list[m.DataAttribute] = []
        for raw in raw_attrs:
            constraints = list(raw.constraints)
            attr_type = raw.attr_type
            if raw.is_dimension_typed:
                fk = next((c for c in constraints if c.kind == "ForeignKey"), None)
                if fk is None:
                    self.diags.append(
                        error("ASL012", f"dimension attribute {raw.id} needs a ForeignKey constraint", raw.loc)
                    )
                    attr_type = m.AttributeType.primitive("String")
                else:
                    constraints.remove(fk)
                    attr_type = m.AttributeType.dimension(fk.target)

            measure = None
            if raw.expression_tag is not None:
                text, tag_span = raw.expression_tag
                parsed = _tag_expression(text, tag_span)
                if parsed is None:
                    self.diags.append(
                        warning("ASL022", f"unparseable expression {text!r}; measure kept as opaque", tag_span)
                    )
                    measure = m.OpaqueMeasure(text)
                else:
                    try:
                        measure = mx.resolve_names(parsed, has_measure)
                    except mx.ExprSyntaxError:
                        self.diags.append(
                            warning("ASL022", f"unresolvable expression {text!r}; measure kept as opaque", tag_span)
                        )
                        measure = m.OpaqueMeasure(text)
            elif raw.raw_measure is not None:
                try:
                    measure = mx.resolve_names(raw.raw_measure, has_measure)
                except mx.ExprSyntaxError as exc:
                    self.diags.append(error("ASL010", f"malformed formula: {exc}", exc.span or raw.loc))

            try:
                out.append(
                    m.DataAttribute(
                        id=raw.id,
                        attr_type=attr_type,
                        name=raw.name,
                        default_value=raw.default,
                        measure=measure,
                        constraints=frozenset(constraints),
                        loc=raw.loc,
                    )
                )
            except m.ModelError as exc:
                self.diags.append(error("ASL010", str(exc), raw.loc))
        return tuple(out)

    def cluster(self) -> m.DataEntityCluster:
        start = self.cur.next()
        ident, name = self.named("a cluster id")
        entity_type = self.one_of("ASL020", "entity type", m.ENTITY_TYPES, m.ENTITY_TYPE_ALIASES)
        body = self.body("cluster", start, _CLUSTER)
        main = body.last("main")
        if main is None:
            raise self.fail("ASL010", f"cluster {ident.text} declares no main entity", ident.span)
        uses = tuple(body.joined("uses"))
        return self.build(ident, m.DataEntityCluster, ident.text, entity_type, main, uses, name, body.last("description"), start.span)

    # -- actors and use cases ----------------------------------------------

    def actor(self) -> m.Actor:
        start = self.cur.next()
        ident, name = self.named("an actor id")
        actor_type = self.one_of("ASL020", "actor type", m.ACTOR_TYPES)
        body = self.body("actor", start, _ACTOR) if self.cur.at_punct("[") else Clauses()
        return m.Actor(
            ident.text, actor_type, name, body.last("stakeholder"), body.last("isA"), body.last("description"), start.span
        )

    def use_case(self) -> m.UseCase:
        start = self.cur.next()
        ident, name = self.named("a use case id")
        uc_type = self.term("UseCaseType", self.cur.next())
        body = self.body("use case", start, _USE_CASE)
        primary = body.last("actorInitiates")
        if primary is None:
            raise self.fail("ASL010", f"use case {ident.text} declares no actorInitiates", ident.span)
        return self.build(
            ident,
            m.UseCase,
            id=ident.text,
            uc_type=uc_type,
            primary_actor=primary,
            name=name,
            stakeholder=body.last("stakeholder"),
            supporting_actors=tuple(body.joined("supportingActors")),
            data_source=body.last("dataEntity"),
            action_kinds=tuple(body.joined("actions")),
            operations=tuple(op for op in body.get("tag", ()) if op is not None),
            description=body.last("description"),
            loc=start.span,
        )

    def _decode_action_tag(self, tag_name: str, tag_value: str, span: Span) -> m.OlapOperation | None:
        """Decode BI-Action tags into OLAP operations; other tags are dropped."""
        parts = tag_name.split(":")
        if parts[0] != "BI-Action":
            self.diags.append(warning("ASL023", f"tag {tag_name!r} on use case has no model slot; dropped", span))
            return None
        if len(parts) != 3:
            self.diags.append(warning("ASL021", f"malformed BI-Action tag name {tag_name!r}", span))
            return None
        kind = m.OLAP_KIND_ALIASES.get(parts[1], parts[1])
        op_id = parts[2]
        if kind not in m.OLAP_KINDS or not m.is_identifier(op_id):
            self.diags.append(warning("ASL021", f"malformed BI-Action tag name {tag_name!r}", span))
            return None

        text = tag_value.strip()
        try:
            if text.startswith("Dimensions:"):
                dims = text[len("Dimensions:") :].strip().strip("'\"")
                touched = tuple(d.strip() for d in dims.split(",") if d.strip())
                return m.OlapOperation(id=op_id, kind=kind, touched_dimensions=touched, loc=span)
            return self._structured_action(op_id, kind, text, span)
        except (m.ModelError, mx.ExprSyntaxError) as exc:
            self.diags.append(warning("ASL021", f"malformed BI-Action tag value {tag_value!r}: {exc}", span))
            return None

    def _structured_action(self, op_id: str, kind: str, text: str, span: Span) -> m.OlapOperation:
        cur = _tag_cursor(text, span)
        name = description = None
        where: list[m.Predicate] = []
        group_by = None
        swap = None
        touched: tuple[str, ...] = ()
        def expect_string(what: str) -> str:
            if cur.peek().kind is not TokenKind.STRING:
                raise mx.ExprSyntaxError(f"expected a string after {what}", span)
            return str(cur.next().value)

        while not cur.at_eof():
            cur.eat_punct(";")
            if cur.eat_word("name"):
                name = expect_string("name")
            elif cur.eat_word("where"):
                where.append(mx.parse_predicate(cur))
                while cur.eat_word("and"):
                    where.append(mx.parse_predicate(cur))
            elif cur.eat_word("group"):
                if not cur.eat_word("by"):
                    raise mx.ExprSyntaxError("expected 'by' after group", span)
                group_by = mx.parse_path(cur)
            elif cur.eat_word("swap"):
                first = cur.next().text
                if not cur.eat_word("with"):
                    raise mx.ExprSyntaxError("expected 'with' in swap clause", span)
                swap = (first, cur.next().text)
            elif cur.eat_word("dimensions"):
                dims = [cur.next().text]
                while cur.eat_punct(","):
                    dims.append(cur.next().text)
                touched = tuple(dims)
            elif cur.eat_word("description"):
                description = expect_string("description")
            else:
                raise mx.ExprSyntaxError(f"unexpected token {cur.peek().text!r} in tag value", span)
        return m.OlapOperation(
            id=op_id,
            kind=kind,
            name=name,
            where_clauses=tuple(where),
            group_by=group_by,
            swap=swap,
            touched_dimensions=touched,
            description=description,
            loc=span,
        )


    # -- user interface ----------------------------------------------------

    def component(self) -> None:
        start = self.cur.next()
        ident, name = self.named("a component id")
        comp_type = self.term("UIComponentType", self.cur.next())
        comp_subtype = self.term("UIComponentSubType", self.cur.next()) if self.cur.eat_punct(":") else None
        body = self.body("component", start, _COMPONENT)
        events = body.get("event", ())
        raw = _RawComponent(
            ident.text,
            name,
            comp_type,
            comp_subtype,
            body.last("dataBinding"),
            [part for part in body.get("part", ()) if part is not None],
            {action for action, _ in events if action is not None},
            [target for _, target in events if target is not None],
            body.get("tag", []),
            body.last("description"),
            start.span,
        )
        if raw.id in self.components:
            self.diags.append(error("ASL010", f"duplicate component declaration {raw.id!r}", ident.span))
            return
        self.components[raw.id] = raw
        self.component_order.append(raw.id)

    def part(self) -> m.UIPart | None:
        ident, name = self.named("a part id")
        self.cur.next()  # general part type (Field); carried by the style, not the model
        kind = None
        if self.cur.eat_punct(":"):
            kind = self.term("UIComponentPartSubType", self.cur.next())
        if kind is None:
            self.diags.append(error("ASL010", f"part {ident.text} declares no part kind", ident.span))
            kind = "Column"
        self.expect_punct("[")
        self.expect_word("dataAttributeBinding")
        try:
            binding = mx.parse_path(self.cur)
        except mx.ExprSyntaxError as exc:
            self.diags.append(error("ASL010", str(exc), exc.span))
            self.skip_block()
            return None
        self.expect_punct("]")
        try:
            return m.UIPart(ident.text, kind, binding, name, ident.span)
        except m.ModelError as exc:
            self.diags.append(error("ASL010", str(exc), ident.span))
            return None

    def event(self) -> m.NavigationEvent:
        ident = self.ident("an event id")
        event_type = event_subtype = None
        if self.cur.eat_punct(":"):
            event_type = self.cur.next().text
            if self.cur.eat_punct(":"):
                event_subtype = self.cur.next().text
        body = self.body("event", ident, _EVENT) if self.cur.at_punct("[") else Clauses()
        return m.NavigationEvent(ident.text, event_type, event_subtype, body.last("navigationFlowTo"), ident.span)

    def component_event(self) -> tuple[str | None, str | None]:
        """An event on a component: the chart action it names and its navigation target."""
        event = self.event()
        action = m.CHART_ACTION_ALIASES.get(event.id, event.id)
        if action in m.CHART_ACTIONS:
            return action, event.navigates_to
        if event.navigates_to is None:
            self.diags.append(
                warning("ASL023", f"component event {event.id} has no model representation; dropped", event.loc)
            )
        return None, event.navigates_to

    def container(self) -> tuple[m.UIContainer, list[str]]:
        """The container without its components, and the ids of the components it references."""
        start = self.cur.next()
        ident, name = self.named("a container id")
        container_type = self.one_of("ASL020", "container type", m.CONTAINER_TYPES, m.CONTAINER_TYPE_ALIASES)
        container_subtype = self.term("UIContainerSubType", self.cur.next()) if self.cur.eat_punct(":") else None
        body = self.body("container", start, _CONTAINER)
        container = m.UIContainer(
            id=ident.text,
            container_type=container_type,
            name=name,
            container_subtype=container_subtype,
            events=tuple(body.get("event", ())),
            description=body.last("description"),
            loc=start.span,
        )
        return container, body.get("component", [])

    def _finalize_containers(self, raw_containers) -> list[m.UIContainer]:
        container_ids = {container.id for container, _ in raw_containers}
        built: dict[str, m.UIComponent] = {}
        referenced: set[str] = set()

        def build(comp_id: str) -> m.UIComponent | None:
            raw = self.components.get(comp_id)
            if raw is None:
                return None
            if comp_id not in built:
                navigates_to = next((t for t in raw.nav_candidates if t in container_ids), None)
                try:
                    built[comp_id] = m.UIComponent(
                        id=raw.id,
                        component_type=raw.component_type,
                        name=raw.name,
                        component_subtype=raw.component_subtype,
                        data_binding=raw.data_binding,
                        parts=tuple(raw.parts),
                        actions=frozenset(raw.actions),
                        navigates_to=navigates_to,
                        tags=tuple(raw.tags),
                        description=raw.description,
                        loc=raw.loc,
                    )
                except m.ModelError as exc:
                    self.diags.append(error("ASL010", str(exc), raw.loc))
                    return None
            return built[comp_id]

        containers: list[m.UIContainer] = []
        for container, refs in raw_containers:
            components: list[m.UIComponent] = []
            for ref in refs:
                comp = build(ref)
                if comp is None:
                    self.diags.append(
                        error("ASL020", f"container {container.id} references unknown component {ref!r}", container.loc)
                    )
                    continue
                referenced.add(ref)
                components.append(comp)
            containers.append(replace(container, components=tuple(components)))

        for comp_id in self.component_order:
            if comp_id not in referenced:
                self.diags.append(
                    warning("ASL023", f"component {comp_id} is referenced by no container; dropped", self.components[comp_id].loc)
                )
        return containers


# Readers of the clauses of each body, called as reader(parser, keyword, at).


def _enum_value(p: _Parser) -> str:
    return p.ident("an enumeration value").text


def _ident(what: str):
    return lambda p, tok, at: p.ident(what).text


def _idents(what: str):
    def item(p: _Parser) -> str:
        return p.ident(what).text

    return lambda p, tok, at: p.listed(item)


def _action_kind(p: _Parser) -> str:
    return p.term("ActionType", p.cur.next())


def _dropped_tag(owner: str, kept: str | None = None):
    """A tag reader; every tag but ``kept`` has no model slot on ``owner`` and is dropped (ASL023)."""

    def read(p: _Parser, tok: Token, at: Token) -> tuple[str, str, Span]:
        tag = p.tag_pair(tok)
        if tag[0] != kept:
            p.diags.append(warning("ASL023", f"tag {tag[0]!r} on {owner} {at.text} has no model slot; dropped", tag[2]))
        return tag

    return read


_DESCRIPTION = {"description": lambda p, tok, at: p.string("description")}
_ENTITY = {"attribute": lambda p, tok, at: p.attribute(), **_DESCRIPTION}
_ATTRIBUTE = {
    "constraints": lambda p, tok, at: p._constraints(),
    "formula": lambda p, tok, at: p._formula(tok),
    "tag": _dropped_tag("attribute", "expression"),
    "defaultValue": lambda p, tok, at: p._literal(),
}
_CLUSTER = {"main": _ident("an entity id"), "uses": _idents("an entity id"), **_DESCRIPTION}
_ACTOR = {"isA": _ident("an actor id"), "stakeholder": _ident("a stakeholder name"), **_DESCRIPTION}
_USE_CASE = {
    "actorInitiates": _ident("an actor id"),
    "supportingActors": _idents("an actor id"),
    "dataEntity": _ident("an entity or cluster id"),
    "stakeholder": _ident("a stakeholder name"),
    "actions": lambda p, tok, at: p.listed(_action_kind),
    "tag": lambda p, tok, at: p._decode_action_tag(*p.tag_pair(tok)),
    **_DESCRIPTION,
}
_COMPONENT = {
    "dataBinding": _ident("a data source id"),
    "part": lambda p, tok, at: p.part(),
    "event": lambda p, tok, at: p.component_event(),
    "tag": lambda p, tok, at: p.tag_pair(tok)[:2],
    **_DESCRIPTION,
}
_EVENT = {"navigationFlowTo": _ident("a navigation target"), "tag": _dropped_tag("event")}
_CONTAINER = {
    "component": _ident("a component id"),
    "event": lambda p, tok, at: p.event(),
    **_DESCRIPTION,
}
_DECLARATIONS = {
    "DataEnumeration": _Parser.enumeration,
    "DataEntity": _Parser.entity,
    "DataEntityCluster": _Parser.cluster,
    "Actor": _Parser.actor,
    "UseCase": _Parser.use_case,
    "component": _Parser.component,
    "UIContainer": _Parser.container,
    **{category: _Parser.extension for category in m.EXTENSION_CATEGORIES},
}



# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------


def _name_part(obj) -> str:
    return f" {mx.literal_text(obj.name)}" if obj.name is not None and obj.name != obj.id else ""


def _named(obj) -> str:
    # Top-level ASL declarations always carry their (possibly defaulted) name.
    return f" {mx.literal_text(obj.display_name)}"


def _collect_declarations(model: m.SpecificationModel) -> list[tuple[str, str, str | None]]:
    """Vocabulary declarations the emitted document must open with."""
    needed: set[tuple[str, str]] = set()

    for entity in model.entities:
        if entity.sub_type is not None:
            needed.add(("DataEntitySubType", _DIALECT_SPELLING.get(entity.sub_type, entity.sub_type)))
        for attr in entity.attributes:
            if attr.attr_type.kind == "dimension":
                needed.add(("DataAttributeType", "_Dimension"))
            elif attr.attr_type.kind == "primitive" and attr.attr_type.name == "UUID":
                needed.add(("DataAttributeType", "UUID"))

    for uc in model.use_cases:
        if uc.uc_type not in _ASL_BASE["UseCaseType"] or uc.uc_type == "BIAnalysis":
            needed.add(("UseCaseType", _DIALECT_SPELLING.get(uc.uc_type, uc.uc_type)))
        for kind in uc.action_kinds:
            needed.add(("ActionType", _ACTION_SPELLING[kind]))
        for op in uc.operations:
            needed.add(("ActionType", _ACTION_SPELLING[op.kind]))

    for container in model.ui_containers:
        if container.container_subtype is not None:
            needed.add(("UIContainerSubType", container.container_subtype))
        for comp in container.components:
            if comp.component_type not in _ASL_BASE["UIComponentType"]:
                needed.add(("UIComponentType", comp.component_type))
            if comp.component_subtype is not None:
                needed.add(("UIComponentSubType", comp.component_subtype))
            for part in comp.parts:
                needed.add(("UIComponentPartSubType", part.part_kind))

    by_key: dict[tuple[str, str], str | None] = {key: None for key in needed}
    for ext in model.vocabulary_extensions:
        by_key[(ext.category, ext.id)] = ext.description

    order = {cat: i for i, cat in enumerate(m.EXTENSION_CATEGORIES)}
    return sorted(
        [(cat, term, desc) for (cat, term), desc in by_key.items()],
        key=lambda item: (order[item[0]], item[1]),
    )


def emit_asl(model: m.SpecificationModel) -> tuple[str, list[Diagnostic]]:
    """Deterministic canonical ASL text; every model construct is representable."""
    out: list[str] = []
    diags: list[Diagnostic] = []

    declarations = _collect_declarations(model)
    for category, term, description in declarations:
        line = f"{category} {term}"
        if description is not None:
            line += f" [description {mx.literal_text(description)}]"
        out.append(line)
    if declarations:
        out.append("")

    for enum in sorted(model.enumerations, key=lambda e: e.id):
        out.append(f"DataEnumeration {enum.id}{_named(enum)} values ({', '.join(enum.values)})")
        out.append("")

    for entity in sorted(model.entities, key=lambda e: e.id):
        sub = ""
        if entity.sub_type is not None:
            sub = f" : {_DIALECT_SPELLING.get(entity.sub_type, entity.sub_type)}"
        out.append(f"DataEntity {entity.id}{_named(entity)} : {entity.entity_type}{sub} [")
        for attr in entity.attributes:
            out.append(_attribute_line(attr))
        if entity.description is not None:
            out.append(f"  description {mx.literal_text(entity.description)}")
        out.append("]")
        out.append("")

    for cluster in sorted(model.clusters, key=lambda c: c.id):
        out.append(f"DataEntityCluster {cluster.id}{_named(cluster)} : {cluster.entity_type} [")
        out.append(f"  main {cluster.main}")
        if cluster.uses:
            out.append(f"  uses {', '.join(cluster.uses)}")
        if cluster.description is not None:
            out.append(f"  description {mx.literal_text(cluster.description)}")
        out.append("]")
        out.append("")

    for actor in sorted(model.actors, key=lambda a: a.id):
        body: list[str] = []
        if actor.is_a is not None:
            body.append(f"  isA {actor.is_a}")
        if actor.stakeholder is not None:
            body.append(f"  stakeholder {actor.stakeholder}")
        if actor.description is not None:
            body.append(f"  description {mx.literal_text(actor.description)}")
        head = f"Actor {actor.id}{_named(actor)} : {actor.actor_type}"
        if body:
            out.append(head + " [")
            out.extend(body)
            out.append("]")
        else:
            out.append(head)
        out.append("")

    for uc in sorted(model.use_cases, key=lambda u: u.id):
        uc_type = _DIALECT_SPELLING.get(uc.uc_type, uc.uc_type)
        out.append(f"UseCase {uc.id}{_named(uc)} : {uc_type} [")
        if uc.stakeholder is not None:
            out.append(f"  stakeholder {uc.stakeholder}")
        out.append(f"  actorInitiates {uc.primary_actor}")
        if uc.supporting_actors:
            out.append(f"  supportingActors {', '.join(uc.supporting_actors)}")
        if uc.data_source is not None:
            out.append(f"  dataEntity {uc.data_source}")
        if uc.action_kinds:
            out.append(f"  actions {', '.join(_ACTION_SPELLING[k] for k in uc.action_kinds)}")
        for op in uc.operations:
            name, value = mx.literal_text(_action_tag_name(op)), mx.literal_text(_action_tag_value(op))
            out.append(f"  tag (name {name} value {value})")
        if uc.description is not None:
            out.append(f"  description {mx.literal_text(uc.description)}")
        out.append("]")
        out.append("")

    emitted: dict[str, m.UIComponent] = {}
    for container in sorted(model.ui_containers, key=lambda c: c.id):
        for comp in container.components:
            previous = emitted.get(comp.id)
            if previous is None:
                emitted[comp.id] = comp
            elif previous != comp:
                diags.append(
                    warning("ASL023", f"component id {comp.id} reused with different content; first declaration wins")
                )
    for comp_id in sorted(emitted):
        _emit_component(out, emitted[comp_id])

    for container in sorted(model.ui_containers, key=lambda c: c.id):
        ctype = "Window" if container.container_type == "MainWindow" else "ModalWindow"
        sub = f" : {container.container_subtype}" if container.container_subtype is not None else ""
        out.append(f"UIContainer {container.id}{_named(container)} : {ctype}{sub} [")
        for comp in container.components:
            out.append(f"  component {comp.id}")
        for event in container.events:
            out.append("  " + _event_line(event))
        if container.description is not None:
            out.append(f"  description {mx.literal_text(container.description)}")
        out.append("]")
        out.append("")

    text = "\n".join(out).strip()
    return (text + "\n" if text else ""), diags


def _attribute_line(attr: m.DataAttribute) -> str:
    if attr.attr_type.kind == "dimension":
        type_text = "_Dimension"
    elif attr.attr_type.kind == "enum":
        type_text = f"DataEnumeration {attr.attr_type.name}"
    else:
        type_text = attr.attr_type.name
        if attr.attr_type.length is not None:
            type_text += f"({attr.attr_type.length})"

    items: list[str] = []
    constraints = sorted(attr.constraints, key=lambda c: m.CONSTRAINT_KINDS.index(c.kind))
    rendered = [f"ForeignKey({c.target})" if c.kind == "ForeignKey" else c.kind for c in constraints]
    if attr.attr_type.kind == "dimension":
        rendered.append(f"ForeignKey({attr.attr_type.name})")
    if rendered:
        items.append(f"constraints ({' '.join(rendered)})")
    if attr.default_value is not None:
        items.append(f"defaultValue {mx.literal_text(attr.default_value.value)}")
    if attr.measure is not None:
        items.append(_measure_item(attr.measure))

    line = f"  attribute {attr.id}{_name_part(attr)} : {type_text}"
    if items:
        line += f" [{' '.join(items)}]"
    return line


def _measure_item(measure: object) -> str:
    if isinstance(measure, m.OpaqueMeasure):
        return f'tag (name "expression" value {mx.literal_text(measure.text)})'
    if isinstance(measure, m.Aggregate):
        if isinstance(measure.arg, m.Predicate):
            # Strings nested inside tag values use single quotes to avoid escaping.
            text = mx.measure_text(measure, quote="'")
            return f'tag (name "expression" value {mx.literal_text(text)})'
        return f"formula details: {measure.fn.lower()} ({measure.arg})"
    return f"formula arithmetic {mx.measure_text(measure)}"


def _action_tag_name(op: m.OlapOperation) -> str:
    return f"BI-Action:{_ACTION_SPELLING[op.kind]}:{op.id}"


def _action_tag_value(op: m.OlapOperation) -> str:
    clauses: list[str] = []
    if op.name is not None and op.name != op.id:
        clauses.append("name " + mx.literal_text(op.name, "'"))
    if op.where_clauses:
        clauses.append("where " + " and ".join(mx.predicate_text(p, "'") for p in op.where_clauses))
    if op.group_by is not None:
        clauses.append(f"group by {op.group_by}")
    if op.swap is not None:
        clauses.append(f"swap {op.swap[0]} with {op.swap[1]}")
    if op.touched_dimensions:
        clauses.append("dimensions " + ", ".join(op.touched_dimensions))
    if op.description is not None:
        clauses.append("description " + mx.literal_text(op.description, "'"))
    return "; ".join(clauses)


def _event_line(event: m.NavigationEvent) -> str:
    line = f"event {event.id}"
    if event.event_type is not None:
        line += f" : {event.event_type}"
        if event.event_subtype is not None:
            line += f" : {event.event_subtype}"
    if event.navigates_to is not None:
        line += f" [navigationFlowTo {event.navigates_to}]"
    return line


def _emit_component(out: list[str], comp: m.UIComponent) -> None:
    sub = f" : {comp.component_subtype}" if comp.component_subtype is not None else ""
    out.append(f"component {comp.id}{_named(comp)} : {comp.component_type}{sub} [")
    if comp.data_binding is not None:
        out.append(f"  dataBinding {comp.data_binding}")
    for part in comp.parts:
        name = f" {mx.literal_text(part.name)}" if part.name is not None and part.name != part.id else ""
        out.append(f"  part {part.id}{name} : Field : {part.part_kind} [dataAttributeBinding {part.binding}]")
    for action in sorted(comp.actions):
        out.append(f"  event {action} : Other")
    if comp.navigates_to is not None:
        out.append(f"  event NavigateTo : Submit : Submit_Back [navigationFlowTo {comp.navigates_to}]")
    for tag_name, tag_value in comp.tags:
        out.append(f"  tag (name {mx.literal_text(tag_name)} value {mx.literal_text(tag_value)})")
    if comp.description is not None:
        out.append(f"  description {mx.literal_text(comp.description)}")
    out.append("]")
    out.append("")
