"""ASL frontend: parser and canonical emitter for the bracketed, typed style.

ASL is the richer of the two syntaxes: vocabulary extension declarations
register terms before use, measures arrive as formulas or expression tags,
clusters group facts with their dimensions, and UI containers reference
standalone component declarations. Everything the model can hold is
representable, so emit is lossless.

Each construct's bracketed body is a list of keyword clauses. One loop,
``_Parser.body``, reads every body; the construct's clause table, built
once below the parser, maps each keyword to the reader of its clause and
the writer that emits it, and the emitter writes each body by one loop
over the same table, in table order.
"""

from __future__ import annotations

from dataclasses import replace
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


def parse_asl(source: str, file: str = "<asl>") -> tuple[m.SpecificationModel, list[Diagnostic]]:
    return _Parser(source, file).parse()


class _Parser(Parser):
    prefix = "ASL"

    def __init__(self, source: str, file: str):
        super().__init__(*tokenize(source, file=file, code_prefix="ASL", block_comments=True))
        self.registered: dict[str, set[str]] = {cat: set() for cat in m.EXTENSION_CATEGORIES}
        self.model_extensions: list[m.VocabularyExtension] = []
        # Component id -> (the component, None when it failed its model check, and the targets its events name).
        self.components: dict[str, tuple[m.UIComponent | None, list[str]]] = {}

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
        keyword is consumed and the reader of its entry called with the parser,
        the keyword and ``at``. ASL011 at ``at`` when the input ends first; a
        token that opens no clause is reported (ASL010) and skipped."""
        self.expect_punct("[")
        found = Clauses()
        cur = self.cur
        while not cur.at_punct("]"):
            if cur.at_eof():
                raise self.fail("ASL011", f"unbalanced bracket in {what} body", at.span)
            tok = cur.next()
            entry = clauses.get(tok.text)
            if entry is None:
                self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in {what} body", tok.span))
            else:
                found.setdefault(tok.text, []).append(entry[0](self, tok, at))
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
        values = self.listed(_ident("an enumeration value"))
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

    def attribute(self) -> tuple[dict, object | None, tuple[str, Span] | None]:
        """The attribute as read: its model fields but the measure (the type None
        while a ``_Dimension`` awaits its ForeignKey), its formula and its expression tag."""
        ident, name = self.named("an attribute id")
        attr_type: m.AttributeType | None = None
        length = None
        type_tok = self.cur.next()
        if type_tok.text == "DataEnumeration":
            attr_type = m.AttributeType.enum(self.ident("an enumeration id").text)
        elif type_tok.text == "_Dimension":
            self.term("DataAttributeType", type_tok)
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
        fields = dict(
            id=ident.text, attr_type=attr_type, name=name, default_value=body.last("defaultValue"),
            constraints=body.joined("constraints"), loc=ident.span,
        )
        return fields, body.last("formula"), expressions[-1] if expressions else None

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
        literal = mx.parse_literal(self.cur)
        if literal is None:
            tok = self.cur.next()
            raise self.fail("ASL010", f"expected a literal, found {tok.text!r}", tok.span)
        return literal

    def _finish_attributes(self, raw_attrs: list[tuple]) -> tuple[m.DataAttribute, ...]:
        has_measure = {fields["id"] for fields, formula, tag in raw_attrs if formula is not None or tag is not None}
        out: list[m.DataAttribute] = []
        for fields, formula, tag in raw_attrs:
            constraints = fields["constraints"]
            if fields["attr_type"] is None:
                fk = next((c for c in constraints if c.kind == "ForeignKey"), None)
                if fk is None:
                    self.diags.append(
                        error("ASL012", f"dimension attribute {fields['id']} needs a ForeignKey constraint", fields["loc"])
                    )
                    fields["attr_type"] = m.AttributeType.primitive("String")
                else:
                    constraints.remove(fk)
                    fields["attr_type"] = m.AttributeType.dimension(fk.target)
            fields["constraints"] = frozenset(constraints)

            measure = None
            if tag is not None:
                text, tag_span = tag
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
            elif formula is not None:
                try:
                    measure = mx.resolve_names(formula, has_measure)
                except mx.ExprSyntaxError as exc:
                    self.diags.append(error("ASL010", f"malformed formula: {exc}", exc.span or fields["loc"]))

            try:
                out.append(m.DataAttribute(**fields, measure=measure))
            except m.ModelError as exc:
                self.diags.append(error("ASL010", str(exc), fields["loc"]))
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
        return self.build(
            ident, m.DataEntityCluster, ident.text, entity_type, main, uses, name, body.last("description"), start.span
        )

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
        fields: dict[str, object] = {}
        while not cur.at_eof():
            cur.eat_punct(";")
            tok = cur.eat_word(*_ACTION_TAG)
            if tok is None:
                raise mx.ExprSyntaxError(f"unexpected token {cur.peek().text!r} in tag value", span)
            field, read, _ = _ACTION_TAG[tok.text]
            value = read(cur, span)
            fields[field] = fields.get(field, ()) + value if field == "where_clauses" else value  # where clauses add up
        return m.OlapOperation(id=op_id, kind=kind, **fields, loc=span)

    # -- user interface ----------------------------------------------------

    def component(self) -> None:
        start = self.cur.next()
        ident, name = self.named("a component id")
        comp_type = self.term("UIComponentType", self.cur.next())
        comp_subtype = self.term("UIComponentSubType", self.cur.next()) if self.cur.eat_punct(":") else None
        body = self.body("component", start, _COMPONENT)
        events = body.get("event", ())
        if ident.text in self.components:
            self.diags.append(error("ASL010", f"duplicate component declaration {ident.text!r}", ident.span))
            return
        try:
            component = m.UIComponent(
                id=ident.text,
                component_type=comp_type,
                name=name,
                component_subtype=comp_subtype,
                data_binding=body.last("dataBinding"),
                parts=tuple(part for part in body.get("part", ()) if part is not None),
                actions=frozenset(action for action, _ in events if action is not None),
                tags=tuple(body.get("tag", ())),
                description=body.last("description"),
                loc=start.span,
            )
        except m.ModelError as exc:
            self.diags.append(error("ASL010", str(exc), start.span))
            component = None
        self.components[ident.text] = component, [target for _, target in events if target is not None]

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
        """Each container with the components it references, each of these
        navigating to the first target its events name that is a container."""
        container_ids = {container.id for container, _ in raw_containers}
        referenced = {ref for _, refs in raw_containers for ref in refs}
        components: dict[str, m.UIComponent] = {}
        for comp_id, (component, targets) in self.components.items():
            if component is None:  # reported where it is declared
                continue
            if comp_id not in referenced:
                self.diags.append(warning("ASL023", f"component {comp_id} is referenced by no container; dropped", component.loc))
                continue
            navigates_to = next((t for t in targets if t in container_ids), None)
            components[comp_id] = component if navigates_to is None else replace(component, navigates_to=navigates_to)

        containers: list[m.UIContainer] = []
        for container, refs in raw_containers:
            for ref in refs:
                if ref not in self.components:
                    self.diags.append(
                        error("ASL020", f"container {container.id} references unknown component {ref!r}", container.loc)
                    )
            containers.append(replace(container, components=tuple(components[ref] for ref in refs if ref in components)))
        return containers


# Readers of the clauses of each body, called as reader(parser, keyword, at).


def _ident(what: str):
    """A reader of an identifier's text; as a clause's reader it ignores the keyword and ``at``."""
    return lambda p, *_: p.ident(what).text


def _idents(what: str):
    item = _ident(what)
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


# Readers of the clauses of a BI-Action tag value, called as reader(cursor, at).


def _tag_string(what: str):
    def read(cur: Cursor, at: Span) -> str:
        if cur.peek().kind is not TokenKind.STRING:
            raise mx.ExprSyntaxError(f"expected a string after {what}", at)
        return str(cur.next().value)

    return read


def _tag_group_by(cur: Cursor, at: Span) -> m.AttributePath:
    if not cur.eat_word("by"):
        raise mx.ExprSyntaxError("expected 'by' after group", at)
    return mx.parse_path(cur)


def _tag_swap(cur: Cursor, at: Span) -> tuple[str, str]:
    first = cur.next().text
    if not cur.eat_word("with"):
        raise mx.ExprSyntaxError("expected 'with' in swap clause", at)
    return first, cur.next().text


def _tag_dimensions(cur: Cursor, at: Span) -> tuple[str, ...]:
    dimensions = [cur.next().text]
    while cur.eat_punct(","):
        dimensions.append(cur.next().text)
    return tuple(dimensions)


# Writers of the clauses of each body, called as writer(owner): each returns
# the clauses it writes for ``owner``.


def _write(field: str, line: str, text=None, each: bool = False):
    """A writer of the model field ``field``: ``line`` formatted with its value,
    or ``text`` of it, a line per item with ``each``; nothing when the field is empty."""

    def write(owner) -> list[str]:
        value = getattr(owner, field)
        if value is None or not value and not isinstance(value, str):  # None or an empty collection
            return []
        if each:
            return [line.format(text(item) if text else item) for item in value]
        return [line.format(text(value) if text else value)]

    return write


def _write_constraints(attr: m.DataAttribute) -> list[str]:
    """The constraints in the language's order; a dimension reference is written as its ForeignKey."""
    rendered = mx.constraint_texts(attr.constraints)
    if attr.attr_type.kind == "dimension":
        rendered.append(f"ForeignKey({attr.attr_type.name})")
    return [f"constraints ({' '.join(rendered)})"] if rendered else []


def _expression(measure: object) -> str | None:
    """The text of the ``expression`` tag for a measure that no formula can write; None for any other."""
    if isinstance(measure, m.OpaqueMeasure):
        return measure.text
    if isinstance(measure, m.Aggregate) and isinstance(measure.arg, m.Predicate):
        return mx.measure_text(measure, quote="'")  # strings nested inside tag values use single quotes
    return None


def _write_formula(attr: m.DataAttribute) -> list[str]:
    measure = attr.measure
    if measure is None or _expression(measure) is not None:
        return []
    if isinstance(measure, m.Aggregate):
        return [f"formula details: {measure.fn.lower()} ({measure.arg})"]
    return [f"formula arithmetic {mx.measure_text(measure)}"]


def _write_expression(attr: m.DataAttribute) -> list[str]:
    text = _expression(attr.measure)
    return [] if text is None else [_tag("expression", text)]


def _write_action_name(op: m.OlapOperation) -> list[str]:
    name = mx.shown_name(op, "name {}", "'")  # strings nested inside tag values use single quotes
    return [name] if name else []


def _single_quoted(text: str) -> str:
    return mx.literal_text(text, "'")  # strings nested inside tag values use single quotes


def _write_events(comp: m.UIComponent) -> list[str]:
    """A chart action as an ``Other`` event, the navigation target as a ``NavigateTo`` event."""
    lines = [f"event {action} : Other" for action in sorted(comp.actions)]
    if comp.navigates_to is not None:
        lines.append(f"event NavigateTo : Submit : Submit_Back [navigationFlowTo {comp.navigates_to}]")
    return lines


def _tag(name: str, value: str) -> str:
    return f"tag (name {mx.literal_text(name)} value {mx.literal_text(value)})"


def _attribute_text(attr: m.DataAttribute) -> str:
    if attr.attr_type.kind == "dimension":
        type_text = "_Dimension"
    elif attr.attr_type.kind == "enum":
        type_text = f"DataEnumeration {attr.attr_type.name}"
    else:
        type_text = attr.attr_type.name
        if attr.attr_type.length is not None:
            type_text += f"({attr.attr_type.length})"
    return f"{attr.id}{mx.shown_name(attr)} : {type_text}{_inline(attr, _ATTRIBUTE)}"


def _part_text(part: m.UIPart) -> str:
    return f"{part.id}{mx.shown_name(part)} : Field : {part.part_kind} [dataAttributeBinding {part.binding}]"


def _event_text(event: m.NavigationEvent) -> str:
    text = event.id
    if event.event_type is not None:
        text += f" : {event.event_type}"
        if event.event_subtype is not None:
            text += f" : {event.event_subtype}"
    return text + _inline(event, _EVENT)


def _action_tag(op: m.OlapOperation) -> str:
    return _tag(f"BI-Action:{_ACTION_SPELLING[op.kind]}:{op.id}", "; ".join(_body(op, _ACTION_TAG)))


# Clause tables: keyword -> (reader, writer), in the order the clauses are written.

_DESCRIPTION = {
    "description": (lambda p, tok, at: p.string("description"), _write("description", "description {}", mx.literal_text)),
}
_ENTITY = {
    "attribute": (lambda p, tok, at: p.attribute(), _write("attributes", "attribute {}", _attribute_text, each=True)),
    **_DESCRIPTION,
}
_ATTRIBUTE = {
    "constraints": (lambda p, tok, at: p._constraints(), _write_constraints),
    "defaultValue": (
        lambda p, tok, at: p._literal(),
        _write("default_value", "defaultValue {}", lambda default: mx.literal_text(default.value)),
    ),
    "formula": (lambda p, tok, at: p._formula(tok), _write_formula),
    "tag": (_dropped_tag("attribute", "expression"), _write_expression),
}
_CLUSTER = {
    "main": (_ident("an entity id"), _write("main", "main {}")),
    "uses": (_idents("an entity id"), _write("uses", "uses {}", ", ".join)),
    **_DESCRIPTION,
}
_ACTOR = {
    "isA": (_ident("an actor id"), _write("is_a", "isA {}")),
    "stakeholder": (_ident("a stakeholder name"), _write("stakeholder", "stakeholder {}")),
    **_DESCRIPTION,
}
_USE_CASE = {
    "stakeholder": (_ident("a stakeholder name"), _write("stakeholder", "stakeholder {}")),
    "actorInitiates": (_ident("an actor id"), _write("primary_actor", "actorInitiates {}")),
    "supportingActors": (_idents("an actor id"), _write("supporting_actors", "supportingActors {}", ", ".join)),
    "dataEntity": (_ident("an entity or cluster id"), _write("data_source", "dataEntity {}")),
    "actions": (
        lambda p, tok, at: p.listed(_action_kind),
        _write("action_kinds", "actions {}", lambda kinds: ", ".join(_ACTION_SPELLING[k] for k in kinds)),
    ),
    "tag": (lambda p, tok, at: p._decode_action_tag(*p.tag_pair(tok)), _write("operations", "{}", _action_tag, each=True)),
    **_DESCRIPTION,
}
_COMPONENT = {
    "dataBinding": (_ident("a data source id"), _write("data_binding", "dataBinding {}")),
    "part": (lambda p, tok, at: p.part(), _write("parts", "part {}", _part_text, each=True)),
    "event": (lambda p, tok, at: p.component_event(), _write_events),
    "tag": (lambda p, tok, at: p.tag_pair(tok)[:2], _write("tags", "{}", lambda tag: _tag(*tag), each=True)),
    **_DESCRIPTION,
}
_EVENT = {
    "navigationFlowTo": (_ident("a navigation target"), _write("navigates_to", "navigationFlowTo {}")),
    "tag": (_dropped_tag("event"), lambda event: []),  # the model keeps no tag of an event
}
_CONTAINER = {
    "component": (_ident("a component id"), _write("components", "component {}", lambda comp: comp.id, each=True)),
    "event": (lambda p, tok, at: p.event(), _write("events", "event {}", _event_text, each=True)),
    **_DESCRIPTION,
}
_ACTION_TAG = {  # a BI-Action tag value's clauses: keyword -> (field, reader, writer)
    "name": ("name", _tag_string("name"), _write_action_name),
    "where": (
        "where_clauses",
        lambda cur, at: tuple(mx.parse_predicates(cur)),
        _write("where_clauses", "where {}", lambda where: " and ".join(mx.predicate_text(pred, "'") for pred in where)),
    ),
    "group": ("group_by", _tag_group_by, _write("group_by", "group by {}")),
    "swap": ("swap", _tag_swap, _write("swap", "swap {0[0]} with {0[1]}")),
    "dimensions": ("touched_dimensions", _tag_dimensions, _write("touched_dimensions", "dimensions {}", ", ".join)),
    "description": ("description", _tag_string("description"), _write("description", "description {}", _single_quoted)),
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


def _named(obj) -> str:
    # Top-level ASL declarations always carry their (possibly defaulted) name.
    return f" {mx.literal_text(obj.display_name)}"


def _body(owner, table: dict) -> list[str]:
    """What the writers of ``table``'s clauses write for ``owner``, in table order."""
    lines: list[str] = []
    for entry in table.values():
        lines += entry[-1](owner)
    return lines


def _inline(owner, table: dict) -> str:
    """``owner``'s body on its head's line; nothing when it has no clause."""
    body = _body(owner, table)
    return f" [{' '.join(body)}]" if body else ""


def _block(head: str, body: list[str]) -> list[str]:
    return [f"{head} [", *["  " + line for line in body], "]", ""]


def _collect_declarations(model: m.SpecificationModel) -> list[tuple[tuple[str, str], object]]:
    """The vocabulary declarations the document opens with: (category, term) and the model's extension for it."""
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

    declared = dict.fromkeys(needed, SimpleNamespace(description=None))  # a term without an extension has no description
    declared.update(((ext.category, ext.id), ext) for ext in model.vocabulary_extensions)
    order = {cat: i for i, cat in enumerate(m.EXTENSION_CATEGORIES)}
    return sorted(declared.items(), key=lambda item: (order[item[0][0]], item[0][1]))


def emit_asl(model: m.SpecificationModel) -> tuple[str, list[Diagnostic]]:
    """Deterministic canonical ASL text; every model construct is representable."""
    out: list[str] = []
    diags: list[Diagnostic] = []

    declarations = _collect_declarations(model)
    out += [f"{category} {term}{_inline(ext, _DESCRIPTION)}" for (category, term), ext in declarations]
    if declarations:
        out.append("")

    for enum in sorted(model.enumerations, key=lambda e: e.id):
        out += [f"DataEnumeration {enum.id}{_named(enum)} values ({', '.join(enum.values)})", ""]

    for entity in sorted(model.entities, key=lambda e: e.id):
        sub = f" : {_DIALECT_SPELLING.get(entity.sub_type, entity.sub_type)}" if entity.sub_type is not None else ""
        out += _block(f"DataEntity {entity.id}{_named(entity)} : {entity.entity_type}{sub}", _body(entity, _ENTITY))

    for cluster in sorted(model.clusters, key=lambda c: c.id):
        out += _block(f"DataEntityCluster {cluster.id}{_named(cluster)} : {cluster.entity_type}", _body(cluster, _CLUSTER))

    for actor in sorted(model.actors, key=lambda a: a.id):
        head, body = f"Actor {actor.id}{_named(actor)} : {actor.actor_type}", _body(actor, _ACTOR)
        out += _block(head, body) if body else [head, ""]

    for uc in sorted(model.use_cases, key=lambda u: u.id):
        uc_type = _DIALECT_SPELLING.get(uc.uc_type, uc.uc_type)
        out += _block(f"UseCase {uc.id}{_named(uc)} : {uc_type}", _body(uc, _USE_CASE))

    emitted: dict[str, m.UIComponent] = {}
    for container in sorted(model.ui_containers, key=lambda c: c.id):
        for comp in container.components:
            if emitted.setdefault(comp.id, comp) != comp:
                diags.append(warning("ASL023", f"component id {comp.id} reused with different content; first declaration wins"))
    for comp in (emitted[comp_id] for comp_id in sorted(emitted)):
        sub = f" : {comp.component_subtype}" if comp.component_subtype is not None else ""
        out += _block(f"component {comp.id}{_named(comp)} : {comp.component_type}{sub}", _body(comp, _COMPONENT))

    for container in sorted(model.ui_containers, key=lambda c: c.id):
        ctype = "Window" if container.container_type == "MainWindow" else "ModalWindow"
        sub = f" : {container.container_subtype}" if container.container_subtype is not None else ""
        out += _block(f"UIContainer {container.id}{_named(container)} : {ctype}{sub}", _body(container, _CONTAINER))

    text = "\n".join(out).strip()
    return (text + "\n" if text else ""), diags
