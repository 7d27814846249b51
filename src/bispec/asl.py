"""ASL frontend: parser and canonical emitter for the bracketed, typed style.

ASL is the richer of the two syntaxes: vocabulary extension declarations
register terms before use, measures arrive as formulas or expression tags,
clusters group facts with their dimensions, and UI containers reference
standalone component declarations. Everything the model can hold is
representable, so emit is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from . import measure as mx
from . import model as m
from .diagnostics import Diagnostic, Span, error, warning
from .lexer import Cursor, Token, TokenKind, tokenize

TOP_LEVEL_WORDS = (
    "DataEntity",
    "DataEnumeration",
    "DataEntityCluster",
    "Actor",
    "UseCase",
    "UIContainer",
    "component",
) + m.EXTENSION_CATEGORIES

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


class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


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
    data_binding: str | None = None
    parts: list[m.UIPart] = field(default_factory=list)
    actions: set[str] = field(default_factory=set)
    nav_candidates: list[str] = field(default_factory=list)
    tags: list[tuple[str, str]] = field(default_factory=list)
    description: str | None = None
    loc: Span | None = None


def parse_asl(source: str, file: str = "<asl>") -> tuple[m.SpecificationModel, list[Diagnostic]]:
    return _Parser(source, file).parse()


class _Parser:
    def __init__(self, source: str, file: str):
        tokens, lex_diags = tokenize(source, file=file, code_prefix="ASL", block_comments=True)
        self.cur = Cursor(tokens)
        self.diags: list[Diagnostic] = list(lex_diags)
        self.registered: dict[str, set[str]] = {cat: set() for cat in m.EXTENSION_CATEGORIES}
        self.model_extensions: list[m.VocabularyExtension] = []
        self.components: dict[str, _RawComponent] = {}
        self.component_order: list[str] = []

    # -- plumbing ----------------------------------------------------------

    def fail(self, code: str, message: str, span: Span | None = None) -> _ParseError:
        return _ParseError(error(code, message, span if span is not None else self.cur.peek().span))

    def recover(self) -> None:
        self.cur.next()
        while not self.cur.at_eof() and self.cur.peek().text not in TOP_LEVEL_WORDS:
            self.cur.next()

    def ident(self, what: str) -> Token:
        tok = self.cur.peek()
        if tok.is_word() and m.is_identifier(tok.text):
            return self.cur.next()
        raise self.fail("ASL010", f"expected {what}, found {tok.text or 'end of input'!r}")

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

    def expect_word(self, *words: str) -> Token:
        tok = self.cur.eat_word(*words)
        if tok is None:
            found = self.cur.peek()
            raise self.fail("ASL010", f"expected {' or '.join(words)!r}, found {found.text or 'end of input'!r}")
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

    def tag_pair(self) -> tuple[str, str, Span]:
        """Parse ``tag (name "..." value "...")``; the tag keyword is consumed."""
        start = self.cur.next()  # tag
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
        enums: list[m.DataEnumeration] = []
        entities: list[m.DataEntity] = []
        clusters: list[m.DataEntityCluster] = []
        actors: list[m.Actor] = []
        use_cases: list[m.UseCase] = []
        raw_containers: list[tuple[dict, list[str]]] = []

        while not self.cur.at_eof():
            tok = self.cur.peek()
            try:
                if tok.text in m.EXTENSION_CATEGORIES:
                    self.extension()
                elif tok.text == "DataEnumeration":
                    enums.append(self.enumeration())
                elif tok.text == "DataEntity":
                    entities.append(self.entity())
                elif tok.text == "DataEntityCluster":
                    clusters.append(self.cluster())
                elif tok.text == "Actor":
                    actors.append(self.actor())
                elif tok.text == "UseCase":
                    use_cases.append(self.use_case())
                elif tok.text == "component":
                    self.component()
                elif tok.text == "UIContainer":
                    raw_containers.append(self.container())
                else:
                    raise self.fail("ASL010", f"expected a declaration, found {tok.text!r}", tok.span)
            except _ParseError as exc:
                self.diags.append(exc.diag)
                self.recover()

        containers = self._finalize_containers(raw_containers)
        model = m.SpecificationModel(
            enumerations=tuple(enums),
            entities=tuple(entities),
            clusters=tuple(clusters),
            actors=tuple(actors),
            use_cases=tuple(use_cases),
            ui_containers=tuple(containers),
            vocabulary_extensions=tuple(self.model_extensions),
        )
        return mx.normalize_enum_literals(model), self.diags

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
        values = [self.ident("an enumeration value").text]
        while self.cur.eat_punct(","):
            values.append(self.ident("an enumeration value").text)
        self.expect_punct(")")
        try:
            return m.DataEnumeration(ident.text, name, tuple(values), start.span)
        except m.ModelError as exc:
            raise self.fail("ASL010", str(exc), ident.span)

    def entity(self) -> m.DataEntity:
        start = self.cur.next()
        ident = self.ident("an entity id")
        name = self.opt_name()
        self.expect_punct(":")
        type_tok = self.cur.next()
        entity_type = m.ENTITY_TYPE_ALIASES.get(type_tok.text, type_tok.text)
        if entity_type not in m.ENTITY_TYPES:
            raise self.fail("ASL020", f"unknown entity type {type_tok.text!r}", type_tok.span)
        sub_type = None
        if self.cur.eat_punct(":"):
            sub_type = self.term("DataEntitySubType", self.cur.next())

        self.expect_punct("[")
        raw_attrs: list[_RawAttribute] = []
        description = None
        while not self.cur.at_punct("]"):
            if self.cur.at_eof():
                raise self.fail("ASL011", "unbalanced bracket: entity body never closes", start.span)
            if self.cur.at_word("attribute"):
                attr = self.attribute()
                if attr is not None:
                    raw_attrs.append(attr)
            elif self.cur.eat_word("description"):
                description = self.string("description")
            else:
                tok = self.cur.peek()
                self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in entity body", tok.span))
                self.cur.next()
        self.cur.next()  # ]

        attributes = self._finish_attributes(raw_attrs)
        try:
            return m.DataEntity(
                id=ident.text,
                entity_type=entity_type,
                attributes=attributes,
                name=name,
                sub_type=sub_type,
                description=description,
                loc=start.span,
            )
        except m.ModelError as exc:
            raise self.fail("ASL010", str(exc), ident.span)

    def attribute(self) -> _RawAttribute | None:
        self.cur.next()  # attribute
        ident = self.ident("an attribute id")
        name = self.opt_name()
        self.expect_punct(":")

        attr_type: m.AttributeType | None = None
        is_dimension = False
        length = None
        type_tok = self.cur.next()
        if type_tok.text == "DataEnumeration":
            enum_id = self.ident("an enumeration id")
            attr_type = m.AttributeType.enum(enum_id.text)
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

        constraints: list[m.Constraint] = []
        default: m.Literal | None = None
        raw_measure: object | None = None
        expression_tag: tuple[str, Span] | None = None

        if self.cur.at_punct("["):
            self.cur.next()
            while not self.cur.at_punct("]"):
                if self.cur.at_eof():
                    raise self.fail("ASL011", "unbalanced bracket in attribute body", ident.span)
                tok = self.cur.peek()
                if tok.text == "constraints":
                    self.cur.next()
                    constraints.extend(self._constraints())
                elif tok.text == "formula":
                    self.cur.next()
                    raw_measure = self._formula(tok)
                elif tok.text == "tag":
                    tag_name, tag_value, tag_span = self.tag_pair()
                    if tag_name == "expression":
                        expression_tag = (tag_value, tag_span)
                    else:
                        self.diags.append(
                            warning("ASL023", f"tag {tag_name!r} on attribute {ident.text} has no model slot; dropped", tag_span)
                        )
                elif tok.text == "defaultValue":
                    self.cur.next()
                    default = self._literal()
                else:
                    self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in attribute body", tok.span))
                    self.cur.next()
            self.cur.next()  # ]

        return _RawAttribute(
            ident.text, name, attr_type, is_dimension, length, constraints, default, raw_measure, expression_tag, ident.span
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
        if self.cur.eat_word("arithmetic"):
            try:
                return mx.parse_expression(self.cur)
            except mx.ExprSyntaxError as exc:
                self.diags.append(error("ASL010", f"malformed formula: {exc}", exc.span or start.span))
                return None
        if self.cur.eat_word("details"):
            self.expect_punct(":")
            try:
                return mx.parse_expression(self.cur)
            except mx.ExprSyntaxError as exc:
                self.diags.append(error("ASL010", f"malformed formula: {exc}", exc.span or start.span))
                return None
        raise self.fail("ASL010", "expected 'arithmetic' or 'details' after formula", start.span)

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
        ident = self.ident("a cluster id")
        name = self.opt_name()
        self.expect_punct(":")
        type_tok = self.cur.next()
        entity_type = m.ENTITY_TYPE_ALIASES.get(type_tok.text, type_tok.text)
        if entity_type not in m.ENTITY_TYPES:
            raise self.fail("ASL020", f"unknown entity type {type_tok.text!r}", type_tok.span)

        self.expect_punct("[")
        main = None
        uses: list[str] = []
        description = None
        while not self.cur.at_punct("]"):
            if self.cur.at_eof():
                raise self.fail("ASL011", "unbalanced bracket in cluster body", start.span)
            if self.cur.eat_word("main"):
                main = self.ident("an entity id").text
            elif self.cur.eat_word("uses"):
                uses.append(self.ident("an entity id").text)
                while self.cur.eat_punct(","):
                    uses.append(self.ident("an entity id").text)
            elif self.cur.eat_word("description"):
                description = self.string("description")
            else:
                tok = self.cur.peek()
                self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in cluster body", tok.span))
                self.cur.next()
        self.cur.next()
        if main is None:
            raise self.fail("ASL010", f"cluster {ident.text} declares no main entity", ident.span)
        try:
            return m.DataEntityCluster(ident.text, entity_type, main, tuple(uses), name, description, start.span)
        except m.ModelError as exc:
            raise self.fail("ASL010", str(exc), ident.span)

    # -- actors and use cases ----------------------------------------------

    def actor(self) -> m.Actor:
        start = self.cur.next()
        ident = self.ident("an actor id")
        name = self.opt_name()
        self.expect_punct(":")
        type_tok = self.cur.next()
        if type_tok.text not in m.ACTOR_TYPES:
            raise self.fail("ASL020", f"unknown actor type {type_tok.text!r}", type_tok.span)

        stakeholder = is_a = description = None
        if self.cur.at_punct("["):
            self.cur.next()
            while not self.cur.at_punct("]"):
                if self.cur.at_eof():
                    raise self.fail("ASL011", "unbalanced bracket in actor body", start.span)
                if self.cur.eat_word("isA"):
                    is_a = self.ident("an actor id").text
                elif self.cur.eat_word("stakeholder"):
                    stakeholder = self.ident("a stakeholder name").text
                elif self.cur.eat_word("description"):
                    description = self.string("description")
                else:
                    tok = self.cur.peek()
                    self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in actor body", tok.span))
                    self.cur.next()
            self.cur.next()
        return m.Actor(ident.text, type_tok.text, name, stakeholder, is_a, description, start.span)

    def use_case(self) -> m.UseCase:
        start = self.cur.next()
        ident = self.ident("a use case id")
        name = self.opt_name()
        self.expect_punct(":")
        uc_type = self.term("UseCaseType", self.cur.next())

        primary = data_source = stakeholder = description = None
        supporting: list[str] = []
        action_kinds: list[str] = []
        operations: list[m.OlapOperation] = []

        self.expect_punct("[")
        while not self.cur.at_punct("]"):
            if self.cur.at_eof():
                raise self.fail("ASL011", "unbalanced bracket in use case body", start.span)
            if self.cur.eat_word("actorInitiates"):
                primary = self.ident("an actor id").text
            elif self.cur.eat_word("supportingActors"):
                supporting.append(self.ident("an actor id").text)
                while self.cur.eat_punct(","):
                    supporting.append(self.ident("an actor id").text)
            elif self.cur.eat_word("dataEntity"):
                data_source = self.ident("an entity or cluster id").text
            elif self.cur.eat_word("stakeholder"):
                stakeholder = self.ident("a stakeholder name").text
            elif self.cur.eat_word("actions"):
                action_kinds.append(self.term("ActionType", self.cur.next()))
                while self.cur.eat_punct(","):
                    action_kinds.append(self.term("ActionType", self.cur.next()))
            elif self.cur.at_word("tag"):
                tag_name, tag_value, tag_span = self.tag_pair()
                op = self._decode_action_tag(tag_name, tag_value, tag_span)
                if op is not None:
                    operations.append(op)
            elif self.cur.eat_word("description"):
                description = self.string("description")
            else:
                tok = self.cur.peek()
                self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in use case body", tok.span))
                self.cur.next()
        self.cur.next()

        if primary is None:
            raise self.fail("ASL010", f"use case {ident.text} declares no actorInitiates", ident.span)
        try:
            return m.UseCase(
                id=ident.text,
                uc_type=uc_type,
                primary_actor=primary,
                name=name,
                stakeholder=stakeholder,
                supporting_actors=tuple(supporting),
                data_source=data_source,
                action_kinds=tuple(action_kinds),
                operations=tuple(operations),
                description=description,
                loc=start.span,
            )
        except m.ModelError as exc:
            raise self.fail("ASL010", str(exc), ident.span)

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
        except (m.ModelError, _ParseError, mx.ExprSyntaxError) as exc:
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
        ident = self.ident("a component id")
        name = self.opt_name()
        self.expect_punct(":")
        comp_type = self.term("UIComponentType", self.cur.next())
        comp_subtype = None
        if self.cur.eat_punct(":"):
            comp_subtype = self.term("UIComponentSubType", self.cur.next())

        raw = _RawComponent(ident.text, name, comp_type, comp_subtype, loc=start.span)
        self.expect_punct("[")
        while not self.cur.at_punct("]"):
            if self.cur.at_eof():
                raise self.fail("ASL011", "unbalanced bracket in component body", start.span)
            if self.cur.eat_word("dataBinding"):
                raw.data_binding = self.ident("a data source id").text
            elif self.cur.at_word("part"):
                part = self.part()
                if part is not None:
                    raw.parts.append(part)
            elif self.cur.at_word("event"):
                self.event(raw)
            elif self.cur.at_word("tag"):
                tag_name, tag_value, _ = self.tag_pair()
                raw.tags.append((tag_name, tag_value))
            elif self.cur.eat_word("description"):
                raw.description = self.string("description")
            else:
                tok = self.cur.peek()
                self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in component body", tok.span))
                self.cur.next()
        self.cur.next()

        if raw.id in self.components:
            self.diags.append(error("ASL010", f"duplicate component declaration {raw.id!r}", ident.span))
            return
        self.components[raw.id] = raw
        self.component_order.append(raw.id)

    def part(self) -> m.UIPart | None:
        self.cur.next()  # part
        ident = self.ident("a part id")
        name = self.opt_name()
        self.expect_punct(":")
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

    def event(self, raw: _RawComponent | None = None) -> m.NavigationEvent | None:
        """Parse an event; on a component it folds into actions/navigation."""
        self.cur.next()  # event
        ident = self.ident("an event id")
        event_type = event_subtype = None
        if self.cur.eat_punct(":"):
            event_type = self.cur.next().text
            if self.cur.eat_punct(":"):
                event_subtype = self.cur.next().text
        nav_target = None
        if self.cur.at_punct("["):
            self.cur.next()
            while not self.cur.at_punct("]"):
                if self.cur.at_eof():
                    raise self.fail("ASL011", "unbalanced bracket in event body", ident.span)
                if self.cur.eat_word("navigationFlowTo"):
                    nav_target = self.ident("a navigation target").text
                elif self.cur.at_word("tag"):
                    tag_name, _, tag_span = self.tag_pair()
                    self.diags.append(
                        warning("ASL023", f"tag {tag_name!r} on event {ident.text} has no model slot; dropped", tag_span)
                    )
                else:
                    tok = self.cur.peek()
                    self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in event body", tok.span))
                    self.cur.next()
            self.cur.next()

        if raw is None:
            return m.NavigationEvent(ident.text, event_type, event_subtype, nav_target, ident.span)

        action = m.CHART_ACTION_ALIASES.get(ident.text, ident.text)
        if action in m.CHART_ACTIONS:
            raw.actions.add(action)
            if nav_target is not None:
                raw.nav_candidates.append(nav_target)
        elif nav_target is not None:
            raw.nav_candidates.append(nav_target)
        else:
            self.diags.append(
                warning("ASL023", f"component event {ident.text} has no model representation; dropped", ident.span)
            )
        return None

    def container(self) -> tuple[dict, list[str]]:
        start = self.cur.next()
        ident = self.ident("a container id")
        name = self.opt_name()
        self.expect_punct(":")
        type_tok = self.cur.next()
        container_type = m.CONTAINER_TYPE_ALIASES.get(type_tok.text, type_tok.text)
        if container_type not in m.CONTAINER_TYPES:
            raise self.fail("ASL020", f"unknown container type {type_tok.text!r}", type_tok.span)
        container_subtype = None
        if self.cur.eat_punct(":"):
            container_subtype = self.term("UIContainerSubType", self.cur.next())

        refs: list[str] = []
        events: list[m.NavigationEvent] = []
        description = None
        self.expect_punct("[")
        while not self.cur.at_punct("]"):
            if self.cur.at_eof():
                raise self.fail("ASL011", "unbalanced bracket in container body", start.span)
            if self.cur.eat_word("component"):
                refs.append(self.ident("a component id").text)
            elif self.cur.at_word("event"):
                event = self.event(None)
                if event is not None:
                    events.append(event)
            elif self.cur.eat_word("description"):
                description = self.string("description")
            else:
                tok = self.cur.peek()
                self.diags.append(error("ASL010", f"unexpected token {tok.text!r} in container body", tok.span))
                self.cur.next()
        self.cur.next()

        header = {
            "id": ident.text,
            "name": name,
            "type": container_type,
            "subtype": container_subtype,
            "events": events,
            "description": description,
            "loc": start.span,
        }
        return header, refs

    def _finalize_containers(self, raw_containers: list[tuple[dict, list[str]]]) -> list[m.UIContainer]:
        container_ids = {header["id"] for header, _ in raw_containers}
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
        for header, refs in raw_containers:
            components: list[m.UIComponent] = []
            for ref in refs:
                comp = build(ref)
                if comp is None:
                    self.diags.append(
                        error("ASL020", f"container {header['id']} references unknown component {ref!r}", header["loc"])
                    )
                    continue
                referenced.add(ref)
                components.append(comp)
            containers.append(
                m.UIContainer(
                    id=header["id"],
                    container_type=header["type"],
                    name=header["name"],
                    container_subtype=header["subtype"],
                    components=tuple(components),
                    events=tuple(header["events"]),
                    description=header["description"],
                    loc=header["loc"],
                )
            )

        for comp_id in self.component_order:
            if comp_id not in referenced:
                self.diags.append(
                    warning("ASL023", f"component {comp_id} is referenced by no container; dropped", self.components[comp_id].loc)
                )
        return containers


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
