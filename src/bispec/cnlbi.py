"""CNL-BI frontend: recursive-descent parser and canonical pretty-printer.

The style reads as constrained English sentences: fixed fragments such as
``is a`` and ``refers to Dimension`` interleave with identifiers. Parsing is
total; syntax problems become diagnostics and recovery resumes at the next
top-level keyword so later declarations still land in the model.

Actors, use cases, operations and components end in comma-separated
clauses. One loop, ``_Parser.clauses``, reads them all; each construct's
clause table, built once below the parser, maps the phrase that opens a
clause to the key its value is kept under, the reader of the rest and the
writer that emits the clause. The emitter writes a construct's clauses by
one loop over the same table, in table order.
"""

from __future__ import annotations

import re
from itertools import groupby

from . import measure as mx
from . import model as m
from .diagnostics import Diagnostic, error, warning
from .lexer import NUMBER, PUNCT_CHARS, WORD, Clauses, Parser, Token, TokenKind, string_body, tokenize

TOP_LEVEL_WORDS = ("DataEntity", "Data", "Actor", "UseCase", "UIContainer", "UIComponent")

_OP_INTRO_WORDS = ("OLAP", "Olap", "Slice", "Dice", "Roll-up", "Drill-down", "Pivot")
_OP_DESCRIPTION_STOPS = _OP_INTRO_WORDS + ("described", "performs")  # words that end an operation's prose

# Single CNL-BI type word -> (component type, component subtype).
_COMPONENT_TERMS: dict[str, tuple[str, str | None]] = {
    "Form": ("Form", None),
    "Table": ("List", "Table"),
    "List": ("List", None),
    "Detail": ("Detail", None),
    "Filter": ("Filter", None),
    "Card": ("Card", None),
}
for _chart in m.CHART_SUBTYPES:
    _COMPONENT_TERMS[_chart] = ("InteractiveChart", _chart)
_TERM_BY_TYPE = {types: term for term, types in _COMPONENT_TERMS.items()}

# A part kind but Column and Option opens its clause with its name in lower case,
# "-" for "_": "x-axis", "label". "values" also reads a Value.
_PHRASE_BY_KIND = {kind: kind.lower().replace("_", "-") for kind in m.PART_KINDS if kind not in ("Column", "Option")}
_PART_PHRASES = {phrase: kind for kind, phrase in _PHRASE_BY_KIND.items()} | {"values": "Value"}


def parse_cnlbi(source: str, file: str = "<cnlbi>") -> tuple[m.SpecificationModel, list[Diagnostic]]:
    return _Parser(source, file).parse()


class _Parser(Parser):
    prefix = "CNL"

    def __init__(self, source: str, file: str):
        super().__init__(*tokenize(source, file=file, code_prefix="CNL"))

    # -- plumbing ----------------------------------------------------------

    def at_declaration(self) -> bool:
        tok = self.cur.peek()
        if tok.text == "Data":
            return self.cur.peek(1).text == "enumeration"
        return tok.text in TOP_LEVEL_WORDS

    def named(self, what: str) -> tuple[Token, str | None]:
        """``id name? is a`` after a declaration's keyword: the id token and the name."""
        ident = self.ident(what)
        name = self.opt_name()
        self.expect_word("is")
        self.cur.eat_word("a", "an")
        return ident, name

    def opt_name(self) -> str | None:
        # Either "name" or ("name"); both appear in the corpus.
        if self.cur.at_punct("(") and self.cur.peek(1).kind is TokenKind.STRING:
            self.cur.next()
            name = self.cur.next().value
            if self.cur.eat_punct(")") is None:
                raise self.fail("CNL010", "expected ')' after display name")
            return str(name)
        if self.cur.peek().kind is TokenKind.STRING:
            return str(self.cur.next().value)
        return None

    def prose(self, stop_next: tuple[str, ...]) -> str:
        """Free text running to a ',' or '.' that precedes a structural keyword."""
        hard_stop = TOP_LEVEL_WORDS + stop_next
        parts: list[str] = []
        while not self.cur.at_eof():
            tok = self.cur.peek()
            if tok.kind is TokenKind.PUNCT and tok.text in (",", "."):
                nxt = self.cur.peek(1)
                if nxt.kind is TokenKind.EOF or nxt.text in hard_stop:
                    self.cur.next()
                    break
                parts.append(self.cur.next().text)
                continue
            if tok.text in hard_stop and parts:
                break
            parts.append(self.cur.next().text)
        return _join_prose(parts)

    def description(self, stops: tuple[str, ...]) -> str:
        """``as`` and the prose after a consumed ``described``."""
        self.expect_word("as")
        return self.prose(stops)

    def clauses(self, table: dict, stops: tuple[str, ...] = (), and_opens: bool = False) -> Clauses:
        """Comma-separated clauses, each opening with a one- or two-word phrase
        of ``table``, which maps it to the key its value is kept under, the
        reader of the rest and the clause's writer; with ``and_opens`` an
        ``and`` may precede a phrase.
        The list ends at a word that opens no clause, or after ``described as``
        prose running to ``stops``, unless ``table`` reads ``described`` itself."""
        found = Clauses()
        cur = self.cur
        while True:
            cur.eat_punct(",")
            if and_opens:
                cur.eat_word("and")
            first = cur.peek().text
            entry = table.get(f"{first} {cur.peek(1).text}")
            if entry is not None:
                cur.next()  # the first of two words
            elif (entry := table.get(first)) is None:
                if cur.eat_word("described"):
                    found["description"] = [self.description(stops)]
                return found
            cur.next()
            key, reader, _ = entry
            found.setdefault(key, []).append(reader(self))

    def listed(self, item) -> list:
        """``item (, item)*`` in a component, where a comma before a word that
        opens a component clause ends the list instead."""
        items = [item(self)]
        while self.cur.at_punct(",") and self.cur.peek(1).is_word() and self.cur.peek(1).text not in _COMPONENT_WORDS:
            self.cur.next()
            items.append(item(self))
        return items

    # -- top level ---------------------------------------------------------

    def parse(self) -> tuple[m.SpecificationModel, list[Diagnostic]]:
        found = self.declarations(_DECLARATIONS)
        model = m.SpecificationModel(
            enumerations=tuple(found.get("Data", ())),
            entities=tuple(found.get("DataEntity", ())),
            actors=tuple(found.get("Actor", ())),
            use_cases=tuple(found.get("UseCase", ())),
            ui_containers=tuple(found.get("UIContainer", ())),
        )
        return m.normalize_enum_literals(model), self.diags

    def stray_component(self) -> None:
        raise self.fail("CNL010", "UI components must appear inside a UIContainer")

    # -- declarations ------------------------------------------------------

    def enumeration(self) -> m.DataEnumeration:
        if self.cur.peek(1).text != "enumeration":
            raise self.fail("CNL010", "expected a declaration, found 'Data'")
        start = self.cur.next()  # Data
        self.cur.next()  # enumeration
        ident = self.ident("an enumeration id")
        name = self.opt_name()
        self.expect_word("with")
        self.expect_word("values")
        values = [self.ident("an enumeration value").text]
        while True:
            if self.cur.eat_punct(","):
                self.cur.eat_word("and")
            elif not self.cur.eat_word("and"):
                break
            values.append(self.ident("an enumeration value").text)
        self.cur.eat_punct(".")
        return self.build(ident, m.DataEnumeration, ident.text, name, tuple(values), start.span)

    def entity(self) -> m.DataEntity:
        start = self.cur.next()  # DataEntity
        ident, name = self.named("an entity id")
        entity_type = self.one_of("CNL011", "entity type", m.ENTITY_TYPES, m.ENTITY_TYPE_ALIASES)
        sub_type = None
        if self.cur.at_word("Fact", "Dimension", "BI_Fact", "BI_Dimension"):
            sub_type = m.ENTITY_SUBTYPE_ALIASES.get(self.cur.peek().text, self.cur.peek().text)
            self.cur.next()
        self.cur.eat_punct(",")
        self.expect_word("with")
        self.expect_word("attributes")

        raw_attrs = []
        while not (self.cur.at_word("described") or self.at_declaration() or self.cur.at_eof()):
            raw_attrs.append(self.attribute())
            if not self.cur.eat_punct(","):
                break

        description = None
        if self.cur.eat_word("described"):
            description = self.description(())
        else:
            self.cur.eat_punct(".")

        return self.build(
            ident,
            m.DataEntity,
            id=ident.text,
            entity_type=entity_type,
            attributes=self._finish_attributes(raw_attrs),
            name=name,
            sub_type=sub_type,
            description=description,
            loc=start.span,
        )

    def attribute(self) -> tuple[dict, object | None]:
        """The attribute as read: its model fields but the measure, and the measure unresolved."""
        ident = self.ident("an attribute id")
        name = self.opt_name()
        if self.cur.eat_word("refers"):
            self.expect_word("to")
            self.expect_word("Dimension")
            target = self.ident("a dimension entity id")
            attr_type = m.AttributeType.dimension(target.text)
        else:
            self.expect_word("is")
            self.cur.eat_word("a", "an")
            type_tok = self.cur.next()
            if not type_tok.is_word() or not m.is_identifier(type_tok.text):
                raise self.fail("CNL011", f"unknown type keyword {type_tok.text!r}", type_tok.span)
            if type_tok.text in m.PRIMITIVE_TYPES:
                attr_type = m.AttributeType.primitive(type_tok.text)
            else:
                attr_type = m.AttributeType.enum(type_tok.text)

        constraints: list[m.Constraint] = []
        default: m.Literal | None = None
        raw_measure: object | None = None
        if self.cur.at_punct("("):
            constraints, default, raw_measure = self._paren_items()
        fields = dict(id=ident.text, attr_type=attr_type, name=name, default_value=default, loc=ident.span)
        fields["constraints"] = frozenset(constraints)
        return fields, raw_measure

    def _paren_items(self) -> tuple[list[m.Constraint], m.Literal | None, object | None]:
        self.cur.next()  # (
        constraints: list[m.Constraint] = []
        default: m.Literal | None = None
        raw_measure: object | None = None
        while not self.cur.at_punct(")"):
            if self.cur.at_eof():
                raise self.fail("CNL012", "unterminated constraint list")
            tok = self.cur.peek()
            if tok.text in m.CONSTRAINT_KINDS:
                self.cur.next()
                target = None
                if tok.text == "ForeignKey":
                    if self.cur.eat_punct("(") is None:
                        raise self.fail("CNL012", "ForeignKey requires a target entity in parentheses")
                    target = self.ident("a target entity id").text
                    if self.cur.eat_punct(")") is None:
                        raise self.fail("CNL012", "expected ')' after ForeignKey target")
                constraints.append(m.Constraint(tok.text, target))
            elif tok.text == "operation":
                self.cur.next()
                try:
                    raw_measure = mx.parse_expression(self.cur)
                except mx.ExprSyntaxError as exc:
                    self.diags.append(error("CNL013", f"malformed measure expression: {exc}", exc.span or tok.span))
                    self._skip_to_close_paren()
                    break
            elif tok.text == "default":
                self.cur.next()
                default = mx.parse_literal(self.cur)
                if default is None:
                    rhs = self.cur.next()
                    raise self.fail("CNL012", f"expected a default literal, found {rhs.text!r}", rhs.span)
            else:
                raise self.fail("CNL012", f"malformed constraint list near {tok.text!r}", tok.span)
            self.cur.eat_punct(",")
        self.cur.eat_punct(")")
        return constraints, default, raw_measure

    def _skip_to_close_paren(self) -> None:
        depth = 1
        while not self.cur.at_eof() and depth > 0:
            if self.cur.at_punct("("):
                depth += 1
            elif self.cur.at_punct(")"):
                depth -= 1
                if depth == 0:
                    return
            self.cur.next()

    def _finish_attributes(self, raw_attrs: list[tuple[dict, object | None]]) -> tuple[m.DataAttribute, ...]:
        measure_ids = {fields["id"] for fields, raw_measure in raw_attrs if raw_measure is not None}
        attributes: list[m.DataAttribute] = []
        for fields, raw_measure in raw_attrs:
            measure = None
            if raw_measure is not None:
                try:
                    measure = mx.resolve_names(raw_measure, measure_ids)
                except mx.ExprSyntaxError as exc:
                    self.diags.append(error("CNL013", f"malformed measure expression: {exc}", exc.span or fields["loc"]))
            try:
                attributes.append(m.DataAttribute(**fields, measure=measure))
            except m.ModelError as exc:
                self.diags.append(error("CNL012", str(exc), fields["loc"]))
        return tuple(attributes)

    def actor(self) -> m.Actor:
        start = self.cur.next()  # Actor
        ident, name = self.named("an actor id")
        actor_type = self.one_of("CNL011", "actor type", m.ACTOR_TYPES)
        found = self.clauses(_ACTOR)
        self.cur.eat_punct(".")
        return m.Actor(
            ident.text, actor_type, name, found.last("stakeholder"), found.last("extends"), found.last("description"), start.span
        )

    def use_case(self) -> m.UseCase:
        start = self.cur.next()  # UseCase
        ident, name = self.named("a use case id")
        uc_type = self.one_of("CNL011", "use case type", m.USE_CASE_TYPES, m.USE_CASE_TYPE_ALIASES)
        found = self.clauses(_USE_CASE)
        self.cur.eat_punct(".")
        primary = found.last("actor")
        if primary is None:
            raise self.fail("CNL010", f"use case {ident.text} declares no primary actor", ident.span)
        return self.build(
            ident,
            m.UseCase,
            id=ident.text,
            uc_type=uc_type,
            primary_actor=primary,
            name=name,
            stakeholder=found.last("stakeholder"),
            supporting_actors=tuple(found.get("support actor", ())),
            data_source=found.last("data source"),
            operations=tuple(found.joined("performs")),
            description=found.last("description"),
            loc=start.span,
        )

    def operations(self) -> list[m.OlapOperation]:
        operations = []
        while True:
            self.cur.eat_punct(",")
            if self.cur.at_word("OLAP", "Olap") and self.cur.peek(1).text in ("Operation", "operation"):
                start = self.cur.next()
                self.cur.next()  # Operation
                ident, name = self.named("an operation id")
                kind = self.one_of("CNL011", "OLAP operation kind", m.OLAP_KINDS, m.OLAP_KIND_ALIASES)
            elif self.cur.at_word("Slice", "Dice", "Roll-up", "Drill-down", "Pivot"):
                start = self.cur.next()
                kind = m.OLAP_KIND_ALIASES.get(start.text, start.text)
                ident, name = self.named("an operation id")
                self.expect_word("OLAP", "Olap")
                self.expect_word("operation", "Operation")
            else:
                return operations
            found = self.clauses(_OPERATION, _OP_DESCRIPTION_STOPS)
            operation = self.build(
                ident,
                m.OlapOperation,
                id=ident.text,
                kind=kind,
                name=name,
                where_clauses=tuple(found.joined("where")),
                group_by=found.last("group by"),
                swap=found.last("swap"),
                description=found.last("description"),
                loc=start.span,
            )
            operations.append(operation)

    def where(self) -> list[m.Predicate]:
        try:
            return mx.parse_predicates(self.cur)
        except mx.ExprSyntaxError as exc:
            raise self.fail("CNL014", f"malformed where clause: {exc}", exc.span) from None

    def group_by(self) -> m.AttributePath:
        try:
            return mx.parse_path(self.cur)
        except mx.ExprSyntaxError as exc:
            raise self.fail("CNL014", f"malformed group-by clause: {exc}", exc.span) from None

    def swap(self) -> tuple[str, str]:
        first = self.ident("a dimension id")
        self.expect_word("with")
        return first.text, self.ident("a dimension id").text

    def container(self) -> m.UIContainer:
        start = self.cur.next()  # UIContainer
        ident, name = self.named("a container id")
        container_type = "MainWindow"
        container_subtype = None
        tok = self.cur.next()
        if tok.text in ("Main", "Modal"):
            self.expect_word("Window")
            container_type = "MainWindow" if tok.text == "Main" else "ModalWindow"
        elif tok.text == "Window":
            container_type = "MainWindow"
        elif tok.text in m.CONTAINER_SUBTYPES:
            container_subtype = tok.text
        else:
            raise self.fail("CNL011", f"unknown container type {tok.text!r}", tok.span)

        if self.cur.eat_word("that"):
            self.expect_word("contains")

        components: list[m.UIComponent] = []
        while True:
            self.cur.eat_punct(",")
            self.cur.eat_punct(".")
            if self.cur.at_word("UIComponent"):
                components.append(self.component())
            else:
                break

        return m.UIContainer(
            id=ident.text,
            container_type=container_type,
            name=name,
            container_subtype=container_subtype,
            components=tuple(components),
            loc=start.span,
        )

    def component(self) -> m.UIComponent:
        start = self.cur.next()  # UIComponent
        ident, name = self.named("a component id")
        comp_type, comp_subtype = _COMPONENT_TERMS[self.one_of("CNL011", "component type", _COMPONENT_TERMS)]
        found = self.clauses(_COMPONENT, and_opens=True)
        self.cur.eat_punct(".")

        parts: list[m.UIPart] = []
        part_ids: set[str] = set()
        for kind, path in found.joined("parts"):
            base = path.segments[-1]
            part_id = base
            if part_id in part_ids and len(path.segments) > 1:
                part_id = f"{path.segments[0]}_{base}"
            n = 2
            while part_id in part_ids:
                part_id = f"{base}_{n}"
                n += 1
            part_ids.add(part_id)
            parts.append(m.UIPart(part_id, kind, path, loc=path.loc))
        return self.build(
            ident,
            m.UIComponent,
            id=ident.text,
            component_type=comp_type,
            name=name,
            component_subtype=comp_subtype,
            data_binding=found.last("data"),
            parts=tuple(parts),
            actions=frozenset(found.joined("actions")),
            navigates_to=found.last("that navigates"),
            description=found.last("description"),
            loc=start.span,
        )

    def part_path(self) -> m.AttributePath:
        try:
            return mx.parse_path(self.cur)
        except mx.ExprSyntaxError as exc:
            raise self.fail("CNL010", str(exc), exc.span) from None


# Readers of the clause tails, called as reader(parser) after the opening phrase.


def _ident(what: str, *words: str):
    """A reader of ``words`` and an identifier."""

    def read(p: _Parser) -> str:
        for word in words:
            p.expect_word(word)
        return p.ident(what).text

    return read


def _part(kind: str, *words: str):
    """A reader of ``words`` and a part's path."""

    def read(p: _Parser) -> list[tuple[str, m.AttributePath]]:
        for word in words:
            p.expect_word(word)
        return [(kind, p.part_path())]

    return read


def _data_source(p: _Parser) -> str:
    p.cur.eat_word("to")
    return p.ident("a data source id").text


def _column(p: _Parser) -> tuple[str, m.AttributePath]:
    return "Column", p.part_path()


def _action(p: _Parser) -> str:
    action = p.ident("an action name").text
    return m.CHART_ACTION_ALIASES.get(action, action)


# Writers of the clauses, called as writer(owner, out): each returns the lines
# it writes for ``owner``, indented as emitted, and reports to ``out`` what
# CNL-BI cannot say.


def _write(field: str, line: str, text=None, each: bool = False, lost: str | None = None):
    """A writer of the model field ``field``: ``line`` formatted with its value,
    or ``text`` of it, and the owner; a line per item with ``each``; nothing when
    the field is empty. ``lost`` marks a field that CNL-BI has no clause for:
    each line is a ``//`` note that adds a CNL030 warning, ``lost`` formatted
    the same way."""

    def write(owner, out: _Out) -> list[str]:
        value = getattr(owner, field)
        if value is None or not value and not isinstance(value, str):  # None or an empty collection
            return []
        lines = []
        for item in value if each else (value,):
            item = text(item) if text else item
            lines.append(line.format(item, owner))
            if lost:
                out.append(warning("CNL030", lost.format(item, owner)))
        return lines

    return write


def _description(kind: str, line: str, stops: tuple[str, ...] = ()):
    """A writer of the ``described as`` clause, ``line`` formatted with the prose,
    with CNL030 when the prose would not read back as the same text: the lexer
    refuses or re-spaces a character, or a keyword that ends the prose
    (``stops`` or a top-level word) comes after the first word."""
    stops = frozenset(TOP_LEVEL_WORDS + stops)

    def write(owner, out: _Out) -> list[str]:
        if owner.description is None:
            return []
        if not _reads_back(owner.description, stops):
            out.append(warning("CNL030", f"description of {kind} {owner.id} does not read back as written in CNL-BI"))
        return [line.format(owner.description)]

    return write


def _note_action_kinds(uc: m.UseCase, out: _Out) -> list[str]:
    return [out.note(f"bare action kinds on use case {uc.id}: {', '.join(uc.action_kinds)}")] if uc.action_kinds else []


def _write_operations(uc: m.UseCase, out: _Out) -> list[str]:
    """The ``performs`` clause, each operation punctuated on its own, as one entry of several lines."""
    if not uc.operations:
        return []
    lines = ["  performs"]
    for i, op in enumerate(uc.operations):
        kind = _KIND_WORDS[op.kind]
        head = f"    OLAP Operation {op.id}{mx.shown_name(op, ' ({})')} is {_article(kind)} {kind}"
        lines += _punctuated([head, *_write_operation(op, out)], "", "" if i == len(uc.operations) - 1 else ",")
    return ["\n".join(lines)]


def _write_parts(comp: m.UIComponent, out: _Out) -> list[str]:
    """Each run of columns as one ``columns`` clause, the first two Option parts
    as ``starting at`` and ``ending at`` (a later one is noted), any other part
    by its phrase. The first clause but an Option's opens with ``with``."""
    lines: list[str] = []
    lead = "with "
    options = iter(("starting at", "ending at"))
    for columns, run in groupby(comp.parts, lambda part: part.part_kind == "Column"):
        if columns:
            lines.append(f"  {lead}columns {', '.join(str(part.binding) for part in run)}")
            lead = ""
            continue
        for part in run:
            if part.part_kind != "Option":
                lines.append(f"  {lead}{_PHRASE_BY_KIND[part.part_kind]} {part.binding}")
                lead = ""
            elif word := next(options, None):
                lines.append(f"  {word} {part.binding}")
            else:
                lines.append(out.note(f"extra Option part {part.id} on {comp.id}"))
    return lines


# Clause tables: phrase -> (key the value is kept under, reader, writer), in the
# order the clauses are written. Phrases that read one field share its writer,
# which writes the field once. A tuple of writers runs in turn: a field CNL-BI
# has no clause for is noted by the writer of the clause it follows in ASL.

_ACTOR = {
    "extends": ("extends", _ident("an actor id"), _write("is_a", ", extends {}")),
    "with stakeholder": ("stakeholder", _ident("a stakeholder name"), _write("stakeholder", ", with stakeholder {}")),
}
_USE_CASE = {
    "with stakeholder": ("stakeholder", _ident("a stakeholder name"), _write("stakeholder", "  with stakeholder {}")),
    "actor": ("actor", _ident("an actor id"), _write("primary_actor", "  actor {}")),
    "support actor": ("support actor", _ident("an actor id"), _write("supporting_actors", "  support actor {}", each=True)),
    "data source": ("data source", _ident("a data source id"), (
        _write("data_source", "  data source {}"),
        _note_action_kinds,
    )),
    # The description precedes the operations, so that a trailing operation
    # without its own description cannot capture it.
    "described": (
        "description", lambda p: p.description(("performs",)), _description("use case", "  described as {}", ("performs",))
    ),
    "performs": ("performs", _Parser.operations, _write_operations),
}
_OPERATION = {
    "where": (
        "where",
        _Parser.where,
        _write("where_clauses", "      where {}", lambda where: " and ".join(map(mx.predicate_text, where))),
    ),
    "group by": ("group by", _Parser.group_by, _write("group_by", "      group by {}")),
    "swap": ("swap", _Parser.swap, (
        _write("swap", "      swap {0[0]} with {0[1]}"),
        _write(
            "touched_dimensions", "      // touched dimensions: {}", ", ".join,
            lost="touched dimensions of operation {1.id} have no CNL-BI syntax",
        ),
    )),
}
_write_data = _write("data_binding", "  data binding to {}")
_COMPONENT = {
    "data binding": ("data", _data_source, _write_data),
    "data source": ("data", _data_source, _write_data),
    "with": ("with", lambda p: None, _write_parts),  # only leads in the next phrase: "with columns ...", "with x-axis ..."
    "columns": ("parts", lambda p: p.listed(_column), _write_parts),
    **{phrase: ("parts", _part(kind), _write_parts) for phrase, kind in _PART_PHRASES.items()},
    "segments defined": ("parts", _part("Label", "by"), _write_parts),
    "starting": ("parts", _part("Option", "at"), _write_parts),
    "ending": ("parts", _part("Option", "at"), _write_parts),
    "actions": (
        "actions", lambda p: p.listed(_action), _write("actions", "  actions {}", lambda actions: ", ".join(sorted(actions)))
    ),
    "that navigates": ("that navigates", _ident("a container id", "to"), (
        _write("navigates_to", "  that navigates to {}"),
        _write("tags", "  // tag {0[0]} = {0[1]}", each=True, lost="tag {0[0]!r} on {1.id} has no CNL-BI syntax"),
    )),
}
# Words that open a component clause; a column or action list stops before them.
_COMPONENT_WORDS = frozenset(phrase.split()[0] for phrase in _COMPONENT) | {"described", "and", *TOP_LEVEL_WORDS}
_DECLARATIONS = {
    "DataEntity": _Parser.entity,
    "Data": _Parser.enumeration,
    "Actor": _Parser.actor,
    "UseCase": _Parser.use_case,
    "UIContainer": _Parser.container,
    "UIComponent": _Parser.stray_component,
}


def _writer(table: dict, *more):
    """One writer of the clauses of ``table``, in table order, each writer once,
    then ``more``: the ``described as`` clause the loop reads when ``table`` does not."""
    writers = (*dict.fromkeys(w for *_, ws in table.values() for w in (ws if isinstance(ws, tuple) else (ws,))), *more)

    def write(owner, out: _Out) -> list[str]:
        lines: list[str] = []
        for write_clause in writers:
            lines += write_clause(owner, out)
        return lines

    return write


_write_actor = _writer(_ACTOR, _description("actor", " described as {}"))
_write_use_case = _writer(_USE_CASE)
_write_operation = _writer(_OPERATION, _description("operation", "      described as {}", _OP_DESCRIPTION_STOPS))
_write_component = _writer(_COMPONENT, _description("component", "  described as {}"))
_describe_entity = _description("entity", "described as {}.")


def _join_prose(parts: list[str]) -> str:
    out: list[str] = []
    for part in parts:
        if part in (",", ".") and out:
            out[-1] += part
        else:
            out.append(part)
    return " ".join(out)


_PROSE_TOKEN = rf"""{WORD}|{NUMBER}|{string_body('"')}"|[{re.escape(PUNCT_CHARS.replace(",", "").replace(".", ""))}]"""
# Lexer tokens as ``_join_prose`` joins them: one space before each, except before
# a ``,`` or ``.`` that follows a token, and none before the first.
_PROSE = re.compile(rf"(?:(?:{_PROSE_TOKEN}|[,.])(?: (?:{_PROSE_TOKEN})|[,.])*)?")
_STRING = re.compile(string_body('"') + '"')


def _reads_back(text: str, stops: frozenset) -> bool:
    """Whether ``tokenize`` reads ``text`` without a diagnostic as tokens that
    ``_join_prose`` joins back into ``text``, none of them after the first in
    ``stops``. Decided without lexing: ``_PROSE`` matches exactly those texts
    but for a word starting with a numeric character that is no decimal digit
    (``½``), which the lexer refuses. With each string made ``""``, a token
    starts at the start and after each space, the rest being ``,`` and ``.``."""
    if _PROSE.fullmatch(text) is None:
        return False
    pieces = (_STRING.sub('""', text) if '"' in text else text).split(" ")
    if not text.isascii() and any(piece[:1].isnumeric() and not piece[:1].isdecimal() for piece in pieces):
        return False
    return stops.isdisjoint(piece.rstrip(",.") for piece in pieces[1:])


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


class _Out(list):
    """The CNL030 warnings about what the emitted text leaves out."""

    def note(self, message: str) -> str:
        """The ``//`` line that notes a loss, for its writer to place where the lost field stood; adds its CNL030."""
        self.append(warning("CNL030", f"not representable in CNL-BI: {message}"))
        return f"// not representable in CNL-BI: {message}"


def _article(word: str) -> str:
    return "an" if word[:1] in "AEIO" else "a"


_KIND_WORDS = {"Slice": "Slice", "Dice": "Dice", "RollUp": "Roll-up", "DrillDown": "Drill-down", "Pivot": "Pivot"}


def emit_cnlbi(model: m.SpecificationModel) -> tuple[str, list[Diagnostic]]:
    """Deterministic canonical CNL-BI text for a model.

    Constructs with no CNL-BI syntax (clusters, vocabulary extensions, tags,
    string lengths, container events) are emitted as comment lines and
    reported as warnings.
    """
    lines: list[str] = []
    out = _Out()
    for ext in sorted(model.vocabulary_extensions, key=lambda x: (x.category, x.id)):
        lines.append(out.note(f"vocabulary extension {ext.category} {ext.id}"))

    for enum in sorted(model.enumerations, key=lambda e: e.id):
        *values, last = enum.values
        rendered = f"{', '.join(values)} and {last}" if values else last
        lines += [f"Data enumeration {enum.id}{mx.shown_name(enum, ' ({})')} with values {rendered}.", ""]

    for entity in sorted(model.entities, key=lambda e: e.id):
        sub = f" {entity.sub_type}" if entity.sub_type else ""
        lines.append(
            f"DataEntity {entity.id}{mx.shown_name(entity, ' ({})')} is {_article(entity.entity_type)} "
            f"{entity.entity_type}{sub} with attributes"
        )
        attributes = ",\n".join("  " + _attribute_text(attr, out, entity.id) for attr in entity.attributes)
        description = _describe_entity(entity, out)
        lines += [attributes + ("" if description else "."), *description, ""]

    for cluster in sorted(model.clusters, key=lambda c: c.id):
        lines += [out.note(f"data entity cluster {cluster.id} (main {cluster.main}, uses {', '.join(cluster.uses)})"), ""]

    for actor in sorted(model.actors, key=lambda a: a.id):
        head = f"Actor {actor.id}{mx.shown_name(actor)} is {_article(actor.actor_type)} {actor.actor_type}"
        lines += ["".join([head, *_write_actor(actor, out)]) + ".", ""]

    for uc in sorted(model.use_cases, key=lambda u: u.id):
        head = f"UseCase {uc.id}{mx.shown_name(uc, ' ({})')} is {_article(uc.uc_type)} {uc.uc_type}"
        # The last operation, when there is one, ends the use case unmarked.
        lines += [head, *_punctuated(_write_use_case(uc, out), ",", "" if uc.operations else "."), ""]

    for container in sorted(model.ui_containers, key=lambda c: c.id):
        if container.container_subtype is not None and container.container_type == "MainWindow":
            head = container.container_subtype
        else:
            head = "Main Window" if container.container_type == "MainWindow" else "Modal Window"
            if container.container_subtype is not None:
                lines.append(out.note(f"container subtype {container.container_subtype} on {container.id}"))
        lines += [f"UIContainer {container.id}{mx.shown_name(container)} is {_article(head)} {head}", "that contains"]
        lines += [out.note(f"container event {event.id} on {container.id}") for event in container.events]
        for i, comp in enumerate(container.components):
            lines += _component(comp, out, last=i == len(container.components) - 1)
        lines.append("")

    text = "\n".join(lines).strip()
    return (text + "\n" if text else ""), out


def _attribute_text(attr: m.DataAttribute, out: _Out, entity_id: str) -> str:
    name = mx.shown_name(attr, " ({})")
    if attr.attr_type.kind == "dimension":
        head = f"{attr.id}{name} refers to Dimension {attr.attr_type.name}"
    else:
        type_name = attr.attr_type.name
        if attr.attr_type.length is not None:
            out.append(warning("CNL030", f"string length on {entity_id}.{attr.id} has no CNL-BI syntax; dropped"))
        head = f"{attr.id}{name} is {_article(type_name)} {type_name}"

    items = mx.constraint_texts(attr.constraints)
    if attr.default_value is not None:
        items.append(f"default {mx.literal_text(attr.default_value.value)}")
    if attr.measure is not None:
        if isinstance(attr.measure, m.OpaqueMeasure):
            out.append(warning("CNL030", f"opaque measure on {entity_id}.{attr.id}; emitted verbatim"))
        items.append(f"operation {mx.measure_text(attr.measure)}")
    if items:
        head += f" ({', '.join(items)})"
    return head


def _component(comp: m.UIComponent, out: _Out, last: bool) -> list[str]:
    lines = []
    term = _TERM_BY_TYPE.get((comp.component_type, comp.component_subtype))
    if term is None:
        term = comp.component_type
        if comp.component_subtype is not None:
            lines.append(out.note(f"component subtype {comp.component_subtype} on {comp.id}"))
    lines.append(f"UIComponent {comp.id}{mx.shown_name(comp)} is {_article(term)} {term}")
    return _punctuated([*lines, *_write_component(comp, out)], ",", "." if last else ",")


def _punctuated(lines: list[str], between: str, end: str) -> list[str]:
    """``lines`` with ``between`` after each clause but the last and ``end`` after the last, each at the
    end of its entry, which may span several lines. A ``//`` comment line takes none, so it follows them."""
    marked, mark = [], end
    for line in reversed(lines):
        if not line.lstrip().startswith("//"):
            line, mark = line + mark, between
        marked.append(line)
    return marked[::-1]
