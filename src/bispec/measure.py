"""Measure expression and predicate grammar shared by both frontends.

The expression language is the DAX-like surface used for computed attributes:
aggregates over attribute paths or predicates, references to sibling
measures, and left-to-right arithmetic. The same predicate grammar serves
OLAP where clauses.
"""

from __future__ import annotations

from . import model as m
from .diagnostics import Span
from .lexer import Cursor, TokenKind, tokenize  # noqa: F401 (perfbench/spans.py wraps measure.tokenize)


class ExprSyntaxError(Exception):
    def __init__(self, message: str, span: Span | None):
        super().__init__(message)
        self.span = span


class _Name:
    """Unresolved dotted name in operand position; classified at entity build."""

    __slots__ = ("path",)

    def __init__(self, path: m.AttributePath):
        self.path = path


class _Arithmetic:
    """Arithmetic whose operands may still hold _Name placeholders.

    resolve_names() turns it into a validated m.Arithmetic.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object):
        self.op = op
        self.left = left
        self.right = right


_AGG_BY_LOWER = {fn.lower(): fn for fn in m.AGGREGATE_FUNCTIONS}
_AGG_BY_LOWER["avg"] = "AVERAGE"


def parse_path(cur: Cursor) -> m.AttributePath:
    first = cur.peek()
    if not first.is_word():
        raise ExprSyntaxError(f"expected an attribute path, found {first.text!r}", first.span)
    segments = [cur.next().text]
    last = first
    while cur.at_punct(".") and cur.peek(1).is_word():
        # Dotted paths are written without whitespace; a detached '.' is a
        # declaration terminator, not a segment separator.
        dot, nxt = cur.peek(), cur.peek(1)
        if dot.offset != last.end or nxt.offset != dot.end:
            break
        cur.next()
        last = cur.next()
        segments.append(last.text)
    span = first.lines.span(first.offset, last.end - first.offset)
    try:
        return m.AttributePath(tuple(segments), span)
    except m.ModelError as exc:
        raise ExprSyntaxError(str(exc), span) from exc


def parse_literal(cur: Cursor) -> m.Literal | None:
    """The next token as a literal, consumed, when it is a number, a string or a boolean word; else None."""
    tok = cur.peek()
    if tok.kind in (TokenKind.NUMBER, TokenKind.STRING):
        return m.Literal(cur.next().value)
    if tok.is_word() and tok.text in ("True", "False", "true", "false"):
        cur.next()
        return m.Literal(tok.text.lower() == "true")
    return None


def _parse_rhs(cur: Cursor) -> object:
    literal = parse_literal(cur)
    if literal is not None:
        return literal
    tok = cur.peek()
    if tok.is_word():
        # Path-shaped: either an enum literal (classified once the full model
        # is known) or a free parameter path bound at query time.
        return parse_path(cur)
    raise ExprSyntaxError(f"expected a literal or path, found {tok.text!r}", tok.span)


def parse_predicates(cur: Cursor) -> list[m.Predicate]:
    """Predicates joined by ``and``."""
    predicates = [parse_predicate(cur)]
    while cur.eat_word("and"):
        predicates.append(parse_predicate(cur))
    return predicates


def parse_predicate(cur: Cursor) -> m.Predicate:
    left = parse_path(cur)
    eq = cur.eat_punct("=")
    if eq is None:
        tok = cur.peek()
        raise ExprSyntaxError(f"expected '=' in predicate, found {tok.text!r}", tok.span)
    right = _parse_rhs(cur)
    return m.Predicate(left, right, left.loc)


def _parse_aggregate(cur: Cursor, fn: str) -> m.Aggregate:
    open_tok = cur.eat_punct("(")
    if open_tok is None:
        tok = cur.peek()
        raise ExprSyntaxError(f"expected '(' after {fn}, found {tok.text!r}", tok.span)
    # COUNT may take a predicate, optionally wrapped in if(...).
    if fn == "COUNT" and cur.at_word("if", "IF") and cur.peek(1).text == "(":
        cur.next()
        cur.next()
        pred = parse_predicate(cur)
        if cur.eat_punct(")") is None:
            raise ExprSyntaxError("expected ')' closing if(...)", cur.peek().span)
        arg: object = pred
    else:
        path = parse_path(cur)
        if cur.at_punct("="):
            cur.next()
            right = _parse_rhs(cur)
            arg = m.Predicate(path, right, path.loc)
        else:
            arg = path
    if cur.eat_punct(")") is None:
        raise ExprSyntaxError(f"expected ')' closing {fn}(...)", cur.peek().span)
    if isinstance(arg, m.Predicate) and fn != "COUNT":
        raise ExprSyntaxError(f"{fn} accepts an attribute path, not a predicate", cur.peek().span)
    return m.Aggregate(fn, arg)


def _parse_factor(cur: Cursor) -> object:
    tok = cur.peek()
    if tok.kind is TokenKind.NUMBER:
        cur.next()
        return m.Literal(tok.value)
    if cur.at_punct("("):
        cur.next()
        inner = parse_expression(cur)
        if cur.eat_punct(")") is None:
            raise ExprSyntaxError("expected ')'", cur.peek().span)
        return inner
    if tok.is_word():
        fn = _AGG_BY_LOWER.get(tok.text.lower())
        if fn is not None and cur.peek(1).text == "(":
            cur.next()
            return _parse_aggregate(cur, fn)
        return _Name(parse_path(cur))
    raise ExprSyntaxError(f"expected an expression, found {tok.text!r}", tok.span)


def _parse_term(cur: Cursor) -> object:
    left = _parse_factor(cur)
    while cur.at_punct("*") or cur.at_punct("/"):
        op = cur.next().text
        right = _parse_factor(cur)
        left = _combine(op, left, right, cur)
    return left


def parse_expression(cur: Cursor) -> object:
    """Parse a measure expression from the cursor; raises ExprSyntaxError."""
    left = _parse_term(cur)
    while cur.at_punct("+") or cur.at_punct("-"):
        op = cur.next().text
        right = _parse_term(cur)
        left = _combine(op, left, right, cur)
    return left


def _combine(op: str, left: object, right: object, cur: Cursor) -> _Arithmetic:
    # Operands stay as _Name until sibling measures are known.
    for side in (left, right):
        if not isinstance(side, (m.Aggregate, _Arithmetic, m.Literal, _Name, m.MeasureRef)):
            raise ExprSyntaxError("invalid arithmetic operand", cur.peek().span)
    return _Arithmetic(op, left, right)


def resolve_names(expr: object, measure_ids: set[str]) -> object:
    """Turn _Name placeholders into MeasureRef nodes and _Arithmetic into m.Arithmetic; reject bare attributes."""
    if isinstance(expr, _Name):
        segs = expr.path.segments
        if len(segs) == 1 and segs[0] in measure_ids:
            return m.MeasureRef(segs[0])
        raise ExprSyntaxError(
            f"{expr.path} is not a sibling measure; only aggregates, measure references, "
            "and literals may appear in measure arithmetic",
            expr.path.loc,
        )
    if isinstance(expr, _Arithmetic):
        return m.Arithmetic(expr.op, resolve_names(expr.left, measure_ids), resolve_names(expr.right, measure_ids))
    return expr


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def literal_text(value: object, quote: str = '"') -> str:
    """A literal as both syntaxes write it; a string is quoted with ``quote``,
    and a backslash or ``quote`` inside it is escaped with a backslash."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (int, float)):
        return repr(value)
    return quote + str(value).replace("\\", "\\\\").replace(quote, "\\" + quote) + quote


def shown_name(obj, form: str = " {}", quote: str = '"') -> str:
    """``form`` with ``obj``'s name as a literal; nothing when it has no name or the name is its id."""
    return form.format(literal_text(obj.name, quote)) if obj.name is not None and obj.name != obj.id else ""


def constraint_texts(constraints) -> list[str]:
    """Constraints in the language's order, a foreign key as ``ForeignKey(target)``."""
    return [
        f"ForeignKey({c.target})" if c.kind == "ForeignKey" else c.kind
        for c in sorted(constraints, key=lambda c: m.CONSTRAINT_KINDS.index(c.kind))
    ]


def operand_text(value: object, quote: str = '"') -> str:
    if isinstance(value, m.Literal):
        return literal_text(value.value, quote)
    if isinstance(value, m.EnumLiteral):
        return f"{value.enum}.{value.value}"
    if isinstance(value, m.AttributePath):
        return str(value)
    raise TypeError(f"unexpected operand {value!r}")


def predicate_text(pred: m.Predicate, quote: str = '"') -> str:
    return f"{pred.left} = {operand_text(pred.right, quote)}"


def measure_text(expr: object, quote: str = '"') -> str:
    if isinstance(expr, m.Aggregate):
        arg = predicate_text(expr.arg, quote) if isinstance(expr.arg, m.Predicate) else str(expr.arg)
        return f"{expr.fn}({arg})"
    if isinstance(expr, m.MeasureRef):
        return expr.attribute
    if isinstance(expr, m.Arithmetic):
        return f"({measure_text(expr.left, quote)} {expr.op} {measure_text(expr.right, quote)})"
    if isinstance(expr, m.Literal):
        return literal_text(expr.value, quote)
    if isinstance(expr, m.OpaqueMeasure):
        return expr.text
    raise TypeError(f"unexpected measure node {expr!r}")
