"""Tokenizer shared by both specification syntaxes.

Every word is one token kind; whether it is a fixed fragment of a
linguistic style or an identifier is up to the parser. Words may contain
internal hyphens (``Roll-up``, ``x-axis``) and apostrophes
(``institution's``) so that those fragments and prose descriptions lex as
single tokens; a ``-`` with whitespace around it is still punctuation, which
keeps arithmetic expressions unambiguous.

Character classes follow ``str``: whitespace is ``isspace()``; a word starts
with ``isalpha()`` or ``_`` and continues with ``isalnum()`` or ``_``; a
number is decimal digits (``isdecimal()``), with an optional fraction. Any
other character outside a string or comment is an invalid character
(``*002``), including numeric characters that are not decimal digits, such
as ``²``, ``½`` or ``Ⅻ``, at the start of a token.

One compiled pattern per comment style and quote set scans the source.
Tokens are tuples with their kind, offset and length; a token's line and
column are computed only when its ``span`` is asked for. A kind is one of the
plain string constants of ``TokenKind``, which the parsers test with ``is``
for nearly every token.

``Parser`` holds what the CNL-BI and ASL parsers share: the cursor, the
diagnostics, the error helpers and the top-level declaration loop.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from functools import cache

from .diagnostics import Diagnostic, Span, error
from .model import ModelError, is_identifier


class TokenKind:
    """The kinds of token: plain string constants, compared with ``is``.

    The parsers test a token's kind for nearly every token, and loading a
    plain class attribute costs about a quarter of loading an ``Enum`` member.
    """

    WORD = "word"
    STRING = "string"
    NUMBER = "number"
    PUNCT = "punct"
    COMMENT = "comment"
    EOF = "eof"


class Lines:
    """Start offsets of the lines of one source file; turns offsets into spans."""

    __slots__ = ("file", "starts")

    def __init__(self, file: str, source: str):
        self.file = file
        self.starts = [0, *(m.end() for m in re.finditer("\n", source))]

    def span(self, offset: int, length: int) -> Span:
        line = bisect_right(self.starts, offset)
        return Span(self.file, line, offset - self.starts[line - 1] + 1, offset, length)


class Token(namedtuple("Token", "kind text value offset length lines")):
    """One token; ``value`` is the decoded payload of STRING / NUMBER tokens."""

    __slots__ = ()

    @property
    def end(self) -> int:
        return self.offset + self.length

    @property
    def span(self) -> Span:
        return self.lines.span(self.offset, self.length)

    def is_word(self) -> bool:
        return self.kind is TokenKind.WORD


PUNCT_CHARS = "()[]{},.:;=+-*/"
WORD = r"[^\W\d]\w*(?:[-']\w+)*"  # also admits a first character that is numeric but no decimal digit: *002
NUMBER = r"\d+(?:\.\d+)?"


def string_body(quote: str) -> str:
    """The pattern of a string token quoted by ``quote``, up to its closing quote."""
    q = re.escape(quote)
    return rf"{q}(?:[^{q}\\\n]|\\[{q}\\]|\\(?![{q}\\]))*"


@cache
def _scanner(block_comments: bool, string_quotes: str) -> re.Pattern:
    """Skip whitespace, then match one token; only ``end`` matches at the end of input.

    Inside a string a backslash escapes the quote or a backslash and is kept
    before anything else, so a string body can be read only one way and an
    ``open_string`` is exactly a ``string`` that lacks its closing quote.
    """
    bodies = list(map(string_body, string_quotes))
    strings = "|".join(f"{body}{q}" for body, q in zip(bodies, map(re.escape, string_quotes)))
    block = r"|/\*(?:[^*]|\*(?!/))*\*/)|(?P<open_comment>/\*[\s\S]*" if block_comments else ""
    return re.compile(
        rf"""\s*(?:
        (?P<word>{WORD})
        |(?P<comment>//[^\n]*{block})
        |(?P<punct>[{re.escape(PUNCT_CHARS)}])
        |(?P<string>{strings})
        |(?P<open_string>{"|".join(bodies)})
        |(?P<number>{NUMBER})
        |(?P<invalid>\S)
        |(?P<end>\Z))""",
        re.VERBOSE,
    )


def tokenize(
    source: str,
    file: str = "<input>",
    code_prefix: str = "CNL",
    block_comments: bool = False,
    string_quotes: str = '"',
) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    lines = Lines(file, source)
    append = tokens.append
    new = tuple.__new__  # Token(...) would run namedtuple's Python-level __new__
    WORD, PUNCT = TokenKind.WORD, TokenKind.PUNCT
    pos = 0
    while True:
        for m in _scanner(block_comments, string_quotes).finditer(source, pos):
            group = m.lastgroup
            start, end = m.span(group)
            text = m[group]
            if group == "invalid" or group == "word" and not (text[0].isalpha() or text[0] == "_"):
                # [^\W\d] also admits numeric characters such as '½'; scan again after the invalid one.
                diagnostics.append(error(f"{code_prefix}002", f"invalid character {text[0]!r}", lines.span(start, 1)))
                pos = start + 1
                break
            if group == "word":
                append(new(Token, (WORD, text, None, start, end - start, lines)))
            elif group == "punct":
                append(new(Token, (PUNCT, text, None, start, 1, lines)))
            elif group == "string" or group == "open_string":
                body = text[1:-1] if group == "string" else text[1:]
                if "\\" in body:
                    body = re.sub(rf"\\([{re.escape(text[0])}\\])", r"\1", body)
                if group == "open_string":
                    diagnostics.append(error(f"{code_prefix}001", "unterminated string literal", lines.span(start, end - start)))
                append(new(Token, (TokenKind.STRING, text, body, start, end - start, lines)))
            elif group == "number":
                value = float(text) if "." in text else int(text)
                append(new(Token, (TokenKind.NUMBER, text, value, start, end - start, lines)))
            elif group == "comment" or group == "open_comment":
                if group == "open_comment":
                    diagnostics.append(error(f"{code_prefix}003", "unterminated block comment", lines.span(start, end - start)))
                append(new(Token, (TokenKind.COMMENT, text, None, start, end - start, lines)))
            else:
                append(new(Token, (TokenKind.EOF, "", None, end, 0, lines)))
                return tokens, diagnostics


class Cursor:
    """Forward-only view over a token list; comments are skipped transparently.

    Look-ahead is at most one token: the list ends with a second EOF, so
    ``peek(1)`` at the EOF is a plain index.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = [t for t in tokens if t.kind is not TokenKind.COMMENT]
        self._tokens.append(self._tokens[-1])
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self._tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    # The helpers below index the list themselves: the parsers call them for
    # nearly every token. An EOF token matches no punctuation mark or word.
    def at_eof(self) -> bool:
        return self._tokens[self.pos].kind is TokenKind.EOF

    def at_punct(self, text: str) -> bool:
        tok = self._tokens[self.pos]
        return tok.kind is TokenKind.PUNCT and tok.text == text

    def at_word(self, *texts: str) -> bool:
        tok = self._tokens[self.pos]
        return tok.kind is TokenKind.WORD and tok.text in texts

    def eat_punct(self, text: str) -> Token | None:
        tok = self._tokens[self.pos]
        if tok.kind is TokenKind.PUNCT and tok.text == text:
            self.pos += 1
            return tok
        return None

    def eat_word(self, *texts: str) -> Token | None:
        tok = self._tokens[self.pos]
        if tok.kind is TokenKind.WORD and tok.text in texts:
            self.pos += 1
            return tok
        return None


class ParseError(Exception):
    """A syntax error that abandons the declaration being read."""

    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class Clauses(dict):
    """What one clause loop read: the values of each keyword, in the order read."""

    def last(self, key: str):
        values = self.get(key)
        return values[-1] if values else None

    def joined(self, key: str) -> list:
        """The values of a keyword whose reader returns lists, concatenated."""
        return [item for values in self.get(key, ()) for item in values]


class Parser:
    """A recursive-descent parser over one file's tokens; its error codes start with ``prefix``."""

    prefix = ""

    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.cur = Cursor(tokens)
        self.diags = list(diags)

    def at_declaration(self) -> bool:
        """Whether the next token opens a declaration: where reading resumes after an error."""
        raise NotImplementedError

    def declarations(self, table: dict) -> Clauses:
        """Every top-level declaration, each read by ``table[keyword](self)``. A
        ParseError is reported and reading resumes at the first declaration
        keyword, at or after the token where the construct failed, at bracket
        depth 0 counted from the construct's first token (``resume``): a
        construct that failed after its last token resumes where it stopped,
        and one that failed before its ``[ ... ]`` body closed skips the rest
        of that body, its nested ``component`` lines included."""
        found = Clauses()
        while not self.cur.at_eof():
            tok = self.cur.peek()
            start = self.cur.pos
            try:
                reader = table.get(tok.text)
                if reader is None:
                    raise self.fail(f"{self.prefix}010", f"expected a declaration, found {tok.text!r}", tok.span)
                found.setdefault(tok.text, []).append(reader(self))
            except ParseError as exc:
                self.diags.append(exc.diag)
                self.resume(start)
        return found

    def resume(self, start: int) -> None:
        """Move past a construct that began at token ``start`` and failed at the
        cursor, to the first declaration keyword at or after the cursor that no
        ``[ ... ]`` opened since ``start`` encloses; a ``[`` never closed encloses nothing."""
        stop, opened, found = max(self.cur.pos, start + 1), [], []  # found: (position, brackets open there)
        self.cur.pos = start
        while not self.cur.at_eof():
            if self.cur.pos >= stop and self.at_declaration():
                if not opened:  # no bracket encloses it, and each that enclosed an earlier one closed
                    return
                found.append((self.cur.pos, len(opened)))
            tok = self.cur.next()
            if tok.kind is TokenKind.PUNCT and tok.text == "[":
                opened.append(self.cur.pos)
            elif tok.kind is TokenKind.PUNCT and tok.text == "]" and opened:
                opened.pop()
        # ``opened`` now holds the brackets never closed, which stay open from where they open
        self.cur.pos = next((at for at, open_there in found if open_there == bisect_right(opened, at)), self.cur.pos)

    def fail(self, code: str, message: str, span: Span | None = None) -> ParseError:
        return ParseError(error(code, message, span if span is not None else self.cur.peek().span))

    def ident(self, what: str) -> Token:
        """The next word as an identifier; never a word that opens a declaration
        (``at_declaration``), so a construct cut short before it fails there,
        and reading resumes at that declaration."""
        tok = self.cur.peek()
        if tok.is_word() and is_identifier(tok.text) and not self.at_declaration():
            return self.cur.next()
        raise self.fail(f"{self.prefix}010", f"expected {what}, found {tok.text or 'end of input'!r}")

    def expect_word(self, *words: str) -> Token:
        tok = self.cur.eat_word(*words)
        if tok is None:
            found = self.cur.peek().text or "end of input"
            raise self.fail(f"{self.prefix}010", f"expected {' or '.join(words)!r}, found {found!r}")
        return tok

    def one_of(self, code: str, what: str, allowed, aliases: dict | None = None) -> str:
        """The next word, through ``aliases``, which must be one of ``allowed``."""
        tok = self.cur.next()
        word = aliases.get(tok.text, tok.text) if aliases else tok.text
        if word not in allowed:
            raise self.fail(code, f"unknown {what} {tok.text!r}", tok.span)
        return word

    def build(self, ident: Token, make, *args, **kwargs):
        """``make(*args, **kwargs)``; a ModelError is reported at ``ident``."""
        try:
            return make(*args, **kwargs)
        except ModelError as exc:
            raise self.fail(f"{self.prefix}010", str(exc), ident.span) from None
