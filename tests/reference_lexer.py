"""Character-by-character reference tokenizer, used to cross-check ``bispec.lexer``.

This is the original hand-written scanner: it walks the source one
character at a time and keeps its own line and column counters. It is
deliberately independent of the compiled pattern in ``bispec.lexer`` and
shares only the token kinds, spans and diagnostics, which are the contract
under test. It tests digits with ``str.isdigit``, so a numeric character
that is not a decimal digit (``²``) at the start of a token makes it raise
``ValueError``; the lexer under test reports such a character as ``*002``.
"""

from __future__ import annotations

from dataclasses import dataclass

from bispec.diagnostics import Diagnostic, Span, error
from bispec.lexer import TokenKind


@dataclass(frozen=True)
class Token:
    kind: str  # one of the TokenKind constants
    text: str
    span: Span
    value: object = None  # decoded payload for STRING / NUMBER tokens


PUNCT_CHARS = "()[]{},.:;=+-*/"


def _is_word_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(
    source: str,
    file: str = "<input>",
    code_prefix: str = "CNL",
    block_comments: bool = False,
    string_quotes: str = '"',
) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    i = 0
    line = 1
    line_start = 0
    n = len(source)

    def span(start: int, start_line: int, start_linestart: int, length: int) -> Span:
        return Span(file, start_line, start - start_linestart + 1, start, length)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue

        start, start_line, start_ls = i, line, line_start

        # Line comment.
        if ch == "/" and source.startswith("//", i):
            end = source.find("\n", i)
            end = n if end == -1 else end
            text = source[i:end]
            tokens.append(Token(TokenKind.COMMENT, text, span(start, start_line, start_ls, end - i)))
            i = end
            continue

        # Block comment (ASL only).
        if block_comments and source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                diagnostics.append(
                    error(f"{code_prefix}003", "unterminated block comment", span(start, start_line, start_ls, n - i))
                )
                text = source[i:]
                i = n
            else:
                text = source[i : end + 2]
                i = end + 2
            line += text.count("\n")
            if "\n" in text:
                line_start = start + text.rfind("\n") + 1
            tokens.append(Token(TokenKind.COMMENT, text, span(start, start_line, start_ls, len(text))))
            continue

        # Quoted string.
        if ch in string_quotes:
            quote = ch
            j = i + 1
            buf: list[str] = []
            closed = False
            while j < n:
                c = source[j]
                if c == "\\" and j + 1 < n and source[j + 1] in (quote, "\\"):
                    buf.append(source[j + 1])
                    j += 2
                    continue
                if c == quote:
                    closed = True
                    j += 1
                    break
                if c == "\n":
                    break
                buf.append(c)
                j += 1
            if not closed:
                diagnostics.append(
                    error(f"{code_prefix}001", "unterminated string literal", span(start, start_line, start_ls, j - i))
                )
            tokens.append(
                Token(TokenKind.STRING, source[i:j], span(start, start_line, start_ls, j - i), "".join(buf))
            )
            i = j
            continue

        # Number.
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            is_float = False
            if j < n - 1 and source[j] == "." and source[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            value: object = float(text) if is_float else int(text)
            tokens.append(Token(TokenKind.NUMBER, text, span(start, start_line, start_ls, j - i), value))
            i = j
            continue

        # Word: a fixed fragment or an identifier alike.
        if _is_word_start(ch):
            j = i + 1
            while j < n:
                c = source[j]
                if _is_word_char(c):
                    j += 1
                elif c in "-'" and j + 1 < n and _is_word_char(source[j + 1]):
                    j += 2
                else:
                    break
            text = source[i:j]
            tokens.append(Token(TokenKind.WORD, text, span(start, start_line, start_ls, j - i)))
            i = j
            continue

        if ch in PUNCT_CHARS:
            tokens.append(Token(TokenKind.PUNCT, ch, span(start, start_line, start_ls, 1)))
            i += 1
            continue

        diagnostics.append(
            error(f"{code_prefix}002", f"invalid character {ch!r}", span(start, start_line, start_ls, 1))
        )
        i += 1

    eof_span = Span(file, line, n - line_start + 1, n, 0)
    tokens.append(Token(TokenKind.EOF, "", eof_span))
    return tokens, diagnostics
