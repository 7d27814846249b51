"""Source spans and diagnostics shared by every stage of the pipeline."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Span:
    """Half-open region of one source file, 1-based line/column."""

    file: str
    line: int
    col: int
    offset: int
    length: int

    def slice(self, source: str) -> str:
        return source[self.offset : self.offset + self.length]

    def label(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    span: Span | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


def error(code: str, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span)


def warning(code: str, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def sort_key(diag: Diagnostic) -> tuple:
    # Stable order: file, then position, then code. Span-less entries sort first.
    if diag.span is None:
        return ("", 0, 0, diag.code)
    return (diag.span.file, diag.span.line, diag.span.col, diag.code)


def sorted_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diagnostics, key=sort_key)


_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


def want_color(stream=None) -> bool:
    """Resolve the CNLBI_COLOR={auto,always,never} setting for a stream."""
    mode = os.environ.get("CNLBI_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    stream = stream if stream is not None else sys.stderr
    return bool(getattr(stream, "isatty", lambda: False)())


def render_text(diag: Diagnostic, color: bool = False) -> str:
    sev = diag.severity.value
    if color:
        tint = _RED if diag.is_error else _YELLOW
        sev = f"{tint}{sev}{_RESET}"
    where = f"{diag.span.label()}: " if diag.span else ""
    return f"{where}{sev} {diag.code}: {diag.message}"


def render_json(diag: Diagnostic) -> str:
    """One diagnostic as a JSON line: {code, severity, line, col, message}."""
    payload = {
        "code": diag.code,
        "severity": diag.severity.value,
        "line": diag.span.line if diag.span else None,
        "col": diag.span.col if diag.span else None,
        "message": diag.message,
    }
    if diag.span:
        payload["file"] = diag.span.file
    return json.dumps(payload, ensure_ascii=False)
