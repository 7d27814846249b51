"""Source spans and diagnostics shared by every stage of the pipeline."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter


def value(cls):
    """Class decorator for an immutable value: ``@dataclass(frozen=True)``'s
    fields, equality, hashing, ``repr`` and assignment guard, for a fraction
    of its import cost.

    ``dataclass`` records the fields and generates no method; one ``exec``
    compiles ``__init__``, which stores each field and then calls
    ``__post_init__``. Equality and hashing read the tuple of the compared
    fields, so a ``compare=False`` field such as ``loc`` never counts; they,
    ``__repr__`` and the guard are functions every value class shares.
    """
    if not cls.__doc__:  # else dataclass derives one through inspect.signature
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
    dataclass(init=False, eq=False, repr=False)(cls)
    own = fields(cls)
    namespace, params, body = {"_setattr": object.__setattr__}, [], []
    for f in own:
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _setattr(self, {f.name!r}, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    compared = [f.name for f in own if f.compare]
    key = attrgetter(*compared)  # one name gives the bare value, not a 1-tuple
    cls._value_key = staticmethod(key if len(compared) > 1 else lambda obj: (key(obj),))
    cls._value_shown = tuple(f.name for f in own if f.repr)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _assign, _delete
    return cls


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._value_key(self) == other._value_key(other)
    return NotImplemented


def _hash(self):
    return hash(self._value_key(self))


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._value_shown)
    return f"{self.__class__.__qualname__}({shown})"


def _assign(self, name, new):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@value
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


@value
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
