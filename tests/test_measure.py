import pytest

from bispec import measure as mx, model as m
from bispec.lexer import Cursor, tokenize


@pytest.mark.parametrize(
    "text, literal",
    [
        ("12", m.Literal(12)),
        ("1.5", m.Literal(1.5)),
        ('"x y"', m.Literal("x y")),
        ("True", m.Literal(True)),
        ("true", m.Literal(True)),
        ("False", m.Literal(False)),
        ("false", m.Literal(False)),
        ("TRUE", None),
        ("Gender.Female", None),
        ("(", None),
    ],
)
def test_parse_literal_reads_a_number_a_string_or_a_boolean_word_and_consumes_nothing_else(text, literal):
    cur = Cursor(tokenize(text)[0])
    read = mx.parse_literal(cur)
    assert read == literal
    assert read is None or type(read.value) is type(literal.value)  # Literal(True) == Literal(1)
    assert cur.at_eof() == (literal is not None)


def test_shown_name_is_written_only_when_it_differs_from_the_id():
    assert mx.shown_name(m.Actor("A", "User")) == ""
    assert mx.shown_name(m.Actor("A", "User", name="A")) == ""
    assert mx.shown_name(m.Actor("A", "User", name='An "A"')) == ' "An \\"A\\""'
    assert mx.shown_name(m.Actor("A", "User", name="it's"), "name {}", "'") == "name 'it\\'s'"
