import pytest
from hypothesis import example, given, strategies as st

import reference_lexer
from bispec.lexer import TokenKind, tokenize


def kinds(tokens):
    return [t.kind for t in tokens]


def test_fixed_fragments_and_identifiers_lex_as_words():
    tokens, diags = tokenize("DataEntity Patient is a Master Dimension")
    assert not diags
    assert [t.text for t in tokens[:-1]] == ["DataEntity", "Patient", "is", "a", "Master", "Dimension"]
    assert kinds(tokens) == [TokenKind.WORD] * 6 + [TokenKind.EOF]


def test_empty_input_is_just_eof():
    tokens, diags = tokenize("")
    assert kinds(tokens) == [TokenKind.EOF]
    assert diags == []


def test_attribute_line_token_shapes():
    tokens, diags = tokenize('name is a String (NotNull),')
    assert not diags
    assert kinds(tokens)[:-1] == [
        TokenKind.WORD,
        TokenKind.WORD,
        TokenKind.WORD,
        TokenKind.WORD,
        TokenKind.PUNCT,
        TokenKind.WORD,
        TokenKind.PUNCT,
        TokenKind.PUNCT,
    ]


def test_hyphenated_words_stay_single_tokens():
    tokens, _ = tokenize("Roll-up x-axis a - b")
    texts = [t.text for t in tokens[:-1]]
    assert texts == ["Roll-up", "x-axis", "a", "-", "b"]


def test_apostrophes_in_prose_words():
    tokens, diags = tokenize("per institution's city")
    assert not diags
    assert [t.text for t in tokens[:-1]] == ["per", "institution's", "city"]


def test_spans_cover_their_text():
    source = 'DataEntity X is a Master\n  "quoted name" 42'
    tokens, _ = tokenize(source)
    for token in tokens[:-1]:
        assert token.span.slice(source) == token.text


def test_unterminated_string_reports_cnl001():
    tokens, diags = tokenize('Actor X "unclosed')
    assert any(d.code == "CNL001" for d in diags)


def test_invalid_character_reports_cnl002():
    _, diags = tokenize("entity @ here", code_prefix="CNL")
    assert [d.code for d in diags] == ["CNL002"]


def test_comments_become_comment_tokens():
    tokens, _ = tokenize("// leading note\nActor X")
    assert tokens[0].kind is TokenKind.COMMENT
    assert tokens[0].text == "// leading note"


def test_block_comments_only_when_enabled():
    tokens, diags = tokenize("/* note */ Actor", block_comments=True)
    assert tokens[0].kind is TokenKind.COMMENT
    assert not diags
    tokens, _ = tokenize("/* note */", block_comments=False)
    assert tokens[0].kind is TokenKind.PUNCT  # plain '/' token; the parser rejects it


@pytest.mark.parametrize(
    "source, options",
    [("cnlbi_source", {}), ("asl_source", {"block_comments": True})],
    ids=["cnlbi", "asl"],
)
def test_corpus_token_kinds_are_the_plain_string_constants(source, options, request):
    # The parsers test kinds with ``is``; every kind must be one of the constants themselves.
    constants = [value for name, value in vars(TokenKind).items() if not name.startswith("_")]
    assert len(constants) == 6 and all(type(kind) is str for kind in constants)
    tokens, diags = tokenize(request.getfixturevalue(source), **options)
    assert not diags and len(tokens) > 1000
    for tok in tokens:
        assert type(tok.kind) is str and any(tok.kind is kind for kind in constants), tok


def test_line_and_column_positions():
    source = "Actor A\n  is a User"
    tokens, _ = tokenize(source)
    is_tok = [t for t in tokens if t.text == "is"][0]
    assert (is_tok.span.line, is_tok.span.col) == (2, 3)


def test_numeric_characters_that_are_not_decimal_digits_are_invalid():
    tokens, diags = tokenize("x² ² ½ Ⅻ 7")
    assert [(t.kind, t.text, t.value) for t in tokens] == [
        (TokenKind.WORD, "x²", None),  # a word continues with any alphanumeric character
        (TokenKind.NUMBER, "7", 7),
        (TokenKind.EOF, "", None),
    ]
    assert [(d.code, d.message, d.span.col) for d in diags] == [
        ("CNL002", "invalid character '²'", 4),
        ("CNL002", "invalid character '½'", 6),
        ("CNL002", "invalid character 'Ⅻ'", 8),
    ]


# Fragments that exercise every branch of the scanner: quotes and escapes,
# both comment styles, line breaks that are not "\n", non-ASCII letters,
# digits and numeric characters, a combining mark and a no-break space.
_PIECES = (
    '"', "'", "\\", '\\"', "\\'", "\\\\", "//", "/*", "*/", "*", "/", "-", "\n", "\r", "\x0c", " ", "\u00a0",
    "²", "½", "Ⅻ", "١", "𝟘", "é", "\u0301", "a", "Z", "_", "7", ".", "(", ")", ",", "=", "@",
    "is", "x-y", "it's",
)


def _observed(result):
    tokens, diags = result
    return [(t.kind, t.text, type(t.value), t.value, t.span) for t in tokens], diags


@pytest.mark.parametrize("block_comments", [False, True])
@pytest.mark.parametrize("string_quotes", ['"', "'\""])
@given(text=st.lists(st.sampled_from(_PIECES), min_size=4, max_size=60).map("".join))
@example(text='"a\\"')  # an escaped quote does not close the string
@example(text="/*/")
def test_lexer_agrees_with_character_reference(text, block_comments, string_quotes):
    options = dict(block_comments=block_comments, string_quotes=string_quotes)
    result = tokenize(text, **options)
    try:
        expected = reference_lexer.tokenize(text, **options)
    except ValueError:
        # The reference reads a numeric non-decimal character such as '²' as a number.
        assert any(d.code == "CNL002" for d in result[1])
        return
    assert _observed(result) == _observed(expected)
