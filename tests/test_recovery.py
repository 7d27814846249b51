"""A fault in one declaration costs that declaration only.

After a syntax or model-check error, both parsers resume at the first
declaration keyword, at or after the token where the failing construct
stopped, that no ``[ ... ]`` opened inside that construct encloses
(``lexer.Parser.resume``). The property below replaces one top-level
declaration of a corpus file at a time, by a variant that fails its model
check or by a truncation of it, and requires every other declaration that
does not name it to keep its canonical dict.
"""

import re

import pytest

from bispec import parse_asl, parse_cnlbi
from bispec.asl import _DECLARATIONS as ASL_DECLARATIONS
from bispec.canonical import canonical_dict
from conftest import CORPUS_ASL, CORPUS_CNLBI


@pytest.mark.parametrize("parse, text, kept", [
    (parse_asl, 'DataEnumeration E "E" values (a, a)\nDataEnumeration F "F" values (b)\n', "F"),
    (parse_cnlbi, "Data enumeration E with values a and a.\nData enumeration F with values b.\n", "F"),
    (parse_asl, 'DataEntity A "A" : Master [ ]\n'
                'DataEntity B "B" : Master [\n  attribute id : String [constraints (PrimaryKey NotNull)]\n]\n', "B"),
], ids=["asl enumeration", "cnlbi enumeration", "asl entity"])
def test_a_declaration_that_fails_its_model_check_keeps_the_next(parse, text, kept):
    model, diags = parse(text, "two.spec")
    assert [d.code for d in diags] == [f"{'ASL' if parse is parse_asl else 'CNL'}010"]
    assert [e.id for e in (*model.enumerations, *model.entities)] == [kept]


@pytest.mark.parametrize("parse, text, message", [
    (parse_cnlbi, "Data enumeration\nData enumeration States with values A and B.\n", "CNL010 expected an enumeration id, found 'Data'"),
    (parse_asl, 'DataEnumeration\nDataEnumeration E "E" values (a, b)\n', "ASL010 expected an enumeration id, found 'DataEnumeration'"),
    (parse_asl, 'DataEntity A "A" : Master [\n  attribute id : String [constraints (PrimaryKey NotNull)]\n'
                '  attribute x : DataEnumeration\nDataEnumeration E "E" values (a, b)\n',
     "ASL010 expected an enumeration id, found 'DataEnumeration'"),
], ids=["cnlbi enumeration head", "asl enumeration head", "asl attribute type"])
def test_a_declaration_keyword_is_never_read_as_an_identifier(parse, text, message):
    """A declaration cut short where an identifier should stand fails at the
    next declaration's keyword, which reading resumes at (at the parent the
    keyword was read as the identifier and the enumeration was lost)."""
    model, diags = parse(text, "cut.spec")
    assert [f"{d.code} {d.message}" for d in diags] == [message]
    assert [e.id for e in model.enumerations] == ["States" if parse is parse_cnlbi else "E"]


def test_a_failing_container_head_does_not_read_its_nested_lines_as_declarations(asl_source):
    """The body of a UIContainer whose head fails is skipped whole: its nested
    ``component`` lines are no top-level components (three ASL010 at the parent)."""
    head = 'UIContainer PatientOverviewPage "Patient Overview Page" : Window : Page ['
    assert asl_source.count(head) == 1
    model, diags = parse_asl(asl_source.replace(head, head.replace("Page [", "Pag'e [")), "page.asl")
    assert [d.message for d in diags if d.is_error] == ["unknown UIContainerSubType term \"Pag'e\"; declare it before use"]
    assert [c.id for c in model.ui_containers] == ["InstitutionOverviewPage"]


# ---------------------------------------------------------------------------
# The property, over both corpus files
# ---------------------------------------------------------------------------

# a top-level declaration's first line: its keyword, then its id
_HEADS = {
    "cnlbi": re.compile(r"(?:DataEntity|Data enumeration|Actor|UseCase|UIContainer)\s+(\w+)"),
    "asl": re.compile(rf"(?:{'|'.join(map(re.escape, ASL_DECLARATIONS))})\s+(\w+)"),
}


def _declarations(source: str, syntax: str) -> list[tuple[str | None, str]]:
    """The file as ``(id, text)`` pieces, one per top-level declaration (each
    starting at its first line and holding the comments that follow it), after
    a first piece with id None for what comes before the first declaration.
    A CNL-BI UIComponent belongs to the UIContainer before it."""
    pieces = [[None, ""]]
    for line in source.splitlines(keepends=True):
        head = _HEADS[syntax].match(line)
        if head:
            pieces.append([head.group(1), ""])
        pieces[-1][1] += line
    return [tuple(piece) for piece in pieces]


def _variants(text: str, syntax: str):
    """``text`` cut after each of its lines but the last that holds more than a
    comment; an enumeration with its first value twice; an entity without
    attributes. The last two fail their model check after their last token."""
    lines = text.splitlines(keepends=True)
    spoken = [i for i, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("//")]
    for end in spoken[1:]:
        yield f"cut before line {end + 1}", "".join(lines[:end])
    if syntax == "asl":
        twice = re.sub(r"values \((\w+)", r"values (\1, \1", text, count=1)
        bare = "".join(line for line in lines if not line.lstrip().startswith("attribute "))
    else:
        twice = re.sub(r"with values (\w+)", r"with values \1, \1", text, count=1)
        bare = re.sub(r"with attributes\n(?:  .*\n)*", "with attributes\n", text)
    for name, variant in (("a value twice", twice), ("no attributes", bare)):
        if variant != text:
            yield name, variant


def _items(model) -> dict:
    """The canonical dict of every top-level element, by category and id."""
    return {(category, item["id"]): item for category, items in canonical_dict(model).items()
            if isinstance(items, list) for item in items}


def _names(text: str, ident: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(ident)}(?![\w-])", text) is not None


@pytest.mark.parametrize("path, parse, syntax", [(CORPUS_CNLBI, parse_cnlbi, "cnlbi"), (CORPUS_ASL, parse_asl, "asl")],
                         ids=["cnlbi", "asl"])
def test_a_broken_declaration_leaves_every_declaration_that_does_not_name_it(path, parse, syntax):
    pieces = _declarations(path.read_text(encoding="utf-8"), syntax)
    whole = _items(parse("".join(text for _, text in pieces), path.name)[0])
    assert len(pieces) > 15 and len(whole) > 15
    lost, tried = [], 0
    for at, (ident, text) in enumerate(pieces):
        if ident is None:
            continue
        naming = {ident} | {other for other, other_text in pieces if other is not None and _names(other_text, ident)}
        for name, variant in _variants(text, syntax):
            tried += 1
            source = "".join(variant if i == at else piece for i, (_, piece) in enumerate(pieces))
            items = _items(parse(source, path.name)[0])
            lost += [(ident, name, key) for key, item in whole.items() if key[1] not in naming and items.get(key) != item]
    assert tried > 100 and lost == []
