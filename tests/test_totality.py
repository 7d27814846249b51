"""Parsing is total: mutated corpus text never makes the pipeline raise.

Each mutant of a corpus file goes through parse, check_model, model_json
and both emitters. Errors must come back as diagnostics, so no call may
raise; and a mutant that parses and checks without error must lower every
fact's executable measures and plan and translate every operation that is
not underspecified.
"""

import random

import pytest

from bispec import check_model, emit_asl, emit_cnlbi, gen_olap_sql, model_json, parse_asl, parse_cnlbi
from bispec.lexer import tokenize
from bispec.plan import executable_measures, measure_program, plan_operation
from conftest import CORPUS_ASL, CORPUS_CNLBI

# Characters that open or close constructs, plus a letter, a digit and a numeric non-digit.
_INSERTS = '"\'\\/*.,:;()[]{}=-_ \n²é7'
MUTANTS_PER_FILE = 80


def _mutate(text: str, tokens, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            # One character: insert, delete or duplicate.
            at = rng.randrange(len(text))
            action = rng.randrange(3)
            piece = rng.choice(_INSERTS) if action == 0 else text[at]
            text = text[:at] + piece + text[at + (action == 1):]
        else:
            # One token of the original text: insert it elsewhere, delete it or duplicate it.
            tok = rng.choice(tokens)
            action = rng.randrange(3)
            at = rng.randrange(len(text)) if action == 0 else min(tok.offset, len(text))
            if action == 1:
                text = text[:at] + text[at + tok.length:]
            else:
                text = text[:at] + tok.text + text[at:]
    return text


@pytest.mark.parametrize(
    "path, parse",
    [(CORPUS_CNLBI, parse_cnlbi), (CORPUS_ASL, parse_asl)],
    ids=["cnlbi", "asl"],
)
def test_mutated_corpus_never_raises(path, parse):
    source = path.read_text(encoding="utf-8")
    tokens = tokenize(source, block_comments=True, string_quotes="'\"")[0][:-1]
    rng = random.Random(20231)
    for _ in range(MUTANTS_PER_FILE):
        text = _mutate(source, tokens, rng)
        model, diags = parse(text, str(path))
        report = check_model(model)
        model_json(model)
        emit_cnlbi(model)
        emit_asl(model)
        if report.ok and not any(d.is_error for d in diags):
            for fact in model.facts:  # what every roll-up, slice and dice lowers
                measure_program(model, fact.id, [attr.measure for attr in executable_measures(fact)])
            for uc in model.use_cases:
                for op in uc.operations:
                    if not op.is_underspecified:
                        plan_operation(model, uc.id, op.id)
                        gen_olap_sql(model, uc.id, op.id)
