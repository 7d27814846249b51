"""What the parsers say about malformed input, and what the emitters write for it, pinned.

For each of ``MUTANTS_PER_FILE`` seeded mutants of a corpus file, the golden
holds the parse diagnostics (code, severity, line, column, message), in
``sorted_diagnostics`` order, and the sha256 of the model's canonical JSON.
It also holds, per emitter, the sha256 of the text it writes for the model
and the sorted codes of its warnings. The totality test only checks that the
parsers do not raise; this one checks that a parser or emitter rewrite reads
and writes every mutant the same way.

Rewrite the golden with ``PYTHONPATH=src python tests/test_parse_golden.py``
only when a change of what the parsers report or the emitters write is meant.
"""

import hashlib
import json
import random
from pathlib import Path

from bispec import emit_asl, emit_cnlbi, model_json, parse_asl, parse_cnlbi
from bispec.diagnostics import sorted_diagnostics
from bispec.lexer import tokenize
from conftest import CORPUS_ASL, CORPUS_CNLBI
from test_totality import _mutate

GOLDEN = Path(__file__).parent / "golden" / "parse_mutants.json"
MUTANTS_PER_FILE = 100
SEED = 1207


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record() -> dict:
    record = {}
    for path, parse in ((CORPUS_CNLBI, parse_cnlbi), (CORPUS_ASL, parse_asl)):
        source = path.read_text(encoding="utf-8")
        tokens = tokenize(source, block_comments=True, string_quotes="'\"")[0][:-1]
        rng = random.Random(SEED)
        mutants = []
        for _ in range(MUTANTS_PER_FILE):
            model, diags = parse(_mutate(source, tokens, rng), path.name)
            mutant = {
                "diagnostics": [
                    [d.code, d.severity.value, d.span.line if d.span else 0, d.span.col if d.span else 0, d.message]
                    for d in sorted_diagnostics(diags)
                ],
                "model_json_sha256": _sha256(model_json(model)),
            }
            for syntax, emit in (("cnlbi", emit_cnlbi), ("asl", emit_asl)):
                text, warnings = emit(model)
                mutant[f"emit_{syntax}_sha256"] = _sha256(text)
                mutant[f"emit_{syntax}_warnings"] = sorted(d.code for d in warnings)
            mutants.append(mutant)
        record[path.name] = mutants
    return record


def test_parsers_read_every_mutant_as_recorded():
    assert _record() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def _write(record: dict) -> None:
    """One line per mutant, so that a change of what a parser reports shows as a readable diff."""
    files = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(mutant, ensure_ascii=False)}" for mutant in mutants) + "\n ]"
        for name, mutants in record.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(files) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _write(_record())
