"""Parse outcomes of seeded mutants of `.lqc` and matrix text.

Each mutant is a committed source with one to three seeded edits: a token
or a character dropped, inserted or replaced, or a line deleted or
inserted. Its outcome is the class and text of every diagnostic, or a
digest of the parsed circuit or matrix. `data/parse_outcomes.json` holds
the outcome of every mutant, recorded at 40fa77a (a bad metric count of a
matrix header placed at that count since), so a change to how
`parse` and `parse_matrix_text` find and place their faults must keep every
diagnostic byte for byte. Nothing but `ParseError` may escape either one.

Run this file as a script to record the outcomes anew:

    PYTHONPATH=src python tests/test_parse_outcomes.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import SMALL_CIRCUITS, mutant
from lqc.circuit import ParseError, parse, parse_matrix_text, serialize

DATA = Path(__file__).parent / "data"
OUTCOMES = DATA / "parse_outcomes.json"

# (name, kind, mutant count) of each source
SOURCES = [
    ("golden14.lqc", "lqc", 400),
    ("qqhh.lqc", "lqc", 400),
    ("small_a", "lqc", 300),
    ("small_b", "lqc", 300),
    ("small_c", "lqc", 300),
    ("qqhh.mat", "mat", 200),
    ("h.mat", "mat", 200),
    ("q.mat", "mat", 200),
]


def source_text(name: str) -> str:
    return SMALL_CIRCUITS[name] if name in SMALL_CIRCUITS else (DATA / name).read_text()


def mutants():
    """(id, kind, text) of every mutant, in a fixed order."""
    for name, kind, count in SOURCES:
        text = source_text(name)
        for i in range(count):
            yield f"{name}:{i}", kind, mutant(text, f"{name}:{i}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def outcome(kind: str, text: str):
    """A digest of what parses, or the class and text of each diagnostic;
    a long list keeps its first four and a digest of all."""
    try:
        if kind == "lqc":
            return {"ok": _digest(serialize(parse(text)).encode())}
        matrix, signature = parse_matrix_text(text)
        return {"ok": _digest(repr((matrix.shape, signature)).encode() + matrix.tobytes())}
    except ParseError as e:
        shown = [str(d) for d in e.diagnostics]
        got = {"error": type(e).__name__, "diagnostics": shown[:4]}
        if len(shown) > 4:
            got.update(count=len(shown), sha=_digest("\n".join(shown).encode()))
        return got


def record() -> dict:
    return {
        "sources": {name: _digest(source_text(name).encode()) for name, _, _ in SOURCES},
        "outcomes": {key: outcome(kind, text) for key, kind, text in mutants()},
    }


def test_sources_are_the_recorded_ones():
    recorded = json.loads(OUTCOMES.read_text())["sources"]
    assert recorded == {name: _digest(source_text(name).encode()) for name, _, _ in SOURCES}


def test_every_mutant_keeps_its_outcome():
    recorded = json.loads(OUTCOMES.read_text())["outcomes"]
    got = {}
    for key, kind, text in mutants():
        try:
            got[key] = outcome(kind, text)
        except Exception as e:  # any escape but ParseError fails, naming the mutant
            pytest.fail(f"{key}: {type(e).__name__} escaped: {e}")
    assert len(got) == len(recorded) >= 2000
    assert got == recorded


if __name__ == "__main__":
    # one mutant a line
    got = record()
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in got["outcomes"].items())
    OUTCOMES.write_text(f'{{"sources": {json.dumps(got["sources"])},\n"outcomes": {{\n{rows}\n}}}}\n')
