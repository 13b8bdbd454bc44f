"""The docstrings and comments of `lqc/simulator.py` state its rules, not its
timing history: a wall time, a speed ratio or a host name there would date
with every change to the code around it. Measured figures live in README's
table "Simulator mechanisms and their measured figures" and in CHANGES.md."""

import ast
import io
import re
import tokenize
from pathlib import Path

SIMULATOR = Path(__file__).resolve().parents[1] / "src" / "lqc" / "simulator.py"

# a number with a unit of time, a speed ratio as in "1.3x" or "0.4-0.8x",
# and the processor names a timing is given on
HISTORY = re.compile(
    r"\b\d+(?:\.\d+)?\s?(?:s|ms|µs|us|ns)\b"
    r"|\b\d+(?:\.\d+)?(?:\s?[-–]\s?\d+(?:\.\d+)?)?[x×](?!\w)"
    r"|\b(?:Xeon|EPYC|Ryzen|Intel|AMD|Graviton)\b"
)


def prose(source: str) -> list[tuple[int, str]]:
    """(line, text) of every docstring and comment in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                found.append((doc.lineno, doc.value.value))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            found.append((tok.start[0], tok.string))
    return found


def history(source: str) -> list[tuple[int, str]]:
    """(line, match) of every figure of timing history in the prose of `source`."""
    return [(line, m.group()) for line, text in prose(source) for m in HISTORY.finditer(text)]


def test_simulator_prose_holds_no_timing_history():
    assert history(SIMULATOR.read_text()) == []


def test_checker_finds_timings_ratios_and_hosts():
    source = '''"""A round took 23 us where it took 47, and 1.05 to 0.85 ms."""
# 0.4-0.8x the time of the iterator, 1.3x larger (one BLAS thread, 2-core Intel Xeon)
def f():
    """About 8 ms a call; 2-5x faster; 0.5 s in all."""
    x = "12 ms"  # 14-18 µs per round
'''
    assert [m for _, m in history(source)] == [
        "23 us", "0.85 ms", "8 ms", "2-5x", "0.5 s", "0.4-0.8x", "1.3x", "Intel", "Xeon", "18 µs",
    ]


def test_checker_passes_rules_and_code():
    # sizes, counts, matrix shapes and string literals are not history
    source = '''"""A 2x2 gate on (2, k) slices of 4 * TILE multiply-adds, 7 or more
targets, tiles of 1 or 2 columns, a 4 x 4 block, 2^-num_bits."""
LIMIT = 1 << 13  # 2^13 amplitudes, inside L2
TEXT = "took 8 ms"
'''
    assert history(source) == []
