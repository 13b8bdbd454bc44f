"""Seeded mutants of small `.lqc` and matrix files through every command
of `lqc.cli.main`, in process: each call returns one of the documented
exit codes and raises nothing.

The mutants are those of `conftest.mutant`. A mutant whose text declares
more than MAX_BITS bits is left out, so that no call allocates a large
state; the CLI's own guards on large registers have their own tests.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import SMALL_CIRCUITS, format_matrix_text, mutant
from lqc.circuit import ParseError, parse
from lqc.cli import main
from lqc.gates import builtin

MAX_BITS = 8
EXIT_CODES = {0, 1, 2, 3, 4}
DATA = Path(__file__).parent / "data"

# the small circuits, and one whose observable mass is zero (exit 2)
CIRCUITS = SMALL_CIRCUITS | {
    "zero_mass": "hybits 2\nDEFGATE FLIP2 2\n0,0 0,0 0,0 1,0\n0,0 0,0 1,0 0,0\n"
                 "0,0 1,0 0,0 0,0\n1,0 0,0 0,0 0,0\nFLIP2 h0 h1\n",
}
MATRICES = {
    "h.mat": (DATA / "h.mat").read_text(),
    "q.mat": (DATA / "q.mat").read_text(),
    "cz.mat": format_matrix_text(builtin("CZ"), 4, 0),
}


def _small(text: str) -> bool:
    try:
        return parse(text).layout.num_bits <= MAX_BITS
    except ParseError:
        return True


def _cases(sources, count):
    for name, text in sources.items():
        for i in range(count):
            got = mutant(text, f"cli:{name}:{i}")
            if _small(got):
                yield pytest.param(got, id=f"{name}:{i}")


@pytest.mark.parametrize("text", list(_cases(CIRCUITS, 50)))
def test_circuit_mutant(tmp_path, capsys, text):
    f = tmp_path / "c.lqc"
    f.write_text(text)
    for argv in (["run", f], ["sample", f, "--shots", "20", "--seed", "1"], ["verify", f]):
        assert main([str(a) for a in argv]) in EXIT_CODES
    capsys.readouterr()


@pytest.mark.parametrize("text", list(_cases(MATRICES, 40)))
def test_matrix_mutant(tmp_path, capsys, text):
    f = str(tmp_path / "m.mat")
    Path(f).write_text(text)
    for argv in (
        ["verify", f],
        ["synth", f, "--qubits", "0", "--hybits", "1", "--exact"],
        ["synth", f, "--qubits", "1", "--hybits", "0", "--approx", "0.1"],
        ["synth", f, "--qubits", "2", "--hybits", "0"],
        ["approx", f, "--kind", "hybit", "--tol", "0.1", "--depth", "4"],
        ["approx", f, "--kind", "qubit", "--tol", "0.1", "--depth", "4"],
    ):
        assert main(argv) in EXIT_CODES
    capsys.readouterr()
