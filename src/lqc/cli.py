"""Command line front end: run, sample, verify, synth, search, approx."""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, ParseError, parse, parse_matrix_text, serialize, to_matrix
from .core import (
    EPS_ISO,
    GuardError,
    IsometryError,
    LqcError,
    RegisterLayout,
    basis_state,
    metric_vector,
)
from .gates import block_metric, isometry_residual
from .search import (
    SearchSpec,
    choose_k,
    predicted_success,
    run_search,
)
from .simulator import (
    ZeroObservableMassError,
    format_counts,
    format_distribution,
    observe,
    run,
    sample,
)
from .synthesis import compile as synth_compile
from .synthesis import format_report, word_search

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_MASS = 2
EXIT_ISOMETRY = 3
EXIT_GUARD = 4

MAX_AMPLITUDES = 2**24


@dataclass
class RunReport:
    """Per-invocation accounting, printed on stderr so stdout stays a clean
    machine-readable distribution. `wall_time_s` covers run and observe,
    `format_s` the one `format_distribution` call that makes the text form
    of the distribution and writes it to stdout block by block."""

    circuit_path: str
    instruction_count: int
    wall_time_s: float
    format_s: float
    observable_mass: float

    def format(self) -> str:
        return (
            f"circuit = {self.circuit_path}\n"
            f"instructions = {self.instruction_count}\n"
            f"wall_time_s = {self.wall_time_s:.17g}\n"
            f"format_s = {self.format_s:.17g}\n"
            f"observable_mass = {self.observable_mass:.17g}\n"
        )


class CliUsageError(LqcError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with status 2, which this tool
    # reserves for zero observable mass
    def error(self, message: str):
        raise CliUsageError(message)


def _read(path: str) -> str:
    return Path(path).read_text()


def _check_memory(num_bits: int) -> None:
    """Refuse a register of `num_bits` bits past the amplitude guard; called
    with the bit count before a layout of that size is built."""
    if num_bits > MAX_AMPLITUDES.bit_length() - 1:
        raise GuardError(
            f"register of {num_bits} bits needs 2^{num_bits} amplitudes; the guard is 2^24"
        )


def _parse_bits(text: str, want: int) -> list[int]:
    if len(text) != want or set(text) - {"0", "1"}:
        raise CliUsageError(
            f"initial bitstring must be {want} characters of 0/1, got {text!r}"
        )
    return [int(b) for b in text]


def _parse_circuit(text: str) -> Circuit:
    circuit = parse(text)
    _check_memory(circuit.layout.num_bits)
    return circuit


def cmd_run(args: argparse.Namespace) -> int:
    circuit = _parse_circuit(_read(args.file))
    initial = None
    if args.init is not None:
        initial = basis_state(
            circuit.layout, _parse_bits(args.init, circuit.layout.num_bits)
        )
    t0 = time.perf_counter()
    dist = observe(run(circuit, initial))
    t1 = time.perf_counter()
    format_distribution(dist, sys.stdout)
    t2 = time.perf_counter()
    report = RunReport(
        args.file, len(circuit.instructions), t1 - t0, t2 - t1, dist.observable_mass
    )
    sys.stderr.write(report.format())
    return EXIT_NO_MASS if dist.observable_mass == 0.0 else EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    # the draws are held in memory at once, like the amplitudes
    if args.shots > MAX_AMPLITUDES:
        raise GuardError(f"{args.shots} shots are past the guard of 2^24")
    circuit = _parse_circuit(_read(args.file))
    # nothing holds the state once observe returns: the draws need only
    # the probabilities
    format_counts(sample(observe(run(circuit)), args.shots, args.seed), sys.stdout)
    return EXIT_OK


def _looks_like_matrix(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return line.split()[0].lower() == "dim"
    return False


def cmd_verify(args: argparse.Namespace) -> int:
    text = _read(args.file)
    if _looks_like_matrix(text):
        G, (m, n) = parse_matrix_text(text)
        eta = block_metric(m, n)
    else:
        circuit = _parse_circuit(text)
        G = to_matrix(circuit)
        eta = metric_vector(circuit.layout).astype(float)
    residual = isometry_residual(G, eta)
    ok = residual <= EPS_ISO
    sys.stdout.write(f"residual = {residual:.17g}\n")
    sys.stdout.write("PASS\n" if ok else "FAIL\n")
    return EXIT_OK if ok else EXIT_ISOMETRY


def _read_matrix(path: str, qubits: int, hybits: int) -> tuple[np.ndarray, RegisterLayout]:
    """The matrix of a matrix file and the register of `qubits` then
    `hybits` whose metric it is read under. Refuses an empty register, one
    past the amplitude guard, and a header whose (m, n) differs from the
    register's sign counts, so the matrix has the register's dimension."""
    A, (m, n) = parse_matrix_text(_read(path))
    if qubits < 0 or hybits < 0 or qubits + hybits == 0:
        raise CliUsageError("need a register with at least one bit")
    _check_memory(qubits + hybits)
    layout = RegisterLayout("q" * qubits + "h" * hybits)
    signs = metric_vector(layout)
    plus, minus = int(np.sum(signs > 0)), int(np.sum(signs < 0))
    if (m, n) != (plus, minus):
        raise CliUsageError(
            f"matrix signature ({m},{n}) does not match the "
            f"{qubits}-qubit {hybits}-hybit register ({plus},{minus})"
        )
    return A, layout


def cmd_synth(args: argparse.Namespace) -> int:
    A, layout = _read_matrix(args.file, args.qubits, args.hybits)
    tol = args.approx
    result = synth_compile(A, layout, tol=tol)
    sys.stdout.write(serialize(result.circuit))
    sys.stderr.write(format_report(result))
    # compile's own error; up to a global phase in approx mode
    sys.stderr.write(f"reconstruction_error = {result.total_error:.17g}\n")
    if tol is not None:
        sys.stderr.write(f"budget_met = {'true' if result.budget_met else 'false'}\n")
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise GuardError("search register must have at least 1 qubit")
    # the n search qubits, the oracle qubit and the hybit of search_layout
    _check_memory(args.n + 2)
    N = 2**args.n
    if args.k is not None:
        k = args.k
    else:
        k = choose_k(N, args.chi, args.pmin)
    spec = SearchSpec(args.n, args.x, args.chi, k)
    predicted = predicted_success(N, args.chi, k)
    dist = run_search(spec)
    simulated = float(dist.probs[int(args.x, 2)])
    sys.stdout.write(f"k = {k}\n")
    sys.stdout.write(f"predicted_success = {predicted:.17g}\n")
    sys.stdout.write(f"simulated = {simulated:.17g}\n")
    sys.stdout.write(f"difference = {simulated - predicted:.17g}\n")
    return EXIT_OK


def cmd_approx(args: argparse.Namespace) -> int:
    M, layout = _read_matrix(args.file, *((1, 0) if args.kind == "qubit" else (0, 1)))
    word = word_search(M, layout.kinds[0], args.tol, args.depth)
    sys.stdout.write(f"word = {word}\n")
    sys.stdout.write(f"projective_error = {word.error:.17g}\n")
    sys.stdout.write(f"tol_met = {'true' if word.tol_met else 'false'}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on the first call and shared after it."""
    parser = _Parser(prog="lqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a circuit and print the distribution")
    p.add_argument("file")
    p.add_argument("--init", metavar="BITS", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sample", help="draw measurement shots")
    p.add_argument("file")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="check a matrix or circuit preserves the metric")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="compile a matrix into a circuit")
    p.add_argument("file")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--hybits", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--approx", type=float, metavar="TOL", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("search", help="amplified database search demo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, metavar="BITS")
    p.add_argument("--chi", type=float, default=0.5)
    rounds = p.add_mutually_exclusive_group()
    rounds.add_argument("--k", type=int, default=None)
    rounds.add_argument("--pmin", type=float, default=0.99)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("approx", help="single-bit generator-word approximation")
    p.add_argument("file")
    p.add_argument("--kind", choices=("qubit", "hybit"), required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_approx)

    return parser


# exit code of each error type; the first type that matches wins
EXIT_CODES = (
    (ZeroObservableMassError, EXIT_NO_MASS),
    (IsometryError, EXIT_ISOMETRY),
    (GuardError, EXIT_GUARD),
    ((LqcError, OSError), EXIT_PARSE),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (LqcError, OSError) as e:
        # a parse error carries one diagnostic per line of input at fault
        for d in e.diagnostics if isinstance(e, ParseError) else [e]:
            sys.stderr.write(f"error: {d}\n")
        return next(code for kind, code in EXIT_CODES if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
