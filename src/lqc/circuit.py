"""Circuit representation, the `.lqc` text format and the matrix text format.

An `Instruction` addresses bits by register position: ints, bit 0 first,
the axis order of the state tensor. `q3` and `h0` exist only in `.lqc`
text, where `parse` and `serialize` translate them: on "qubits 2, hybits 1",
`CTRL q0 : BOOST 0.5 h0` is `Instruction("BOOST", (2,), (0,), 0.5)`.

File grammar (line oriented, `#` comments, keywords case-insensitive,
zero-based bit indices within each kind):

    file      := (decl NEWLINE)* (stmt NEWLINE)*
    decl      := "qubits" INT | "hybits" INT     each at most once, default 0
    stmt      := simple | ctrl | defgate
    simple    := GATENAME param? bitref+
    ctrl      := "CTRL" ctrlref+ ":" simple
    defgate   := "DEFGATE" IDENT INT NEWLINE matrixrows    INT in 1..MAX_DEFGATE_ARITY
    bitref    := ("q"|"h") INT
    ctrlref   := "!"? bitref                    "!" triggers on 0

GATENAME is a DEFGATE name or a builtin of `gates.BUILTIN_ARITY`, the one
gate list the parser and the serializer share; it also gives the target
count of each builtin (CZ takes two, the rest one). A DEFGATE lives in the
instructions that use it, as `Instruction.matrix` (None for a builtin).
`serialize` writes each DEFGATE once, in order of first use, and refuses a
name that carries two matrices; `parse` keeps no DEFGATE no statement uses.

Controls trigger on bit value 1. A control written with a "!" prefix
("CTRL !q0 : Z q1") triggers on 0 instead, on qubits and hybits alike.
Each instruction stores the trigger value of every control (its
`ctrl_state`), and the serializer writes 0-controls back with "!". A
control projector is diagonal, so it commutes with the metric, and the
controlled gate I + P_C (U - I) preserves the metric whenever U does on
its targets, whatever the trigger values.

Every instruction is checked once, where it enters a `Circuit`. Its form
is checked on its own, by `validate_instruction`: it must be one the text
can write back, with a gate matrix of its target count. Its metric is
checked with every other instruction of the circuit in one stacked
`isometry_residual` pass: the gate matrix must preserve the metric of its
target bits (the same DEFGATE may be legal on one bit-kind combination and
illegal on another). The first instruction to fail either check raises, as
if each were checked in full in turn. `parse` checks the form of each
statement as it reads it and the metric of all of them at the end, giving
each failure a diagnostic at its statement's line; it and `concat` return
circuits without a second check.

A matrix file is a header "dim m n", the signature of the block metric
diag(+1 x m, -1 x n), then m + n rows. Its rows and DEFGATE rows alike are
"re,im" entries, read by one reader, `_Lines.read_rows`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EPS_ISO, BitKind, GuardError, IsometryError, LqcError, RegisterLayout, metric_for_kinds,
)
from .gates import BUILTIN_ARITY, PARAMETRIC, builtin, isometry_residual

KEYWORDS = {"QUBITS", "HYBITS", "CTRL", "DEFGATE"}
_BITREF_RE = re.compile(r"^(!?)([qh])(\d+)$", re.IGNORECASE)
_NAME_RE = re.compile(r"^[A-Z_][A-Z0-9_]*$")

TO_MATRIX_GUARD_BITS = 12
# targets of a DEFGATE, in `.lqc` text and in a Circuit alike
MAX_DEFGATE_ARITY = 10


@dataclass(frozen=True)
class Instruction:
    """One gate on register positions (ints, bit 0 first)."""

    gate: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    param: float | None = None
    # resolved matrix for DEFGATE gates; builtins resolve through gates.builtin
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    # trigger value (0 or 1) of each control; left out, every control is 1
    ctrl_state: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        try:
            targets, controls = tuple(self.targets), tuple(self.controls)
            state = (1,) * len(controls) if self.ctrl_state is None else tuple(self.ctrl_state)
            matrix = None if self.matrix is None else np.asarray(self.matrix, dtype=complex)
        except (TypeError, ValueError) as e:
            raise LqcError(f"malformed instruction {self.gate!r}: {e}") from None
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "ctrl_state", state)
        object.__setattr__(self, "matrix", matrix)

    def gate_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return builtin(self.gate, self.param)


@dataclass(frozen=True, eq=False)
class Circuit:
    """A register and its validated instructions, immutable once built:
    the matrix of every DEFGATE instruction is read-only."""

    layout: RegisterLayout
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, self.instructions)
        _validate(self.layout, self.instructions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.layout != other.layout or self.instructions != other.instructions:
            return False
        return all(
            a.matrix is b.matrix or np.array_equal(a.matrix, b.matrix)
            for a, b in zip(self.instructions, other.instructions)
        )

    def concat(self, other: "Circuit", times: int = 1) -> "Circuit":
        """This circuit followed by `times` copies of `other`."""
        if other.layout != self.layout:
            raise LqcError("cannot concatenate circuits over different layouts")
        return _checked(self.layout, self.instructions + other.instructions * times)


def _freeze(circuit: Circuit, instructions) -> None:
    for instr in instructions:
        if instr.matrix is not None:
            instr.matrix.flags.writeable = False
    object.__setattr__(circuit, "instructions", tuple(instructions))


def _checked(layout: RegisterLayout, instructions) -> Circuit:
    """Circuit(...) for instructions already validated on this layout."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "layout", layout)
    _freeze(circuit, instructions)
    return circuit


def _is_gate_name(name: str) -> bool:
    """Whether `parse` reads `name` back as itself: an upper-case identifier
    that is neither a keyword nor shaped like a bit reference."""
    return bool(_NAME_RE.match(name)) and name not in KEYWORDS and not _BITREF_RE.match(name)


def validate_instruction(layout: RegisterLayout, instr: Instruction) -> None:
    """Raise LqcError unless the instruction is well formed on the layout:
    one the text can write back, with a gate matrix of its target count.
    Whether that matrix preserves the metric is `_metric_failures`' check.
    Where both run is in the module docstring."""
    if instr.gate in BUILTIN_ARITY:
        if instr.matrix is not None:
            raise LqcError(f"builtin gate {instr.gate} cannot carry a matrix")
    elif not _is_gate_name(instr.gate):
        raise LqcError(f"gate name {instr.gate!r} does not read back from .lqc text")
    elif instr.param is not None:
        raise LqcError(f"DEFGATE {instr.gate} takes no parameter")
    bits = instr.controls + instr.targets
    for p in bits:
        if type(p) is not int or not 0 <= p < layout.num_bits:
            raise LqcError(f"bit {p!r} out of range: not an int in range({layout.num_bits})")
    if len(set(bits)) != len(bits):
        raise LqcError(f"duplicate bit in instruction {instr.gate}")
    if not instr.targets:
        raise LqcError("instruction needs at least one target")
    if instr.matrix is not None and len(instr.targets) > MAX_DEFGATE_ARITY:
        raise LqcError(
            f"DEFGATE {instr.gate} arity {len(instr.targets)} out of range 1..{MAX_DEFGATE_ARITY}"
        )
    if len(instr.ctrl_state) != len(instr.controls):
        raise LqcError(
            f"instruction {instr.gate} has {len(instr.controls)} control(s) "
            f"but {len(instr.ctrl_state)} trigger value(s)"
        )
    if any(v not in (0, 1) for v in instr.ctrl_state):
        raise LqcError(f"control trigger values must be 0 or 1, got {instr.ctrl_state}")
    mat = instr.gate_matrix()
    arity = len(instr.targets)
    if mat.shape != (1 << arity, 1 << arity):
        raise LqcError(
            f"gate {instr.gate} has dimension {mat.shape[0]}, "
            f"but {arity} target(s) were given"
        )


@functools.lru_cache(maxsize=None)
def _target_metric(kinds: str) -> np.ndarray:
    """`metric_for_kinds`, built once per target-kind string (there are
    fewer than 2^(MAX_DEFGATE_ARITY + 1)) and shared, so read-only."""
    eta = metric_for_kinds(kinds)
    eta.flags.writeable = False
    return eta


def _metric_failures(layout: RegisterLayout, instructions) -> list[tuple[int, str]]:
    """(index, message) of each well-formed instruction whose gate does not
    preserve the metric of its target bits, in order. One stacked
    `isometry_residual` per target count covers the whole list."""
    kind_of = "".join(layout.kinds)
    by_arity: dict[int, list[int]] = {}
    for n, instr in enumerate(instructions):
        by_arity.setdefault(len(instr.targets), []).append(n)
    failures = []
    for members in by_arity.values():
        kinds = ["".join(kind_of[p] for p in instructions[n].targets) for n in members]
        resid = isometry_residual(
            np.array([instructions[n].gate_matrix() for n in members], dtype=complex),
            np.array([_target_metric(k) for k in kinds]),
        )
        for m in (resid > EPS_ISO).nonzero()[0].tolist():
            n = members[m]
            failures.append((n, (
                f"gate {instructions[n].gate} is not metric-preserving on target "
                f"kind(s) {kinds[m]!r} (residual {resid[m]:.3g})"
            )))
    return sorted(failures)


def _validate(layout: RegisterLayout, instructions) -> None:
    """Raise the error of the first instruction that is ill formed or breaks
    the metric, as checking each one in full in turn would."""
    formed, error = len(instructions), None
    for n, instr in enumerate(instructions):
        try:
            validate_instruction(layout, instr)
        except LqcError as exc:
            formed, error = n, exc
            break
    failures = _metric_failures(layout, instructions[:formed])
    if failures:
        raise IsometryError(failures[0][1])
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# Parsing

@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


class ParseError(LqcError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


def _tokens(line: str) -> list[tuple[int, str]]:
    """(column, token) of each token of a line."""
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]


def _is_entry(token: str) -> bool:
    """Whether a token reads as one matrix entry 're,im'."""
    try:
        return len([float(part) for part in token.split(",")]) == 2
    except ValueError:
        return False


def _format_row(row) -> str:
    """One matrix row of 're,im' entries that `_Lines.read_rows` reads back exactly."""
    return " ".join(f"{e.real:.17g},{e.imag:.17g}" for e in row)


class _Lines:
    """Comment-stripped source lines, with token columns for diagnostics."""

    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_line(self) -> tuple[int, str] | None:
        """Next line holding any tokens, as (lineno, comment-stripped line)."""
        while self.pos < len(self.raw):
            line = self.raw[self.pos].split("#", 1)[0]
            self.pos += 1
            if line.strip():
                return self.pos, line
        return None

    def read_rows(self, dim: int, err, missing: tuple[int, int, str]) -> np.ndarray | None:
        """The next `dim` lines as a dim x dim matrix of 're,im' entries, or
        None once `err` has the first fault: `missing` (line, column, message)
        if rows run out, else the row or entry at fault."""
        values: list[float] = []
        for _ in range(dim):
            item = self.next_line()
            if item is None:
                return err(*missing)
            lineno, line = item
            fields = line.split()
            parts = ",".join(fields).split(",")
            # dim fields holding dim commas, none without one: one comma each
            if len(fields) == dim and len(parts) == 2 * dim and all("," in f for f in fields):
                try:
                    values.extend(map(float, parts))
                    continue
                except ValueError:
                    pass
            # a column is worked out only for a diagnostic
            toks = _tokens(line)
            if len(toks) != dim:
                return err(lineno, toks[0][0], f"expected {dim} matrix entries")
            col, tok = next((col, tok) for col, tok in toks if not _is_entry(tok))
            return err(lineno, col, f"matrix entry {tok!r} is not 're,im'")
        return np.array(values).view(complex).reshape(dim, dim)

    def skip_matrix_rows(self) -> None:
        """Move past the next lines whose tokens all read as `re,im` matrix
        entries: rows of a refused DEFGATE, which no statement can be."""
        raw = self.raw
        while self.pos < len(raw) and all(map(_is_entry, raw[self.pos].split("#", 1)[0].split())):
            self.pos += 1


def parse(text: str) -> Circuit:
    """Parse `.lqc` source. Collects as many diagnostics as possible
    (recovering at line granularity) before raising ParseError."""
    lines = _Lines(text)
    errors: list[Diagnostic] = []
    decls: dict[str, int] = {}
    decls_done = False
    defs: dict[str, tuple[int, np.ndarray]] = {}
    instructions: list[Instruction] = []
    # (line, column, diagnostics before it) of each statement in `instructions`
    statements: list[tuple[int, int, int]] = []
    layout: RegisterLayout | None = None

    def err(line: int, col: int, message: str) -> None:
        errors.append(Diagnostic(line, col, message))

    def get_layout() -> RegisterLayout:
        nonlocal layout, decls_done
        if layout is None:
            decls_done = True
            layout = RegisterLayout.of(decls.get("QUBITS", 0), decls.get("HYBITS", 0))
        return layout

    def parse_bitref(lineno: int, col: int, tok: str, allow_bang: bool):
        m = _BITREF_RE.match(tok)
        if not m:
            err(lineno, col, f"expected bit reference, got {tok!r}")
            return None
        bang, kind, idx = m.group(1), m.group(2).lower(), int(m.group(3))
        if bang and not allow_bang:
            err(lineno, col, "'!' polarity is only allowed on controls")
            return None
        places = get_layout().positions(BitKind(kind))
        if idx >= len(places):
            err(lineno, col, f"bit {kind}{idx} out of range for declared register")
            return None
        return (places[idx], 0 if bang else 1)

    def parse_simple(lineno: int, toks: list[tuple[int, str]], controls, ctrl_state):
        col0, name_tok = toks[0]
        name = name_tok.upper()
        if name in BUILTIN_ARITY:
            matrix, arity = None, BUILTIN_ARITY[name]
        elif name in defs:
            arity, matrix = defs[name]
        else:
            err(lineno, col0, f"unknown gate {name_tok!r}")
            return
        rest = toks[1:]
        param = None
        if name in PARAMETRIC:
            if not rest:
                err(lineno, col0, f"gate {name} requires a parameter")
                return
            pcol, ptok = rest[0]
            try:
                param = float(ptok)
            except ValueError:
                err(lineno, pcol, f"bad parameter {ptok!r}")
                return
            if not math.isfinite(param):
                err(lineno, pcol, f"parameter {ptok!r} is not finite")
                return
            rest = rest[1:]
        if len(rest) != arity:
            where = rest[0][0] if rest else (toks[-1][0] + len(toks[-1][1]))
            err(lineno, where, f"gate {name} expects {arity} target(s), got {len(rest)}")
            return
        targets = []
        for col, tok in rest:
            got = parse_bitref(lineno, col, tok, allow_bang=False)
            if got is None:
                return
            targets.append(got[0])
        instr = Instruction(
            gate=name, targets=tuple(targets), controls=tuple(controls),
            param=param, matrix=matrix, ctrl_state=tuple(ctrl_state),
        )
        try:
            validate_instruction(get_layout(), instr)
        except LqcError as exc:
            err(lineno, col0, str(exc))
            return
        instructions.append(instr)
        statements.append((lineno, col0, len(errors)))

    def parse_defgate(lineno: int, toks: list[tuple[int, str]]) -> bool:
        """Read one DEFGATE block into `defs`; False when it is refused."""
        if len(toks) != 3:
            err(lineno, toks[0][0], "expected: DEFGATE NAME ARITY")
            return False
        (_, _), (ncol, name_tok), (acol, arity_tok) = toks
        name = name_tok.upper()
        # upper() maps a few non-ASCII letters to ASCII ones
        if not name_tok.isascii() or not _is_gate_name(name) or name in BUILTIN_ARITY:
            err(lineno, ncol, f"invalid gate name {name_tok!r}")
            return False
        if name in defs:
            err(lineno, ncol, f"gate {name} already defined")
            return False
        try:
            arity = int(arity_tok)
        except ValueError:
            err(lineno, acol, f"bad arity {arity_tok!r}")
            return False
        if not 1 <= arity <= MAX_DEFGATE_ARITY:
            err(lineno, acol, f"arity {arity} out of range 1..{MAX_DEFGATE_ARITY}")
            return False
        dim = 1 << arity
        missing = f"DEFGATE {name}: expected {dim} matrix rows"
        matrix = lines.read_rows(dim, err, (lineno, ncol, missing))
        if matrix is None:
            return False
        defs[name] = (arity, matrix)
        return True

    while (item := lines.next_line()) is not None:
        lineno, toks = item[0], _tokens(item[1])
        col0, head = toks[0]
        keyword = head.upper()

        if keyword in ("QUBITS", "HYBITS"):
            if decls_done:
                err(lineno, col0, f"{keyword.lower()} declaration must precede statements")
                continue
            if keyword in decls:
                err(lineno, col0, f"duplicate {keyword.lower()} declaration")
                continue
            if len(toks) != 2:
                err(lineno, col0, f"expected: {keyword.lower()} INT")
                continue
            ccol, count_tok = toks[1]
            try:
                count = int(count_tok)
            except ValueError:
                err(lineno, ccol, f"bad count {count_tok!r}")
                continue
            if count < 0:
                err(lineno, ccol, "count must be nonnegative")
                continue
            decls[keyword] = count
            continue

        get_layout()
        if keyword == "DEFGATE":
            if not parse_defgate(lineno, toks):
                lines.skip_matrix_rows()
        elif keyword == "CTRL":
            # controls up to the ':' token, simple statement after it
            split = next((i for i, (_, tok) in enumerate(toks) if tok == ":"), None)
            if split is None:
                err(lineno, col0, "CTRL statement needs a ':' before the gate")
                continue
            if split == 1:
                err(lineno, col0, "CTRL needs at least one control bit")
                continue
            controls, ctrl_state, bad = [], [], False
            for col, tok in toks[1:split]:
                got = parse_bitref(lineno, col, tok, allow_bang=True)
                if got is None:
                    bad = True
                    continue
                controls.append(got[0])
                ctrl_state.append(got[1])
            if bad:
                continue
            if split + 1 >= len(toks):
                err(lineno, toks[split][0], "missing gate after ':'")
                continue
            parse_simple(lineno, toks[split + 1:], controls, ctrl_state)
        else:
            parse_simple(lineno, toks, [], [])

    # a metric failure goes where its statement's diagnostic would have
    # gone had each statement been checked in full as it was read
    for n, message in reversed(_metric_failures(get_layout(), instructions)):
        lineno, col, before = statements[n]
        errors.insert(before, Diagnostic(lineno, col, message))
    if errors:
        raise ParseError(errors)
    # every instruction is now checked; a DEFGATE no statement uses is not kept
    return _checked(get_layout(), instructions)


def parse_matrix_text(text: str) -> tuple[np.ndarray, tuple[int, int]]:
    """Parse the matrix text format: the matrix and its signature (m, n).
    Raises ParseError with the line and column of the first fault."""
    lines = _Lines(text)

    def fail(line: int, col: int, message: str):
        raise ParseError([Diagnostic(line, col, message)])

    item = lines.next_line()
    if item is None:
        fail(1, 1, "empty matrix file")
    lineno, toks = item[0], _tokens(item[1])
    if len(toks) != 3 or toks[0][1].lower() != "dim":
        fail(lineno, toks[0][0], "expected header 'dim m n'")
    try:
        m, n = int(toks[1][1]), int(toks[2][1])
    except ValueError:
        fail(lineno, toks[1][0], "metric counts must be integers")
    if m < 0 or n < 0 or m + n < 1:
        fail(lineno, toks[1][0], f"bad metric signature ({m}, {n})")
    dim = m + n
    matrix = lines.read_rows(dim, fail, (lineno, toks[0][0], f"expected {dim} matrix rows"))
    extra = lines.next_line()
    if extra is not None:
        fail(extra[0], _tokens(extra[1])[0][0], f"more than {dim} matrix rows")
    return matrix, (m, n)


# ---------------------------------------------------------------------------
# Serialization

def serialize(circuit: Circuit) -> str:
    """`.lqc` text of a circuit. The format declares only bit counts, so it
    holds registers with every qubit before every hybit; any other register
    raises LqcError, since `parse` would read the text back on another.
    Position p is written q{p} below the qubit count nq, h{p - nq} above.
    Each DEFGATE is written once, in order of first use, before the
    statements; a name that carries two matrices raises LqcError, since its
    text could define only one of them."""
    out = []
    nq, nh = circuit.layout.num_qubits, circuit.layout.num_hybits
    if circuit.layout != RegisterLayout.of(nq, nh):
        kinds = "".join(circuit.layout.kinds)
        raise LqcError(f"cannot serialize register {kinds}: the format puts all qubits first")

    def bit(p: int) -> str:
        return f"q{p}" if p < nq else f"h{p - nq}"

    first_use: dict[str, Instruction] = {}
    for instr in circuit.instructions:
        if instr.matrix is not None:
            first = first_use.setdefault(instr.gate, instr)
            if first.matrix is not instr.matrix and not np.array_equal(first.matrix, instr.matrix):
                raise LqcError(f"cannot serialize gate {instr.gate}: it carries two matrices")
    if nq:
        out.append(f"qubits {nq}")
    if nh:
        out.append(f"hybits {nh}")
    for name, first in first_use.items():
        out.append(f"DEFGATE {name} {len(first.targets)}")
        out.extend(_format_row(row) for row in first.matrix)
    for instr in circuit.instructions:
        head = instr.gate
        if instr.param is not None:
            head += f" {instr.param:.17g}"
        tail = " ".join(bit(t) for t in instr.targets)
        if instr.controls:
            ctl = " ".join(
                f"{'' if v else '!'}{bit(c)}" for c, v in zip(instr.controls, instr.ctrl_state)
            )
            out.append(f"CTRL {ctl} : {head} {tail}")
        else:
            out.append(f"{head} {tail}")
    return "\n".join(out) + "\n" if out else ""


def format_matrix_text(matrix: np.ndarray, m: int, n: int) -> str:
    """Matrix text of a matrix with signature (m, n), which
    `parse_matrix_text` reads back exactly."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (m + n, m + n):
        raise LqcError(f"matrix shape {matrix.shape} does not match dim {m + n}")
    return "\n".join([f"dim {m} {n}"] + [_format_row(row) for row in matrix]) + "\n"


# ---------------------------------------------------------------------------
# Dense elaboration

def to_matrix(circuit: Circuit) -> np.ndarray:
    """Full-register matrix: ordered product with the first instruction
    applied first (rightmost factor). Guarded to small registers."""
    nbits = circuit.layout.num_bits
    if nbits > TO_MATRIX_GUARD_BITS:
        raise GuardError(
            f"register of {nbits} bits exceeds the 2^{TO_MATRIX_GUARD_BITS} "
            "dense-elaboration guard"
        )
    from .simulator import apply_all  # deferred: simulator imports this module

    dim = circuit.layout.dimension
    mat = np.eye(dim, dtype=complex)
    # columns are a batch of basis states; one kernel pass per instruction
    apply_all(circuit.layout, mat.reshape([2] * nbits + [dim]), circuit.instructions)
    return mat
