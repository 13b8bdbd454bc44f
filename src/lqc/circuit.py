"""Circuit representation, the `.lqc` text format and the matrix text format.

An `Instruction` addresses bits by register position: ints, bit 0 first,
the axis order of the state tensor. `q3` and `h0` exist only in `.lqc`
text, where `parse` and `serialize` translate them: on "qubits 2, hybits 1",
`CTRL q0 : BOOST 0.5 h0` is `Instruction("BOOST", (2,), (0,), 0.5)`.

File grammar (line oriented, `#` comments, keywords case-insensitive,
zero-based bit indices within each kind):

    file      := (decl NEWLINE)* (stmt NEWLINE)*
    decl      := "qubits" INT | "hybits" INT     each at most once, default 0;
                                                 together at most MAX_REGISTER_BITS
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

Every instruction is checked once on its way into a `Circuit`: its form
where it is built, its metric in one pass over the list, `_failures`. The
form is that of an instruction the text can write back, with a gate matrix
of its target count. The `Circuit` constructor checks it by
`validate_instruction`. `parse` checks it by its grammar, to which it adds
only the duplicate-bit rule, as a fault of the text at the gate token;
`named_circuit` builds well-formed records but for a target among the
controls, which it refuses, and makes its circuit by `formed_circuit`,
which checks the metric alone. The metric of the well-formed
instructions is checked in one stacked `isometry_residual` per target
count: the gate matrix must preserve the metric of its target bits (the
same DEFGATE may be legal on one bit-kind combination and illegal on
another). The pass lists each failure by index, and `Circuit` raises the
first, as if each instruction were checked in full in turn; `parse`
reports each at its statement's gate token, in order of line with the
faults of the text. `concat` returns circuits without a second check. An
`Instruction` whose fields are already final (tuples, and a read-only
complex matrix or none) keeps them as they are.

A fault of the text is raised where it is found, as a private exception
holding its token index and message. `parse`'s statement loop and
`parse_matrix_text` catch it, and only there is a column worked out.
`parse` goes on at the next line; `parse_matrix_text` stops at the fault.

A matrix file is a header "dim m n", the signature of the block metric
diag(+1 x m, -1 x n), then m + n rows. Its rows and DEFGATE rows alike are
"re,im" entries, read by one reader, `_Lines.read_rows`.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EPS_ISO, MAX_REGISTER_BITS, BitKind, GuardError, IsometryError, LqcError, RegisterLayout,
    metric_for_kinds,
)
from .gates import BUILTIN_ARITY, PARAMETRIC, builtin, isometry_residual
from .simulator import apply_all

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
    # resolved matrix for DEFGATE gates, read-only once the instruction is
    # built; builtins resolve through gates.builtin
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    # trigger value (0 or 1) of each control; left out, every control is 1
    ctrl_state: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.gate, str):
            raise LqcError(f"malformed instruction: gate name {self.gate!r} is not a str")
        if self.param is not None and not isinstance(self.param, numbers.Real):
            raise LqcError(f"malformed instruction {self.gate!r}: "
                           f"parameter {self.param!r} is not a real number")
        matrix = self.matrix
        if type(self.targets) is type(self.controls) is type(self.ctrl_state) is tuple and (
            matrix is None
            or type(matrix) is np.ndarray and matrix.dtype == complex and not matrix.flags.writeable
        ):
            return  # every field is already final
        try:
            targets, controls = tuple(self.targets), tuple(self.controls)
            state = (1,) * len(controls) if self.ctrl_state is None else tuple(self.ctrl_state)
            matrix = None if self.matrix is None else np.asarray(self.matrix, dtype=complex)
        except (TypeError, ValueError) as e:
            raise LqcError(f"malformed instruction {self.gate!r}: {e}") from None
        if matrix is not None:
            matrix.flags.writeable = False
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
        object.__setattr__(self, "instructions", tuple(self.instructions))
        failures = _failures(self.layout, self.instructions)
        if failures:
            raise failures[0][1]

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
        if not isinstance(times, numbers.Integral) or times < 0:
            raise LqcError(f"concat needs a nonnegative integer count, got {times!r}")
        return _checked(self.layout, self.instructions + other.instructions * times)


def _checked(layout: RegisterLayout, instructions) -> Circuit:
    """Circuit(...) for instructions already validated on this layout."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "layout", layout)
    object.__setattr__(circuit, "instructions", tuple(instructions))
    return circuit


def formed_circuit(layout: RegisterLayout, instructions) -> Circuit:
    """Circuit(...) for instructions whose builder checked their form, as
    `named_circuit` does: only their metric is checked, and the first
    failure raised."""
    failures = _failures(layout, instructions, formed=True)
    if failures:
        raise failures[0][1]
    return _checked(layout, instructions)


def _is_gate_name(name: str) -> bool:
    """Whether `parse` reads `name` back as itself: an upper-case identifier
    that is neither a keyword nor shaped like a bit reference."""
    return bool(_NAME_RE.match(name)) and name not in KEYWORDS and not _BITREF_RE.match(name)


def validate_instruction(layout: RegisterLayout, instr: Instruction) -> None:
    """Raise LqcError unless the instruction is well formed on the layout:
    one the text can write back, with a gate matrix of its target count.
    Whether that matrix preserves the metric is `_failures`' check.
    Where both run is in the module docstring."""
    if instr.gate in BUILTIN_ARITY:
        if instr.matrix is not None:
            raise LqcError(f"builtin gate {instr.gate} cannot carry a matrix")
    elif not _is_gate_name(instr.gate):
        raise LqcError(f"gate name {instr.gate!r} does not read back from .lqc text")
    elif instr.param is not None:
        raise LqcError(f"DEFGATE {instr.gate} takes no parameter")
    bits = instr.controls + instr.targets
    num_bits = layout.num_bits
    for p in bits:
        if type(p) is not int or not 0 <= p < num_bits:
            raise LqcError(f"bit {p!r} out of range: not an int in range({num_bits})")
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


def _failures(layout: RegisterLayout, instructions,
              formed: bool = False) -> list[tuple[int, LqcError]]:
    """(index, error) of each instruction that fails its check, in index
    order: the form error of an ill-formed one, the metric error of a
    well-formed one whose gate does not preserve the metric of its target
    bits. One stacked `isometry_residual` per target count covers the
    metric of every well-formed instruction. `formed` instructions had
    their form checked where they were built, and only their metric is."""
    kind_of = "".join(layout.kinds)
    failures: list[tuple[int, LqcError]] = []
    by_arity: dict[int, list[int]] = {}
    for n, instr in enumerate(instructions):
        if not formed:
            try:
                validate_instruction(layout, instr)
            except LqcError as exc:
                failures.append((n, exc))
                continue
        by_arity.setdefault(len(instr.targets), []).append(n)
    for members in by_arity.values():
        kinds = ["".join(kind_of[p] for p in instructions[n].targets) for n in members]
        resid = isometry_residual(
            np.array([instructions[n].gate_matrix() for n in members], dtype=complex),
            np.array([_target_metric(k) for k in kinds]),
        )
        for m in (resid > EPS_ISO).nonzero()[0].tolist():
            n = members[m]
            failures.append((n, IsometryError(
                f"gate {instructions[n].gate} is not metric-preserving on target "
                f"kind(s) {kinds[m]!r} (residual {resid[m]:.3g})"
            )))
    return sorted(failures, key=lambda failure: failure[0])


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


class RegisterBoundError(ParseError, GuardError):
    """A declared register past MAX_REGISTER_BITS: a parse diagnostic that
    is a resource guard, like the CLI's refusal of a register too large to
    simulate."""


class _Fault(Exception):
    """Raised at a fault of the text: its (token index, message), a missing
    token's index being the token count, and its line as (number, text)
    when that is not the statement's. A CTRL line's bad controls share one."""

    def __init__(self, index: int, message: str, line: tuple[int, str] | None = None):
        self.faults = [(index, message)]
        self.line = line


def _placed(lineno: int, line: str, faults: list[tuple[int, str]]) -> list[Diagnostic]:
    """Diagnostics of (token index, message) faults on one line, the token
    count's column just past the last token."""
    starts, end = [], 0
    for tok in line.split():
        # only whitespace lies between `end` and the token, none inside it
        start = line.index(tok, end)
        end = start + len(tok)
        starts.append(start + 1)
    starts.append(end + 1)
    return [Diagnostic(lineno, starts[index], message) for index, message in faults]


def _is_entry(token: str) -> bool:
    """Whether a token reads as one matrix entry 're,im'."""
    try:
        return len([float(part) for part in token.split(",")]) == 2
    except ValueError:
        return False


def _format_rows(matrix: np.ndarray) -> str:
    """The rows of a matrix as lines of 're,im' entries that `_Lines.read_rows`
    reads back exactly, by one %-format of the whole block."""
    rows, cols = matrix.shape
    line = " ".join(["%.17g,%.17g"] * cols)
    return "\n".join([line] * rows) % tuple(matrix.ravel().view(float).tolist())


class _Lines:
    """Comment-stripped source lines."""

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

    def read_rows(self, dim: int, missing: _Fault) -> np.ndarray:
        """The next `dim` lines as a dim x dim matrix of 're,im' entries;
        raises `missing` if rows run out, else the row or entry at fault."""
        values: list[float] = []
        for _ in range(dim):
            item = self.next_line()
            if item is None:
                raise missing
            fields = item[1].split()
            parts = ",".join(fields).split(",")
            # dim fields holding dim commas, none without one: one comma each
            if len(fields) == dim and len(parts) == 2 * dim and all("," in f for f in fields):
                try:
                    values.extend(map(float, parts))
                    continue
                except ValueError:
                    pass
            if len(fields) != dim:
                raise _Fault(0, f"expected {dim} matrix entries", item)
            i = next(i for i, tok in enumerate(fields) if not _is_entry(tok))
            raise _Fault(i, f"matrix entry {fields[i]!r} is not 're,im'", item)
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
    defs: dict[str, tuple[int, np.ndarray]] = {}
    instructions: list[Instruction] = []
    # (line number, line, gate token index) of each statement in `instructions`
    statements: list[tuple[int, str, int]] = []
    layout: RegisterLayout | None = None

    def get_layout() -> RegisterLayout:
        nonlocal layout
        if layout is None:
            layout = RegisterLayout.of(decls.get("QUBITS", 0), decls.get("HYBITS", 0))
        return layout

    # (bang, position or None when out of range, bit name) of each bit
    # reference token read so far; the layout is fixed once statements begin
    bitrefs: dict[str, tuple[str, int | None, str]] = {}

    def parse_bitref(toks: list[str], i: int, allow_bang: bool) -> tuple[int, int]:
        """(position, trigger value) of the bit reference toks[i]."""
        tok = toks[i]
        ref = bitrefs.get(tok)
        if ref is None:
            m = _BITREF_RE.match(tok)
            if not m:
                raise _Fault(i, f"expected bit reference, got {tok!r}")
            bang, kind, idx = m.group(1), m.group(2).lower(), int(m.group(3))
            places = get_layout().positions(BitKind(kind))
            ref = bitrefs[tok] = (bang, places[idx] if idx < len(places) else None, f"{kind}{idx}")
        bang, place, name = ref
        if bang and not allow_bang:
            raise _Fault(i, "'!' polarity is only allowed on controls")
        if place is None:
            raise _Fault(i, f"bit {name} out of range for declared register")
        return place, 0 if bang else 1

    def parse_simple(toks: list[str], at: int, controls: list[tuple[int, int]]) -> Instruction:
        """The statement whose gate name is toks[at], on `controls` as
        (position, trigger value) pairs."""
        name = toks[at].upper()
        if name in BUILTIN_ARITY:
            matrix, arity = None, BUILTIN_ARITY[name]
        elif name in defs:
            arity, matrix = defs[name]
        else:
            raise _Fault(at, f"unknown gate {toks[at]!r}")
        first = at + 1  # the first target's index
        param = None
        if name in PARAMETRIC:
            if first == len(toks):
                raise _Fault(at, f"gate {name} requires a parameter")
            try:
                param = float(toks[first])
            except ValueError:
                raise _Fault(first, f"bad parameter {toks[first]!r}")
            if not math.isfinite(param):
                raise _Fault(first, f"parameter {toks[first]!r} is not finite")
            first += 1
        if len(toks) - first != arity:
            raise _Fault(first, f"gate {name} expects {arity} target(s), got {len(toks) - first}")
        targets = tuple(parse_bitref(toks, i, allow_bang=False)[0] for i in range(first, len(toks)))
        positions = tuple(c for c, _ in controls)
        # the one rule of `validate_instruction` the grammar leaves open
        if len(set(positions + targets)) != len(positions) + len(targets):
            raise _Fault(at, f"duplicate bit in instruction {name}")
        return Instruction(
            gate=name, targets=targets, controls=positions,
            param=param, matrix=matrix, ctrl_state=tuple(v for _, v in controls),
        )

    while (item := lines.next_line()) is not None:
        lineno, line = item
        toks = line.split()
        keyword = toks[0].upper()
        try:
            if keyword in ("QUBITS", "HYBITS"):
                decl = keyword.lower()
                if layout is not None:
                    raise _Fault(0, f"{decl} declaration must precede statements")
                if keyword in decls:
                    raise _Fault(0, f"duplicate {decl} declaration")
                if len(toks) != 2:
                    raise _Fault(0, f"expected: {decl} INT")
                try:
                    count = int(toks[1])
                except ValueError:
                    raise _Fault(1, f"bad count {toks[1]!r}")
                if count < 0:
                    raise _Fault(1, "count must be nonnegative")
                decls[keyword] = count
                if (total := sum(decls.values())) > MAX_REGISTER_BITS:
                    raise _Fault(1, f"register of {total} bits exceeds the bound of {MAX_REGISTER_BITS}")
                continue
            get_layout()
            if keyword == "DEFGATE":
                if len(toks) != 3:
                    raise _Fault(0, "expected: DEFGATE NAME ARITY")
                name = toks[1].upper()
                # upper() maps a few non-ASCII letters to ASCII ones
                if not toks[1].isascii() or not _is_gate_name(name) or name in BUILTIN_ARITY:
                    raise _Fault(1, f"invalid gate name {toks[1]!r}")
                if name in defs:
                    raise _Fault(1, f"gate {name} already defined")
                try:
                    arity = int(toks[2])
                except ValueError:
                    raise _Fault(2, f"bad arity {toks[2]!r}")
                if not 1 <= arity <= MAX_DEFGATE_ARITY:
                    raise _Fault(2, f"arity {arity} out of range 1..{MAX_DEFGATE_ARITY}")
                dim = 1 << arity
                missing = _Fault(1, f"DEFGATE {name}: expected {dim} matrix rows")
                defs[name] = (arity, lines.read_rows(dim, missing))
                continue
            at, controls = 0, []
            if keyword == "CTRL":
                # controls up to the ':' token, simple statement after it
                if ":" not in toks:
                    raise _Fault(0, "CTRL statement needs a ':' before the gate")
                at = toks.index(":") + 1
                if at == 2:
                    raise _Fault(0, "CTRL needs at least one control bit")
                bad = []
                for i in range(1, at - 1):
                    try:
                        controls.append(parse_bitref(toks, i, allow_bang=True))
                    except _Fault as fault:
                        bad.append(fault)
                if bad:
                    # every control is read, and each bad one reported
                    bad[0].faults = [f for fault in bad for f in fault.faults]
                    raise bad[0]
                if at == len(toks):
                    raise _Fault(at - 1, "missing gate after ':'")
            instructions.append(parse_simple(toks, at, controls))
            statements.append((lineno, line, at))
        except _Fault as fault:
            errors += _placed(*(fault.line or item), fault.faults)
            if sum(decls.values()) > MAX_REGISTER_BITS:
                # before any layout is built; no later line can name a bit of it
                raise RegisterBoundError(sorted(errors, key=lambda d: d.line)) from None
            if keyword == "DEFGATE":
                lines.skip_matrix_rows()

    for n, exc in _failures(get_layout(), instructions, formed=True):
        lineno, line, at = statements[n]
        errors += _placed(lineno, line, [(at, str(exc))])
    if errors:
        # stable: the faults of one line keep the order they were found in
        raise ParseError(sorted(errors, key=lambda d: d.line))
    # every instruction is now checked; a DEFGATE no statement uses is not kept
    return _checked(get_layout(), instructions)


def parse_matrix_text(text: str) -> tuple[np.ndarray, tuple[int, int]]:
    """Parse the matrix text format: the matrix and its signature (m, n).
    Raises ParseError with the line and column of the first fault."""
    lines = _Lines(text)
    item = lines.next_line() or (1, "")
    toks = item[1].split()
    try:
        if not toks:
            raise _Fault(0, "empty matrix file")
        if len(toks) != 3 or toks[0].lower() != "dim":
            raise _Fault(0, "expected header 'dim m n'")
        counts = []
        for at in (1, 2):
            try:
                counts.append(int(toks[at]))
            except ValueError:
                raise _Fault(at, "metric counts must be integers")
        m, n = counts
        if m < 0 or n < 0 or m + n < 1:
            # at the first negative count; at m when both are zero
            raise _Fault(2 if n < 0 <= m else 1, f"bad metric signature ({m}, {n})")
        dim = m + n
        matrix = lines.read_rows(dim, _Fault(0, f"expected {dim} matrix rows"))
        extra = lines.next_line()
        if extra is not None:
            raise _Fault(0, f"more than {dim} matrix rows", extra)
    except _Fault as fault:
        raise ParseError(_placed(*(fault.line or item), fault.faults)) from None
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
        out.append(f"DEFGATE {name} {len(first.targets)}\n{_format_rows(first.matrix)}")
    names = [f"q{p}" for p in range(nq)] + [f"h{p}" for p in range(nh)]
    for instr in circuit.instructions:
        head = instr.gate
        if instr.param is not None:
            head += f" {instr.param:.17g}"
        tail = " ".join([names[t] for t in instr.targets])
        if instr.controls:
            ctl = " ".join(
                [names[c] if v else "!" + names[c] for c, v in zip(instr.controls, instr.ctrl_state)]
            )
            out.append(f"CTRL {ctl} : {head} {tail}")
        else:
            out.append(f"{head} {tail}")
    return "\n".join(out) + "\n" if out else ""


# ---------------------------------------------------------------------------
# Dense elaboration

def to_matrix(circuit: Circuit) -> np.ndarray:
    """Full-register matrix: ordered product with the first instruction
    applied first (rightmost factor). Guarded to small registers.

    When every instruction has one target and every other bit as a control,
    as everything `lower` emits and every 1-bit circuit do, each gate is a
    two-level matrix on rows r0 and r1 of the product: r0 holds the
    controls' trigger values with the target bit 0 (register bit p is index
    bit n-1-p), r1 the same with it 1. A gate's layer is one more than the
    last layer that touched either of its rows, so the gates of a layer
    touch disjoint rows. Per layer, the dense gates make one stacked matmul
    of their 2x2 matrices with their gathered row pairs, which numpy runs
    as one BLAS product per gate, the product the kernel's small-slice
    branch makes; diagonal gates scale their rows and anti-diagonal ones
    swap them, each skipping factors of exactly 1 as the kernel does. So
    the bits are those of the `apply_all` product, which every other
    circuit takes."""
    layout = circuit.layout
    nbits = layout.num_bits
    if nbits > TO_MATRIX_GUARD_BITS:
        raise GuardError(
            f"register of {nbits} bits exceeds the 2^{TO_MATRIX_GUARD_BITS} "
            "dense-elaboration guard"
        )
    instructions = circuit.instructions
    if all(len(instr.controls) == nbits - 1 and len(instr.targets) == 1
           for instr in instructions):
        return _layered_product(nbits, instructions)
    dim = layout.dimension
    # columns are a batch of basis states; one kernel pass per instruction
    batch = np.eye(dim, dtype=complex).reshape([2] * nbits + [dim])
    state, _ = apply_all(layout, batch, instructions)
    # with every bit left flipped, the state reshapes to a negative-stride view
    return np.ascontiguousarray(state).reshape(dim, dim)


def _layered_product(nbits: int, instructions) -> np.ndarray:
    """`to_matrix` of instructions that each have one target and every other
    bit as a control, layer by layer."""
    product = np.eye(1 << nbits, dtype=complex)
    if not instructions:
        return product
    top = nbits - 1
    depth = [0] * len(product)  # the layer of the last gate on each row
    pairs, layers = [], []
    for instr in instructions:
        r0 = 0
        for c, v in zip(instr.controls, instr.ctrl_state):
            r0 |= v << top - c
        r1 = r0 | 1 << top - instr.targets[0]
        depth[r0] = depth[r1] = layer = max(depth[r0], depth[r1]) + 1
        pairs.append((r0, r1))
        layers.append(layer)
    gates = np.array([instr.gate_matrix() for instr in instructions])
    a, b, c, d = gates.reshape(-1, 4).T
    # the kernel's classes: diagonal, anti-diagonal, and dense for the rest;
    # the first two move and scale rows alike, so a layer holds two groups
    diagonal = (b == 0) & (c == 0)
    monomial = diagonal | (a == 0) & (d == 0)
    key = 2 * np.array(layers) + monomial
    order = np.argsort(key, kind="stable")
    gates, pairs, diagonal = gates[order], np.array(pairs)[order], diagonal[order]
    # new row r0 is a * row r0 (diagonal) or b * row r1 (anti-diagonal), and
    # new row r1 is d * row r1 or c * row r0
    factors = np.where(diagonal[:, None], gates[:, (0, 1), (0, 1)], gates[:, (0, 1), (1, 0)])
    sources = np.where(diagonal[:, None], pairs, pairs[:, ::-1])
    scaled = factors != 1
    monomial = monomial[order].tolist()
    starts = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip([0, *starts], [*starts, len(order)]):
            rows = pairs[start:stop]
            if not monomial[start]:
                product[rows] = np.matmul(gates[start:stop], product[rows])
                continue
            moved = product[sources[start:stop]]
            picked = scaled[start:stop]
            moved[picked] *= factors[start:stop][picked, None]
            product[rows] = moved
    return product
