"""Circuit representation and the `.lqc` text format.

File grammar (line oriented, `#` comments, keywords case-insensitive,
zero-based bit indices):

    file      := (decl NEWLINE)* (stmt NEWLINE)*
    decl      := "qubits" INT | "hybits" INT     each at most once, default 0
    stmt      := simple | ctrl | defgate
    simple    := GATENAME param? bitref+
    ctrl      := "CTRL" ctrlref+ ":" simple
    defgate   := "DEFGATE" IDENT INT NEWLINE matrixrows
    bitref    := ("q"|"h") INT
    ctrlref   := "!"? bitref                    "!" triggers on 0

GATENAME is a DEFGATE name or a builtin of `gates.BUILTIN_ARITY`, the one
gate list the parser and the serializer share; it also gives the target
count of each builtin (CZ takes two, the rest one).

Controls trigger on bit value 1. A control written with a "!" prefix
("CTRL !q0 : Z q1") triggers on 0 instead, on qubits and hybits alike.
Each instruction stores the trigger value of every control (its
`ctrl_state`), and the serializer writes 0-controls back with "!". A
control projector is diagonal, so it commutes with the metric, and the
controlled gate I + P_C (U - I) preserves the metric whenever U does on
its targets, whatever the trigger values.

Each instruction is checked once, by `validate_instruction`, where it
enters a `Circuit`: its gate matrix must preserve the metric of its target
bits (the same DEFGATE may be legal on one bit-kind combination and
illegal on another). `parse` checks each statement as it reads it, for a
per-line diagnostic; it and `concat` return circuits without a second check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import (
    EPS_ISO,
    BitKind,
    GuardError,
    IsometryError,
    LqcError,
    RegisterLayout,
    metric_for_kinds,
)
from .gates import BUILTIN_ARITY, PARAMETRIC, builtin, isometry_residual

KEYWORDS = {"QUBITS", "HYBITS", "CTRL", "DEFGATE"}
_BITREF_RE = re.compile(r"^(!?)([qh])(\d+)$", re.IGNORECASE)
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

TO_MATRIX_GUARD_BITS = 12


@dataclass(frozen=True)
class BitRef:
    kind: BitKind
    index: int

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"

    def position(self, layout: RegisterLayout) -> int:
        """Absolute bit position of this reference within the layout."""
        places = layout.positions(self.kind)
        if not 0 <= self.index < len(places):
            raise LqcError(f"bit {self} out of range")
        return places[self.index]


@dataclass(frozen=True)
class Instruction:
    gate: str
    targets: tuple[BitRef, ...]
    controls: tuple[BitRef, ...] = ()
    param: float | None = None
    # resolved matrix for DEFGATE gates; builtins resolve through gates.builtin
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    # trigger value (0 or 1) of each control; left out, every control is 1
    ctrl_state: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        state = (1,) * len(self.controls) if self.ctrl_state is None else tuple(self.ctrl_state)
        object.__setattr__(self, "ctrl_state", state)

    def gate_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return builtin(self.gate, self.param)

    def all_refs(self) -> tuple[BitRef, ...]:
        return self.controls + self.targets


@dataclass(frozen=True, eq=False)
class Circuit:
    """A register and its validated instructions, immutable once built:
    `defs` is a read-only mapping and its DEFGATE arrays are read-only."""

    layout: RegisterLayout
    instructions: tuple[Instruction, ...] = ()
    defs: Mapping[str, tuple[int, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _freeze(self, self.instructions, self.defs)
        for instr in self.instructions:
            validate_instruction(self.layout, instr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.layout != other.layout or self.instructions != other.instructions:
            return False
        if self.defs.keys() != other.defs.keys():
            return False
        return all(
            self.defs[k][0] == other.defs[k][0]
            and np.array_equal(self.defs[k][1], other.defs[k][1])
            for k in self.defs
        )

    def concat(self, other: "Circuit") -> "Circuit":
        if other.layout != self.layout:
            raise LqcError("cannot concatenate circuits over different layouts")
        defs = dict(self.defs)
        for name, (arity, mat) in other.defs.items():
            if name in defs and not (defs[name][0] == arity and np.array_equal(defs[name][1], mat)):
                raise LqcError(f"conflicting DEFGATE {name}")
            defs[name] = (arity, mat)
        return _checked(self.layout, self.instructions + other.instructions, defs)


def _freeze(circuit: Circuit, instructions, defs) -> None:
    for _arity, mat in defs.values():
        mat.flags.writeable = False
    object.__setattr__(circuit, "instructions", tuple(instructions))
    object.__setattr__(circuit, "defs", MappingProxyType(dict(defs)))


def _checked(layout: RegisterLayout, instructions, defs) -> Circuit:
    """Circuit(...) for instructions already validated on this layout."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "layout", layout)
    _freeze(circuit, instructions, defs)
    return circuit


def validate_instruction(layout: RegisterLayout, instr: Instruction) -> None:
    """Raise unless the instruction is well formed on the layout, and
    IsometryError unless its gate preserves the metric of its targets.
    Where it runs is in the module docstring."""
    refs = instr.all_refs()
    if len(set(refs)) != len(refs):
        raise LqcError(f"duplicate bit in instruction {instr.gate}")
    if not instr.targets:
        raise LqcError("instruction needs at least one target")
    if len(instr.ctrl_state) != len(instr.controls):
        raise LqcError(
            f"instruction {instr.gate} has {len(instr.controls)} control(s) "
            f"but {len(instr.ctrl_state)} trigger value(s)"
        )
    if any(v not in (0, 1) for v in instr.ctrl_state):
        raise LqcError(f"control trigger values must be 0 or 1, got {instr.ctrl_state}")
    for r in refs:
        r.position(layout)  # raises when the bit is not in the register
    mat = instr.gate_matrix()
    arity = len(instr.targets)
    if mat.shape != (1 << arity, 1 << arity):
        raise LqcError(
            f"gate {instr.gate} has dimension {mat.shape[0]}, "
            f"but {arity} target(s) were given"
        )
    kinds = "".join(r.kind.value for r in instr.targets)
    resid = isometry_residual(mat, metric_for_kinds(kinds))
    if resid > EPS_ISO:
        raise IsometryError(
            f"gate {instr.gate} is not metric-preserving on target kind(s) "
            f"{kinds!r} (residual {resid:.3g})"
        )


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


class _Lines:
    """Comment-stripped source lines with token spans for column reporting."""

    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_content(self) -> tuple[int, list[tuple[int, str]]] | None:
        """Next line holding any tokens, as (lineno, [(column, token), ...])."""
        while self.pos < len(self.raw):
            lineno = self.pos + 1
            line = self.raw[self.pos].split("#", 1)[0]
            self.pos += 1
            tokens = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
            if tokens:
                return lineno, tokens
        return None


def parse(text: str) -> Circuit:
    """Parse `.lqc` source. Collects as many diagnostics as possible
    (recovering at line granularity) before raising ParseError."""
    lines = _Lines(text)
    errors: list[Diagnostic] = []
    decls: dict[str, int] = {}
    decls_done = False
    defs: dict[str, tuple[int, np.ndarray]] = {}
    # statements buffered raw first: the register layout is only known
    # once the decls are read, but decls must precede all statements anyway
    instructions: list[Instruction] = []
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
        ref = BitRef(BitKind(kind), idx)
        try:
            ref.position(get_layout())
        except LqcError:
            err(lineno, col, f"bit {ref} out of range for declared register")
            return None
        return (ref, 0 if bang else 1)

    def parse_simple(lineno: int, toks: list[tuple[int, str]], controls, ctrl_state):
        col0, name_tok = toks[0]
        name = name_tok.upper()
        if name in BUILTIN_ARITY:
            matrix = None
            arity = BUILTIN_ARITY[name]
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

    def parse_defgate(lineno: int, toks: list[tuple[int, str]]):
        if len(toks) != 3:
            err(lineno, toks[0][0], "expected: DEFGATE NAME ARITY")
            return
        (_, _), (ncol, name_tok), (acol, arity_tok) = toks
        name = name_tok.upper()
        if not _IDENT_RE.match(name_tok) or name in KEYWORDS or name in BUILTIN_ARITY \
                or _BITREF_RE.match(name_tok):
            err(lineno, ncol, f"invalid gate name {name_tok!r}")
            return
        if name in defs:
            err(lineno, ncol, f"gate {name} already defined")
            return
        try:
            arity = int(arity_tok)
        except ValueError:
            err(lineno, acol, f"bad arity {arity_tok!r}")
            return
        if not 1 <= arity <= 10:
            err(lineno, acol, f"arity {arity} out of range 1..10")
            return
        dim = 1 << arity
        rows = []
        for _ in range(dim):
            item = lines.next_content()
            if item is None:
                err(lineno, ncol, f"DEFGATE {name}: expected {dim} matrix rows")
                return
            rlineno, rtoks = item
            if len(rtoks) != dim:
                err(rlineno, rtoks[0][0], f"expected {dim} matrix entries")
                return
            row = []
            for col, tok in rtoks:
                parts = tok.split(",")
                try:
                    if len(parts) != 2:
                        raise ValueError
                    row.append(complex(float(parts[0]), float(parts[1])))
                except ValueError:
                    err(rlineno, col, f"matrix entry {tok!r} is not 're,im'")
                    return
            rows.append(row)
        defs[name] = (arity, np.array(rows, dtype=complex))

    while True:
        item = lines.next_content()
        if item is None:
            break
        lineno, toks = item
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
            parse_defgate(lineno, toks)
        elif keyword == "CTRL":
            # controls up to the ':' token, simple statement after it
            split = None
            for i, (_, tok) in enumerate(toks):
                if tok == ":":
                    split = i
                    break
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

    if errors:
        raise ParseError(errors)
    # parse_simple has validated every instruction
    return _checked(get_layout(), instructions, defs)


# ---------------------------------------------------------------------------
# Serialization

def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def serialize(circuit: Circuit) -> str:
    out = []
    nq, nh = circuit.layout.num_qubits, circuit.layout.num_hybits
    if nq:
        out.append(f"qubits {nq}")
    if nh:
        out.append(f"hybits {nh}")
    for name, (arity, mat) in circuit.defs.items():
        out.append(f"DEFGATE {name} {arity}")
        for row in mat:
            out.append(" ".join(f"{e.real:.17g},{e.imag:.17g}" for e in row))
    for instr in circuit.instructions:
        head = instr.gate
        if instr.param is not None:
            head += f" {_fmt_float(instr.param)}"
        tail = " ".join(str(t) for t in instr.targets)
        if instr.controls:
            ctl = " ".join(
                f"{'' if v else '!'}{c}" for c, v in zip(instr.controls, instr.ctrl_state)
            )
            out.append(f"CTRL {ctl} : {head} {tail}")
        else:
            out.append(f"{head} {tail}")
    return "\n".join(out) + "\n" if out else ""


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
    from .simulator import apply_to_tensor  # deferred: simulator imports this module

    dim = circuit.layout.dimension
    mat = np.eye(dim, dtype=complex)
    # columns are a batch of basis states; one kernel pass per instruction
    tensor = mat.reshape([2] * nbits + [dim])
    for instr in circuit.instructions:
        apply_to_tensor(circuit.layout, tensor, instr)
    return tensor.reshape(dim, dim)
