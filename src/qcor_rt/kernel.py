"""Quantum kernel intermediate representation and its textual DSL.

A kernel is a named, parameterized circuit.  Sources look like::

    kernel ansatz(t) qubits 2 {
      X q0;
      Ry(t) q1;
      CNOT q1 q0;
    }

Angles are radians.  Measurement is terminal per qubit.  Kernels are
immutable; `bind` and the append helpers return new kernels.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .errors import ParseError, ValidationError
from .lexer import NUMBER, TokenStream

if TYPE_CHECKING:
    from .pauli import PauliString


class GateKind(Enum):
    X = "X"
    Y = "Y"
    Z = "Z"
    H = "H"
    S = "S"
    Sdg = "Sdg"
    T = "T"
    Rx = "Rx"
    Ry = "Ry"
    Rz = "Rz"
    CNOT = "CNOT"
    CZ = "CZ"
    Measure = "Measure"


TWO_QUBIT_GATES = {GateKind.CNOT, GateKind.CZ}
ROTATION_GATES = {GateKind.Rx, GateKind.Ry, GateKind.Rz}
_GATE_BY_NAME = {g.value: g for g in GateKind}

# Gates that rotate each Pauli kind's eigenbasis onto Z, in the order applied
BASIS_CHANGE = {"X": (GateKind.H,), "Y": (GateKind.Sdg, GateKind.H), "Z": ()}


@dataclass(frozen=True)
class Instruction:
    kind: GateKind
    qubits: tuple
    param: float | str | None = None

    def __post_init__(self):
        arity = 2 if self.kind in TWO_QUBIT_GATES else 1
        if len(self.qubits) != arity:
            raise ValidationError(
                f"{self.kind.value} takes {arity} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"{self.kind.value} operands must be distinct qubits")
        if self.kind in ROTATION_GATES:
            if self.param is None:
                raise ValidationError(f"{self.kind.value} requires an angle parameter")
            if isinstance(self.param, float) and not math.isfinite(self.param):
                raise ValidationError(f"non-finite angle {self.param!r}")
        elif self.param is not None:
            raise ValidationError(f"{self.kind.value} takes no parameter")

    def is_bound(self) -> bool:
        return not isinstance(self.param, str)


@dataclass(frozen=True)
class Kernel:
    name: str
    params: tuple
    num_qubits: int
    body: tuple

    def __post_init__(self):
        if isinstance(self.num_qubits, bool) or not isinstance(self.num_qubits, numbers.Integral):
            raise ValidationError(f"kernel width must be an integer, got {self.num_qubits!r}")
        object.__setattr__(self, "num_qubits", int(self.num_qubits))
        if self.num_qubits < 1:
            raise ValidationError("kernel needs at least one qubit")
        if len(set(self.params)) != len(self.params):
            raise ValidationError("duplicate parameter names")
        measured = set()
        for instr in self.body:
            for q in instr.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValidationError(
                        f"qubit index q{q} out of range for {self.num_qubits}-qubit kernel"
                    )
                if q in measured:
                    raise ValidationError(
                        f"instruction on q{q} after its measurement (measurement is terminal)"
                    )
            if isinstance(instr.param, str) and instr.param not in self.params:
                raise ValidationError(f"unknown parameter {instr.param!r}")
            if instr.kind is GateKind.Measure:
                measured.add(instr.qubits[0])

    def is_measured(self) -> bool:
        return any(i.kind is GateKind.Measure for i in self.body)

    def measured_qubits(self) -> tuple:
        return tuple(sorted(i.qubits[0] for i in self.body if i.kind is GateKind.Measure))

    def bind(self, values: Sequence[float]) -> "Kernel":
        """Substitute literal angles for named parameters; result has no params."""
        if len(values) != len(self.params):
            raise ValidationError(
                f"kernel {self.name!r} takes {len(self.params)} parameter(s), got {len(values)}"
            )
        for v in values:
            if not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ValidationError(f"parameter value must be a finite number, got {v!r}")
        table = dict(zip(self.params, (float(v) for v in values)))
        body = tuple(
            replace(i, param=table[i.param]) if isinstance(i.param, str) else i
            for i in self.body
        )
        return Kernel(self.name, (), self.num_qubits, body)

    def with_measurement_basis(self, string: "PauliString") -> "Kernel":
        """Append basis changes then measurements for the string's support."""
        if self.params:
            raise ValidationError("cannot add measurements to a kernel with free parameters")
        if self.is_measured():
            raise ValidationError("kernel is already measured")
        for q in string.qubits:
            if q >= self.num_qubits:
                raise ValidationError(f"qubit {q} outside the {self.num_qubits}-qubit kernel")
        change = [Instruction(gate, (q,)) for q, kind in string.ops for gate in BASIS_CHANGE[kind]]
        measure = [Instruction(GateKind.Measure, (q,)) for q in string.qubits]
        return Kernel(self.name, self.params, self.num_qubits,
                      self.body + tuple(change + measure))


def print_kernel(kernel: Kernel) -> str:
    """The kernel's DSL source, which `parse_kernel` reads back unchanged."""
    lines = [f"kernel {kernel.name}({','.join(kernel.params)}) qubits {kernel.num_qubits} {{"]
    for instr in kernel.body:
        gate = instr.kind.value
        if instr.param is not None:
            arg = instr.param if isinstance(instr.param, str) else f"{instr.param:.17g}"
            gate = f"{gate}({arg})"
        operands = " ".join(f"q{q}" for q in instr.qubits)
        lines.append(f"  {gate} {operands};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# DSL parsing

_GRAMMAR = re.compile(
    rf"(?P<skip>//[^\n]*)|(?P<num>{NUMBER})|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[(){};,\-])|(?P<bad>[^ \t\r\n])"
)
_OPERAND_RE = re.compile(r"q\d+")


def _is_operand(tok) -> bool:
    return tok is not None and tok[0] == "ident" and _OPERAND_RE.fullmatch(tok[1]) is not None


def _parse_operand(ts: TokenStream) -> int:
    tok = ts.expect_kind("ident", "qubit operand like q0")
    if not _is_operand(tok):
        raise ParseError(f"expected qubit operand like q0, got {tok[1]!r}", ts.where(tok))
    return ts.index(tok[1][1:], tok, "qubit operand", None)


def parse_kernel(text: str) -> Kernel:
    """Parse a kernel DSL source into a validated Kernel."""
    ts = TokenStream(_GRAMMAR, text, lines=True)
    ts.expect("kernel")
    name = ts.expect_kind("ident", "kernel name")[1]
    ts.expect("(")
    params = []
    tok = ts.peek()
    if tok is not None and tok[1] != ")":
        while True:
            params.append(ts.expect_kind("ident", "parameter name")[1])
            tok = ts.next()
            if tok is None or tok[1] not in (",", ")"):
                raise ParseError("expected ',' or ')'", ts.where(tok))
            if tok[1] == ")":
                break
    else:
        ts.expect(")")
    ts.expect("qubits")
    ntok = ts.expect_kind("num", "qubit count")
    num_qubits = ts.index(ntok[1], ntok, "qubit count", None)
    ts.expect("{")
    body = []
    while True:
        tok = ts.peek()
        if tok is None:
            raise ParseError("unterminated kernel body", ts.where())
        if tok[1] == "}":
            ts.next()
            break
        gtok = ts.expect_kind("ident", "gate name")
        kind = _GATE_BY_NAME.get(gtok[1])
        if kind is None:
            raise ParseError(f"unknown gate {gtok[1]!r}", ts.where(gtok))
        param = None
        if (tok := ts.peek()) is not None and tok[1] == "(":
            ts.next()
            ptok = ts.next()
            if ptok is not None and ptok[1] == "-":
                param = -float(ts.expect_kind("num", "angle")[1])
            elif ptok is not None and ptok[0] in ("num", "ident"):
                param = float(ptok[1]) if ptok[0] == "num" else ptok[1]
            else:
                raise ParseError("expected angle literal or parameter name", ts.where(ptok))
            ts.expect(")")
        qubits = [_parse_operand(ts)]
        while _is_operand(ts.peek()):
            qubits.append(_parse_operand(ts))
        ts.expect(";")
        try:
            instr = Instruction(kind, tuple(qubits), param)
        except ValidationError as e:
            raise ParseError(str(e), ts.where(gtok)) from e
        body.append(instr)
    if (tok := ts.peek()) is not None:
        raise ParseError(f"trailing input {tok[1]!r}", ts.where(tok))
    try:
        return Kernel(name, tuple(params), num_qubits, tuple(body))
    except ValidationError as e:
        raise ParseError(str(e)) from e


def identity_kernel(num_qubits: int) -> Kernel:
    return Kernel("identity", (), num_qubits, ())
