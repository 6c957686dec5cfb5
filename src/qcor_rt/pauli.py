"""Sparse Pauli observable algebra.

An observable is a weighted sum of Pauli strings.  Strings are stored
sparsely (identity factors omitted), values are immutable, and every
operation returns a new object, so observables can be shared freely
across threads.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .lexer import NUMBER, TokenStream

if TYPE_CHECKING:
    from .kernel import Kernel

DEFAULT_TOL = 1e-12
DENSE_QUBIT_CAP = 10  # width limit of every dense-matrix oracle

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_KINDS = "IXZY"  # indexed by (x bit) | (z bit) << 1
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)  # i**k


@dataclass(frozen=True)
class PauliString:
    """Tensor product of Paulis as symplectic masks (Aaronson & Gottesman):
    bit q of `x` marks X on qubit q, bit q of `z` marks Z, both bits mark Y."""

    x: int = 0
    z: int = 0

    def __post_init__(self):
        for mask in (self.x, self.z):
            if not isinstance(mask, int) or mask < 0:
                raise ValidationError(f"Pauli masks must be non-negative ints, got {mask!r}")

    @classmethod
    def from_map(cls, ops: Mapping[int, str]) -> "PauliString":
        """Validated constructor from {qubit: kind}; identity factors are dropped."""
        x = z = 0
        for q, kind in ops.items():
            if not isinstance(q, numbers.Integral) or q < 0:
                raise ValidationError(f"qubit index must be a non-negative integer, got {q!r}")
            if kind not in ("I", "X", "Y", "Z"):
                raise ValidationError(f"invalid Pauli kind {kind!r}")
            bits = _KINDS.index(kind)
            x |= (bits & 1) << int(q)
            z |= (bits >> 1) << int(q)
        return cls(x, z)

    @cached_property
    def ops(self) -> tuple:
        """((qubit, kind), ...) over the non-identity factors, by qubit."""
        support = self.x | self.z
        return tuple((q, self.op_on(q)) for q in range(support.bit_length())
                     if support >> q & 1)

    @cached_property
    def qubits(self) -> tuple:
        return tuple(q for q, _ in self.ops)

    def op_on(self, qubit: int) -> str:
        if qubit < 0:
            return "I"
        return _KINDS[(self.x >> qubit & 1) | (self.z >> qubit & 1) << 1]

    def mul(self, other: "PauliString"):
        """Return (phase, product string): XOR the masks, and count the
        qubits whose factors multiply cyclically (XY, YZ, ZX -> +i) or
        anticyclically (-i)."""
        xa, za, xb, zb = self.x, self.z, other.x, other.z
        pxa, pya, pza = xa & ~za, xa & za, za & ~xa
        pxb, pyb, pzb = xb & ~zb, xb & zb, zb & ~xb
        cyclic = (pxa & pyb | pya & pzb | pza & pxb).bit_count()
        anticyclic = (pya & pxb | pza & pyb | pxa & pzb).bit_count()
        return _PHASES[(cyclic - anticyclic) % 4], PauliString(xa ^ xb, za ^ zb)

    def qubitwise_commutes(self, other: "PauliString") -> bool:
        shared = (self.x | self.z) & (other.x | other.z)
        return not ((self.x ^ other.x) | (self.z ^ other.z)) & shared

    @cached_property
    def _text(self) -> str:
        return " ".join(f"{kind}{q}" for q, kind in self.ops) or "I"

    def __str__(self):
        return self._text


@dataclass(frozen=True)
class PauliTerm:
    coefficient: complex
    string: PauliString

    def __post_init__(self):
        object.__setattr__(self, "coefficient", _coefficient(self.coefficient))


def _coefficient(value) -> complex:
    """`value` as a finite complex number, or ValidationError."""
    try:
        c = complex(value)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"coefficient must be a number, got {value!r}") from e
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValidationError(f"non-finite coefficient {c!r}")
    return c


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _string_sort_key(s: PauliString):
    return (s.qubits, tuple(k for _, k in s.ops))


class PauliObservable:
    """Weighted sum of Pauli strings, at most one term per distinct string."""

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms: Iterable = ()):
        acc = {}
        for t in terms:
            try:
                coeff, string = (t.coefficient, t.string) if isinstance(t, PauliTerm) else t
            except (TypeError, ValueError) as e:
                raise ValidationError(f"term is not a (coefficient, PauliString) pair: {t!r}") from e
            coeff = _coefficient(coeff)
            if not isinstance(string, PauliString):
                raise ValidationError(f"term string must be a PauliString, got {string!r}")
            acc[string] = acc.get(string, 0j) + coeff
        self._terms = {s: c for s, c in acc.items() if c != 0}
        self._sorted = None  # `terms`, built on first access

    @classmethod
    def identity(cls, coefficient=1.0) -> "PauliObservable":
        return cls([(coefficient, PauliString())])

    @property
    def terms(self) -> tuple:
        if self._sorted is None:
            self._sorted = tuple(PauliTerm(self._terms[s], s)
                                 for s in sorted(self._terms, key=_string_sort_key))
        return self._sorted

    def num_qubits(self) -> int:
        return max(((s.x | s.z).bit_length() for s in self._terms), default=0)

    def identity_coefficient(self) -> complex:
        return self._terms.get(PauliString(), 0j)

    def simplify(self, tol: float = DEFAULT_TOL) -> "PauliObservable":
        if tol < 0:
            raise ValidationError("tolerance must be non-negative")
        return PauliObservable(
            (c, s) for s, c in self._terms.items() if abs(c) > tol
        )

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, PauliObservable):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "PauliObservable") -> "PauliObservable":
        return PauliObservable(
            [(c, s) for s, c in self._terms.items()]
            + [(c, s) for s, c in other._terms.items()]
        )

    def __sub__(self, other: "PauliObservable") -> "PauliObservable":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "PauliObservable":
        return PauliObservable((c * factor, s) for s, c in self._terms.items())

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        out = []
        for sa, ca in self._terms.items():
            for sb, cb in other._terms.items():
                phase, s = sa.mul(sb)
                out.append((ca * cb * phase, s))
        return PauliObservable(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def to_string(self) -> str:
        if not self._terms:
            return "(0,0) I"
        parts = []
        for term in self.terms:
            body = str(term.string)
            c = term.coefficient
            if c == 1:
                parts.append(body)
            else:
                parts.append(f"({_fmt_float(c.real)},{_fmt_float(c.imag)}) {body}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"PauliObservable({self.to_string()!r})"

    def to_dense(self, num_qubits: int | None = None) -> np.ndarray:
        """Dense 2^n x 2^n matrix; qubit 0 is the most significant tensor factor."""
        n = self.num_qubits() if num_qubits is None else num_qubits
        n = max(n, 1)
        if n < self.num_qubits():
            raise ValidationError(
                f"matrix width {n} smaller than observable width {self.num_qubits()}"
            )
        if n > DENSE_QUBIT_CAP:
            raise ValidationError(f"dense matrix limited to {DENSE_QUBIT_CAP} qubits, got {n}")
        dim = 2**n
        out = np.zeros((dim, dim), dtype=complex)
        for s, c in self._terms.items():
            m = np.ones((1, 1), dtype=complex)
            for q in range(n):
                m = np.kron(m, _MATRICES[s.op_on(q)])
            out += c * m
        return out

    def check_kernel(self, kernel: "Kernel") -> None:
        """Raise ValidationError unless `kernel` can be observed: unmeasured
        and at least as wide as the observable."""
        if kernel.is_measured():
            raise ValidationError("observe requires an unmeasured kernel")
        if kernel.num_qubits < self.num_qubits():
            raise ValidationError(
                f"kernel has {kernel.num_qubits} qubits, observable needs {self.num_qubits()}"
            )

    def observe(self, kernel: "Kernel"):
        """(pairs, offset): one (PauliTerm, measured Kernel) pair per
        non-identity term, and the identity coefficient, carried analytically
        instead of running a no-op circuit."""
        self.check_kernel(kernel)
        terms, offset = self.split_identity()
        return [(t, kernel.with_measurement_basis(t.string)) for t in terms], offset

    def split_identity(self) -> tuple:
        """(non-identity terms in `terms` order, identity coefficient); adding
        it to 0j turns a -0.0 real part into 0.0."""
        return [t for t in self.terms if t.string.ops], 0j + self.identity_coefficient()

    def group_commuting(self) -> list:
        """Greedy partition into qubit-wise commuting groups."""
        groups = []
        for term in self.terms:
            for g in groups:
                if all(term.string.qubitwise_commutes(t.string) for t in g):
                    g.append(term)
                    break
            else:
                groups.append([term])
        return [PauliObservable(g) for g in groups]


# ---------------------------------------------------------------------------
# parsing

_GRAMMAR = re.compile(
    rf"(?P<num>{NUMBER})|(?P<factor>[XYZ]\d+)|(?P<ident>I)|(?P<punct>[+\-(),])|(?P<bad>\S)"
)


def parse_pauli(text: str) -> PauliObservable:
    """Parse an observable string, e.g. ``"X0 X1 + (0.5,0) Z0 Z1"``."""
    if not text or not text.strip():
        raise ParseError("empty observable string", 0)
    ts = TokenStream(_GRAMMAR, text)
    terms = []
    sign = ts.sign()  # tolerate a leading sign
    while True:
        tok = ts.peek()
        coeff = 1 + 0j
        if tok is not None and tok[0] == "num":
            ts.next()
            coeff = complex(ts.number(tok), 0.0)
        elif tok is not None and tok[1] == "(":
            coeff = ts.complex_literal()
        coeff *= sign
        phase, string = 1 + 0j, PauliString()
        saw_factor = False
        while True:
            tok = ts.peek()
            if tok is None or tok[1] in ("+", "-"):
                break
            ts.next()
            if tok[0] == "ident":  # literal I
                saw_factor = True
                continue
            if tok[0] != "factor":
                raise ParseError(f"expected Pauli factor, got {tok[1]!r}", tok[2])
            saw_factor = True
            qubit = ts.index(tok[1][1:], tok, "qubit index")
            p, string = string.mul(PauliString.from_map({qubit: tok[1][0]}))
            phase *= p
        if not saw_factor:
            raise ParseError("term has no Pauli factor", ts.where())
        terms.append((coeff * phase, string))
        if ts.peek() is None:
            break
        sign = ts.sign()
    return PauliObservable(terms)


# ---------------------------------------------------------------------------
# estimation

# The parity weights of terms on up to this many qubits are cached, at most
# _WEIGHT_CACHE_SIZE of them: 32 MiB at most.
_CACHED_WEIGHT_QUBITS = 12
_WEIGHT_CACHE_SIZE = 1024
_SIGNS = ((1.0, -1.0),)  # a qubit's parity weights before any mitigation


def _build_parity_weights(pairs: tuple) -> np.ndarray:
    """Read-only g = pairs[0] (x) pairs[1] (x) ...: entry i weighs outcome
    format(i, f"0{k}b") of the k qubits the pairs belong to, lowest leftmost."""
    g = np.ones(1)
    for pair in pairs:
        g = (g[:, None] * pair).reshape(-1)
    g.flags.writeable = False
    return g


# shared by the raw and mitigated estimates of every objective, so objectives
# built from one calibration build each term's weights once
_cached_parity_weights = functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)(_build_parity_weights)


def _estimate(term: PauliTerm, pairs: tuple, outcomes: np.ndarray) -> float:
    """Re(c) (g . outcomes) / sum(outcomes) for the term's coefficient c, g
    the parity weights that `pairs` (one per support qubit) build."""
    total = outcomes.sum()
    if total == 0:
        raise ValidationError("counts sum to zero")
    g = (_cached_parity_weights(pairs) if len(pairs) <= _CACHED_WEIGHT_QUBITS
         else _build_parity_weights(pairs))
    return float(term.coefficient.real * (g @ outcomes) / total)


def expectation_from_vector(term: PauliTerm, weights: np.ndarray) -> float:
    """Parity-weighted average of a dense outcome vector for one term: entry i
    weighs outcome format(i, f"0{k}b") over the term's k support qubits
    (ascending, qubit 0 leftmost).  The estimate uses Re(coefficient)."""
    k = len(term.string.qubits)
    if len(weights) != 1 << k:
        raise ValidationError(f"outcome vector has {len(weights)} entries, not 2^{k}")
    return _estimate(term, _SIGNS * k, weights)


def expectation_from_counts(term: PauliTerm, counts: Mapping[str, float],
                            measured_qubits=None) -> float:
    """Parity-weighted average of measurement outcomes for one term.

    `counts` maps bitstrings (measured qubits ascending, qubit 0 leftmost)
    to shot counts, or to real weights for quasi-distributions.  The
    estimate uses Re(coefficient).
    """
    if not counts:
        raise ValidationError("empty counts")
    support = term.string.qubits
    if measured_qubits is None:
        measured_qubits = support
    measured = sorted(measured_qubits)
    positions = [measured.index(q) for q in support if q in measured]
    if len(positions) != len(support):
        raise ValidationError(
            f"counts do not cover the term support {support} (measured {measured})"
        )
    mask = sum(1 << (len(measured) - 1 - p) for p in positions)  # qubit 0 leftmost
    total = 0.0
    acc = 0.0
    for bits, weight in counts.items():
        if len(bits) != len(measured) or bits.strip("01"):
            raise ValidationError(
                f"bitstring {bits!r} is not one binary digit per measured qubit {measured}"
            )
        parity = (int(bits or "0", 2) & mask).bit_count() & 1
        total += weight
        acc += -weight if parity else weight
    if total == 0:
        raise ValidationError("counts sum to zero")
    return term.coefficient.real * acc / total
