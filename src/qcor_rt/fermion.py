"""Second-quantized fermionic observables and the Jordan-Wigner transform.

Normal ordering puts all creation operators before annihilation operators,
creations ascending by site and annihilations ascending, with a sign flip
per transposition and contraction terms from {c_i, c†_i} = 1.  Mode j maps
to qubit j; the Jordan-Wigner Z-string acts on qubits 0..j-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParseError, ValidationError
from .lexer import NUMBER, TokenStream
from .pauli import DENSE_QUBIT_CAP, PauliObservable, PauliString, _coefficient

_ANNIHILATE = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_CREATE = _ANNIHILATE.T.conj()
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class LadderOp:
    site: int
    dagger: bool

    def __post_init__(self):
        if not isinstance(self.site, (int, np.integer)) or self.site < 0:
            raise ValidationError(f"mode index must be a non-negative integer, got {self.site!r}")

    def conjugate(self) -> "LadderOp":
        return LadderOp(self.site, not self.dagger)

    def __str__(self):
        return f"{self.site}^" if self.dagger else f"{self.site}"


@dataclass(frozen=True)
class FermionTerm:
    coefficient: complex
    ops: tuple

    def __post_init__(self):
        coefficient, ops = _checked_term(self.coefficient, self.ops)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "ops", ops)

    def __str__(self):
        body = " ".join(str(op) for op in self.ops)
        return body if body else "1"


class FermionObservable:
    """Sum of ladder-operator products; op order within a term is significant."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()):
        acc = {}
        for t in terms:
            if isinstance(t, FermionTerm):
                coeff, ops = t.coefficient, t.ops
            else:
                try:
                    coeff, ops = t
                except (TypeError, ValueError) as e:
                    raise ValidationError(
                        f"term is not a (coefficient, ladder operators) pair: {t!r}") from e
                coeff, ops = _checked_term(coeff, ops)
            acc[ops] = acc.get(ops, 0j) + coeff
        self._terms = {ops: c for ops, c in acc.items() if c != 0}

    @property
    def terms(self) -> tuple:
        return tuple(
            FermionTerm(self._terms[ops], ops)
            for ops in sorted(self._terms, key=_term_sort_key)
        )

    def num_modes(self) -> int:
        sites = [op.site for ops in self._terms for op in ops]
        return 1 + max(sites) if sites else 0

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, FermionObservable):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "FermionObservable") -> "FermionObservable":
        return FermionObservable(
            [(c, ops) for ops, c in self._terms.items()]
            + [(c, ops) for ops, c in other._terms.items()]
        )

    def scale(self, factor: complex) -> "FermionObservable":
        return FermionObservable((c * factor, ops) for ops, c in self._terms.items())

    def conjugate(self) -> "FermionObservable":
        """Hermitian conjugate: reverse each product, dagger each op."""
        return FermionObservable(
            (c.conjugate(), tuple(op.conjugate() for op in reversed(ops)))
            for ops, c in self._terms.items()
        )

    def __str__(self):
        if not self._terms:
            return "(0,0)"
        parts = []
        for term in self.terms:
            c = term.coefficient
            if not term.ops:
                # identity terms print as a parenthesized coefficient so the
                # output re-parses (a bare integer would read as an operator)
                parts.append(_fmt_coeff(c, force_complex=True))
            elif c == 1:
                parts.append(str(term))
            else:
                parts.append(f"{_fmt_coeff(c)} {term}")
        return " + ".join(parts)


def _checked_term(coefficient, ops) -> tuple:
    """(coefficient as a finite complex, ops as a tuple of LadderOps), or ValidationError."""
    try:
        ops = tuple(ops)
    except TypeError as e:
        raise ValidationError(f"term operators must be a sequence, got {ops!r}") from e
    if not all(isinstance(op, LadderOp) for op in ops):
        raise ValidationError(f"term operators must be LadderOps, got {ops!r}")
    return _coefficient(coefficient), ops


def _term_sort_key(ops: tuple):
    return (len(ops), tuple((op.site, not op.dagger) for op in ops))


def _fmt_coeff(c: complex, force_complex: bool = False) -> str:
    if c.imag == 0 and not force_complex:
        return repr(c.real)  # repr keeps a '.', so it re-parses as a coefficient
    return f"({repr(c.real)},{repr(c.imag)})"


# ---------------------------------------------------------------------------
# parsing

_GRAMMAR = re.compile(rf"(?P<num>{NUMBER})(?P<dag>\^)?|(?P<punct>[+\-(),^])|(?P<bad>\S)")


def parse_fermion(text: str) -> FermionObservable:
    """Parse a fermion string such as ``"1.0 0^ 1^ 1 0"``.

    A factor ``<site>^`` is a creation operator, ``<site>`` an
    annihilation operator; an optional leading coefficient may be real or
    ``(re,im)``.  Factor order is preserved.
    """
    if not text or not text.strip():
        raise ParseError("empty fermion string", 0)
    ts = TokenStream(_GRAMMAR, text)
    terms = []
    ladder = {}  # token text -> LadderOp, shared by every factor that spells it
    sign = ts.sign()
    while True:
        sign *= ts.sign()  # explicit sign on the coefficient
        tok = ts.peek()
        if tok is None:
            raise ParseError("expected a term", ts.where())
        coeff = 1 + 0j
        # Coefficients are "(re,im)" or a real with a '.' or exponent;
        # bare integers are always mode indices ("1 0^" is c_1 c†_0).
        if tok[1] == "(":
            coeff = ts.complex_literal()
        elif tok[0] == "num" and not tok[1].isdigit():
            ts.next()
            coeff = complex(ts.number(tok), 0.0)
        ops = []
        while (tok := ts.peek()) is not None and tok[0] in ("num", "dag"):
            ts.next()
            op = ladder.get(tok[1])
            if op is None:
                dagger = tok[0] == "dag"
                site = ts.index(tok[1][:-1] if dagger else tok[1], tok, "mode index")
                op = ladder[tok[1]] = LadderOp(site, dagger)
            ops.append(op)
        terms.append((sign * coeff, tuple(ops)))
        tok = ts.peek()
        if tok is None:
            break
        if tok[1] not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {tok[1]!r}", tok[2])
        sign = ts.sign()
    return FermionObservable(terms)


# ---------------------------------------------------------------------------
# normal ordering

def normal_order(obs: FermionObservable) -> FermionObservable:
    """Rewrite using {c_i, c†_j} = δ_ij into canonical normal-ordered form."""
    out = []
    work = [(c, list(ops)) for ops, c in obs._terms.items()]
    while work:
        coeff, ops = work.pop()
        swapped = False
        for i in range(len(ops) - 1):
            a, b = ops[i], ops[i + 1]
            if not a.dagger and b.dagger:
                # c_i c†_j = δ_ij - c†_j c_i
                if a.site == b.site:
                    contracted = ops[:i] + ops[i + 2:]
                    work.append((coeff, contracted))
                work.append((-coeff, ops[:i] + [b, a] + ops[i + 2:]))
                swapped = True
                break
            if a.dagger == b.dagger:
                if a.site == b.site:
                    # c†c† or cc with equal sites vanishes
                    swapped = True
                    break
                if a.site > b.site:
                    # same-species operators anticommute: sort ascending
                    work.append((-coeff, ops[:i] + [b, a] + ops[i + 2:]))
                    swapped = True
                    break
        if not swapped:
            out.append((coeff, tuple(ops)))
    return FermionObservable(out)


# ---------------------------------------------------------------------------
# transforms and the dense oracle

def _jw_ladder(op: LadderOp) -> PauliObservable:
    """c†_j -> (X_j - iY_j)/2 · Z_{j-1}..Z_0 (plus sign for c_j)."""
    bit = 1 << op.site
    x_string = PauliString(x=bit, z=bit - 1)
    y_string = PauliString(x=bit, z=(bit << 1) - 1)
    y_coeff = -0.5j if op.dagger else 0.5j
    return PauliObservable([(0.5, x_string), (y_coeff, y_string)])


def jordan_wigner(obs: FermionObservable) -> PauliObservable:
    """Map a fermionic observable onto Pauli strings; result is simplified."""
    terms = []
    for ops, coeff in obs._terms.items():
        product = PauliObservable.identity(coeff)
        for op in ops:
            product = product * _jw_ladder(op)
        terms.extend((c, s) for s, c in product._terms.items())
    return PauliObservable(terms).simplify()


def fermion_to_dense(obs: FermionObservable, n_modes: int) -> np.ndarray:
    """Literal dense-matrix construction of the observable (test oracle)."""
    n = max(n_modes, obs.num_modes(), 1)
    if n > DENSE_QUBIT_CAP:
        raise ValidationError(f"dense fermion oracle capped at {DENSE_QUBIT_CAP} modes")
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for ops, coeff in obs._terms.items():
        m = coeff * np.eye(dim, dtype=complex)
        for op in ops:
            m = m @ _ladder_dense(op, n)
        out += m
    return out


def _ladder_dense(op: LadderOp, n: int) -> np.ndarray:
    local = _CREATE if op.dagger else _ANNIHILATE
    m = np.ones((1, 1), dtype=complex)
    for k in range(n):
        if k < op.site:
            m = np.kron(m, _Z)
        elif k == op.site:
            m = np.kron(m, local)
        else:
            m = np.kron(m, np.eye(2, dtype=complex))
    return m
