"""Shot-sampling statevector simulator with an optional readout noise model.

Conventions: qubit 0 is the most significant bit of a state index and the
leftmost character of result bitstrings; bitstrings contain only measured
qubits, in ascending qubit order.  Sampling computes the exact marginal
distribution over measured qubits, applies the readout noise model to it as
per-qubit confusion matrices, and draws a multinomial: statistically
identical to per-shot collapse followed by independent per-shot bit flips,
because measurement is terminal.
"""

from __future__ import annotations

import cmath
import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .kernel import BASIS_CHANGE, ROTATION_GATES, TWO_QUBIT_GATES, GateKind, Instruction, Kernel
from .pauli import DENSE_QUBIT_CAP, PauliObservable
from .results import HeterogeneousMap

MAX_QUBITS = 24
MAX_SHOTS = 2**63 - 1  # multinomial draws count in int64
NORM_TOL = 1e-10  # largest |sum of probabilities - 1| a final state may have
GENERATOR_NAME = "pcg64"

_SQ2 = 1.0 / math.sqrt(2.0)
# 2x2 matrices as ((m00, m01), (m10, m11)), row = output basis state
_FIXED_1Q = {
    GateKind.X: ((0, 1), (1, 0)),
    GateKind.Y: ((0, -1j), (1j, 0)),
    GateKind.Z: ((1, 0), (0, -1)),
    GateKind.H: ((_SQ2, _SQ2), (_SQ2, -_SQ2)),
    GateKind.S: ((1, 0), (0, 1j)),
    GateKind.Sdg: ((1, 0), (0, -1j)),
    GateKind.T: ((1, 0), (0, cmath.exp(0.25j * math.pi))),
}
_ROTATIONS = {
    GateKind.Rx: lambda t: ((math.cos(t / 2), -1j * math.sin(t / 2)),
                            (-1j * math.sin(t / 2), math.cos(t / 2))),
    GateKind.Ry: lambda t: ((math.cos(t / 2), -math.sin(t / 2)),
                            (math.sin(t / 2), math.cos(t / 2))),
    GateKind.Rz: lambda t: ((cmath.exp(-0.5j * t), 0), (0, cmath.exp(0.5j * t))),
}
# per Pauli kind, the matrices of its basis change, in the order applied
_BASIS_MATRICES = {kind: tuple(_FIXED_1Q[g] for g in gates)
                   for kind, gates in BASIS_CHANGE.items()}


@dataclass
class ReadoutNoiseModel:
    """Independent per-qubit readout bit flips.

    p01 = P(measure 1 | true 0), p10 = P(measure 0 | true 1).  `per_qubit`
    overrides the global pair for specific qubits.
    """

    p01: float = 0.0
    p10: float = 0.0
    per_qubit: dict | None = None

    def __post_init__(self):
        if not isinstance(self.per_qubit, (Mapping, type(None))):
            raise ValidationError(f"per_qubit must map qubits to pairs, got {self.per_qubit!r}")
        for q, pair in (self.per_qubit or {}).items():
            try:
                a, b = pair
            except (TypeError, ValueError) as e:
                raise ValidationError(f"per_qubit[{q!r}] is not a (p01, p10) pair: {pair!r}") from e
            _check_prob(a, f"p01[q{q}]")
            _check_prob(b, f"p10[q{q}]")
        _check_prob(self.p01, "p01")
        _check_prob(self.p10, "p10")

    def probs(self, qubit: int) -> tuple:
        if self.per_qubit and qubit in self.per_qubit:
            return tuple(self.per_qubit[qubit])
        return (self.p01, self.p10)

    def confusion_matrix(self, qubit: int) -> np.ndarray:
        """Exact 2x2 column-stochastic matrix M[observed][true]."""
        p01, p10 = self.probs(qubit)
        return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_prob(p, name):
    if not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} must be a number in [0, 1], got {p!r}")


@dataclass
class ExecutionConfig:
    shots: int = 1024
    seed: int = 0
    noise: ReadoutNoiseModel | None = None
    exact: bool = False

    def __post_init__(self):
        if not _is_int(self.shots) or not 1 <= self.shots <= MAX_SHOTS:
            raise ValidationError(
                f"shots must be an integer in [1, {MAX_SHOTS}], got {self.shots!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError(
                f"seed must be a non-negative integer, got {self.seed!r}")

    def with_seed(self, seed: int) -> "ExecutionConfig":
        return replace(self, seed=seed)


@dataclass
class StateVector:
    amplitudes: np.ndarray
    num_qubits: int

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValidationError(f"qubit count must lie in [1, {MAX_QUBITS}]")
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps, num_qubits)


def _apply_1q(vec: np.ndarray, q: int, m) -> None:
    """Apply the 2x2 matrix m to bit q (0 = most significant) of every index
    of the contiguous vector vec, in place, on a strided (1 << q, 2, -1) view.
    A diagonal m scales only the half (or halves) it changes; a Hadamard-like
    m (c times ((1, 1), (1, -1))) takes a sum and a difference."""
    (m00, m01), (m10, m11) = m
    view = vec.reshape(1 << q, 2, -1)
    a0, a1 = view[:, 0], view[:, 1]
    if m01 == 0 and m10 == 0:
        if m00 != 1:
            a0 *= m00
        if m11 != 1:
            a1 *= m11
        return
    if m00 == m01 == m10 == -m11:
        t = a0 - a1
        a0 += a1
        a0 *= m00
        np.multiply(t, m00, out=a1)
        return
    t = a0.copy()
    a0 *= m00
    a0 += m01 * a1
    a1 *= m11
    a1 += m10 * t


def _apply(amps: np.ndarray, instr: Instruction) -> None:
    """Apply one bound, unitary instruction to the state amps, in place."""
    if instr.kind not in TWO_QUBIT_GATES:
        mat = (_ROTATIONS[instr.kind](instr.param) if instr.kind in ROTATION_GATES
               else _FIXED_1Q[instr.kind])
        _apply_1q(amps, instr.qubits[0], mat)
        return
    lo, hi = sorted(instr.qubits)
    view = amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    ones = view[:, 1, :, 1]
    if instr.kind is GateKind.CZ:
        ones *= -1
        return
    # CNOT: swap the target's 0 and 1 slices where the control is 1
    zero = view[:, 1, :, 0] if instr.qubits[0] == lo else view[:, 0, :, 1]
    t = zero.copy()
    zero[...] = ones
    ones[...] = t


def apply_gate(state: StateVector, instr: Instruction) -> StateVector:
    """Pure single-instruction application; returns a new StateVector."""
    if instr.kind is GateKind.Measure:
        raise ValidationError("apply_gate cannot apply Measure")
    if not instr.is_bound():
        raise ValidationError(f"unbound parameter {instr.param!r}")
    for q in instr.qubits:
        if q >= state.num_qubits:
            raise ValidationError(f"qubit q{q} out of range")
    amps = np.array(state.amplitudes, dtype=complex)
    _apply(amps, instr)
    return StateVector(amps, state.num_qubits)


def _evolve(kernel: Kernel) -> np.ndarray:
    if kernel.params:
        raise ValidationError(f"kernel {kernel.name!r} has free parameters {kernel.params}")
    if kernel.num_qubits > MAX_QUBITS:
        raise ValidationError(f"simulator capped at {MAX_QUBITS} qubits")
    amps = np.zeros(2**kernel.num_qubits, dtype=complex)
    amps[0] = 1.0
    for instr in kernel.body:
        if instr.kind is not GateKind.Measure:
            _apply(amps, instr)
    return amps


def _marginal(amps: np.ndarray, n: int, measured: tuple, probs=None) -> np.ndarray:
    """Probability vector over the measured qubits (ascending) of an n-qubit
    state, reduced from `probs`, its |amps|^2 when the caller has them; a
    state whose norm has drifted past NORM_TOL is rejected."""
    if not measured:
        raise ValidationError("no qubits are measured")
    probs = (np.abs(amps) ** 2 if probs is None else probs).reshape([2] * n)
    drop = tuple(q for q in range(n) if q not in measured)
    if drop:
        probs = probs.sum(axis=drop)
    vec = probs.reshape(-1)
    total = vec.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm drifted: probabilities sum to {total!r}")
    return vec / total


def apply_per_qubit(vec: np.ndarray, matrices) -> np.ndarray:
    """Apply the i-th real 2x2 matrix to bit position i (leftmost first) of a
    copy of a 2^k vector of outcome weights, for k = len(matrices): readout
    noise with confusion matrices, its mitigation with their inverses."""
    out = np.array(vec, dtype=float)
    for pos, mat in enumerate(matrices):
        _apply_1q(out, pos, mat)
    return out


def _distribution(amps: np.ndarray, n: int, measured: tuple, noise,
                  probs=None) -> np.ndarray:
    """Outcome vector over `measured` after readout noise: the one place
    where the noise model acts, for exact results and for sampling alike."""
    vec = _marginal(amps, n, measured, probs)
    if noise is not None:
        vec = apply_per_qubit(vec, [noise.confusion_matrix(q) for q in measured])
    return vec


def bitstring_map(vec: np.ndarray, k: int) -> dict:
    """The nonzero entries of a 2^k outcome vector keyed format(i, f"0{k}b")."""
    nonzero = np.flatnonzero(vec)
    return dict(zip([format(i, f"0{k}b") for i in nonzero.tolist()], vec[nonzero].tolist()))


def exact_distribution(kernel: Kernel, noise: ReadoutNoiseModel | None = None) -> dict:
    """Exact outcome distribution over measured qubits, optionally corrupted
    analytically by the readout noise model."""
    measured = kernel.measured_qubits()
    return bitstring_map(_distribution(_evolve(kernel), kernel.num_qubits, measured, noise),
                         len(measured))


def exact_distributions(kernel: Kernel, strings, noise: ReadoutNoiseModel | None = None) -> list:
    """Per Pauli string s, `exact_distribution(kernel.with_measurement_basis(s), noise)`
    as a float64 vector (entry i: outcome format(i, f"0{k}b")), from one evolution."""
    if kernel.is_measured():
        raise ValidationError("exact_distributions requires an unmeasured kernel")
    n = kernel.num_qubits
    state = _evolve(kernel)
    state_probs = None  # |state|^2, computed once for every string without X or Y
    out = []
    for string in strings:
        if string.qubits and string.qubits[-1] >= n:
            raise ValidationError(f"qubit {string.qubits[-1]} outside the {n}-qubit kernel")
        if string.x:  # an X or Y factor: rotate a copy onto the Z basis
            amps = state.copy()
            for q, kind in string.ops:
                for mat in _BASIS_MATRICES[kind]:
                    _apply_1q(amps, q, mat)
            out.append(_distribution(amps, n, string.qubits, noise))
            continue
        if state_probs is None:
            state_probs = np.abs(state) ** 2
        out.append(_distribution(state, n, string.qubits, noise, state_probs))
    return out


def execute(kernel: Kernel, config: ExecutionConfig):
    """Run a bound, measured kernel; returns (counts, metadata)."""
    start = time.perf_counter()
    measured = kernel.measured_qubits()
    vec = _distribution(_evolve(kernel), kernel.num_qubits, measured, config.noise)
    counts, metadata = sample_counts(vec, measured, config, start)
    return bitstring_map(counts, len(measured)), metadata


def sample_counts(vec: np.ndarray, measured: tuple, config: ExecutionConfig, start: float):
    """(counts, metadata) of `config.shots` seeded draws from the outcome
    vector `vec` over `measured`, readout noise already applied: counts is an
    int64 vector indexed like `vec`, and "wall-time-ms" counts from `start`,
    a perf_counter reading."""
    counts = np.random.default_rng(config.seed).multinomial(config.shots, vec)
    metadata = HeterogeneousMap({
        "shots": config.shots,
        "seed": config.seed,
        "measured-qubits": list(measured),
        "generator": GENERATOR_NAME,
        "wall-time-ms": (time.perf_counter() - start) * 1e3,
    })
    return counts, metadata


def exact_expectation(kernel: Kernel, obs: PauliObservable) -> float:
    """Dense <psi|O|psi> for a bound, unmeasured kernel of <= 10 qubits."""
    if kernel.is_measured():
        raise ValidationError("exact_expectation requires an unmeasured kernel")
    if kernel.num_qubits > DENSE_QUBIT_CAP:
        raise ValidationError(f"exact expectation capped at {DENSE_QUBIT_CAP} qubits")
    if obs.num_qubits() > kernel.num_qubits:
        raise ValidationError("observable is wider than the kernel")
    psi = _evolve(kernel)
    val = np.vdot(psi, obs.to_dense(kernel.num_qubits) @ psi)
    if abs(val.imag) > 1e-10:
        raise ValidationError(
            f"observable is not Hermitian (imaginary expectation {val.imag:.3e})"
        )
    return float(val.real)
