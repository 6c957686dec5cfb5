"""Independent numpy reference used by the benchmark's correctness checks.

Nothing here calls the program: the checks compare the program's outputs
with a statevector simulator on strided views, a Pauli expectation computed
from x/z bit masks, and the closed-form Jordan-Wigner images of number,
hopping and density-density terms.  Qubit 0 is the most significant bit of
a state index, as in the program.
"""

from __future__ import annotations

import math

import numpy as np

_R2 = 1.0 / math.sqrt(2.0)
# the gates of the ansatz and of the Pauli basis changes
_FIXED = {
    "H": ((_R2, _R2), (_R2, -_R2)),
    "Sdg": ((1, 0), (0, -1j)),
}


def gate_matrix(kind: str, theta: float | None = None):
    if kind in _FIXED:
        return _FIXED[kind]
    if kind == "Ry":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return ((c, -s), (s, c))
    raise ValueError(f"no reference matrix for {kind}")


def apply_1q(vec: np.ndarray, n: int, q: int, m) -> None:
    """Apply a 2x2 matrix to qubit q of a length-2^n vector, in place."""
    view = vec.reshape(1 << q, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m[0][0] * a0 + m[0][1] * a1
    view[:, 1, :] = m[1][0] * a0 + m[1][1] * a1


def simulate(n: int, gates, angles) -> np.ndarray:
    """Statevector after `gates` [(kind, qubits, param index)] from |0..0>."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for kind, qubits, param in gates:
        if kind == "CNOT":
            c, t = qubits
            cube = psi.reshape([2] * n)
            one = [slice(None)] * n
            one[c] = 1
            zero_t, one_t = list(one), list(one)
            zero_t[t], one_t[t] = 0, 1
            lower = cube[tuple(zero_t)].copy()
            cube[tuple(zero_t)] = cube[tuple(one_t)]
            cube[tuple(one_t)] = lower
        else:
            theta = None if param is None else angles[param]
            apply_1q(psi, n, qubits[0], gate_matrix(kind, theta))
    return psi


def marginal(psi: np.ndarray, n: int, measured) -> np.ndarray:
    """Outcome probabilities over `measured` qubits (ascending, first = MSB)."""
    probs = (psi.real ** 2 + psi.imag ** 2).reshape([2] * n)
    drop = tuple(q for q in range(n) if q not in measured)
    return probs.sum(axis=drop).reshape(-1) if drop else probs.reshape(-1)


def pauli_expectation(psi: np.ndarray, n: int, ops) -> float:
    """<psi|P|psi> for P = prod of (qubit, kind) factors, via x/z masks:
    P|i> = i^{#Y} (-1)^{|i & z|} |i ^ x>."""
    x = z = ny = 0
    for q, kind in ops:
        bit = 1 << (n - 1 - q)
        if kind in "XY":
            x |= bit
        if kind in "YZ":
            z |= bit
        ny += kind == "Y"
    idx = np.arange(1 << n)
    sign = 1 - 2 * (np.bitwise_count(idx & z) & 1).astype(float)
    return float((1j ** ny * np.vdot(psi[idx ^ x], sign * psi)).real)


def jordan_wigner_h10(spec) -> dict:
    """Closed-form JW of H10 as {((qubit, kind), ...): coefficient}.

    n_i -> (I - Z_i)/2; t (a+_i a_j + a+_j a_i) -> t/2 (X Z..Z X + Y Z..Z Y);
    v n_i n_j -> v/4 (I - Z_i - Z_j + Z_i Z_j).
    """
    out: dict = {}

    def add(ops, c):
        out[ops] = out.get(ops, 0.0) + c

    for i, e in enumerate(spec["number"]):
        add((), e / 2)
        add(((i, "Z"),), -e / 2)
    for (i, j), t in spec["hop"].items():
        zs = tuple((k, "Z") for k in range(i + 1, j))
        add(((i, "X"),) + zs + ((j, "X"),), t / 2)
        add(((i, "Y"),) + zs + ((j, "Y"),), t / 2)
    for (i, j), v in spec["dens"].items():
        add((), v / 4)
        add(((i, "Z"),), -v / 4)
        add(((j, "Z"),), -v / 4)
        add(((i, "Z"), (j, "Z")), v / 4)
    return out


def energy(psi: np.ndarray, n: int, paulis: dict) -> float:
    return sum(c * (pauli_expectation(psi, n, ops) if ops else 1.0)
               for ops, c in paulis.items())


def qwc_groups(paulis: dict) -> int:
    """Greedy qubit-wise-commuting groups of the non-identity strings, taken
    in (qubits, kinds) order."""
    strings = sorted((ops for ops in paulis if ops),
                     key=lambda ops: (tuple(q for q, _ in ops), tuple(k for _, k in ops)))
    groups: list = []
    for ops in strings:
        mine = dict(ops)
        for g in groups:
            if all(g.get(q, k) == k for q, k in mine.items()):
                g.update(mine)
                break
        else:
            groups.append(dict(mine))
    return len(groups)


_BASIS = {"X": ("H",), "Y": ("Sdg", "H"), "Z": ()}


def mitigation_weights(measured, support, calibration) -> np.ndarray:
    """g with sum_x g(x) f(x) = the parity of `support` after inverting
    `calibration[q]` on each measured qubit, for outcome frequencies f over
    `measured` (ascending).  For M = [[a, b], [c, d]] the inverse is
    [[d, -b], [-c, a]] / det, so a support qubit weighs (M^-1)^T (1, -1) =
    (d + c, -b - a) / det and any other measured qubit (1, 1)."""
    g = np.ones(1)
    for q in measured:
        if q in support:
            (a, b), (c, d) = calibration[q]
            g = np.kron(g, np.array([d + c, -b - a]) / (a * d - b * c))
        else:
            g = np.kron(g, np.ones(2))
    return g


def mitigated_estimate(counts: dict, measured, support, calibration) -> float:
    """Readout-mitigated parity of `support` from shot counts over `measured`."""
    k = len(measured)
    freq = np.zeros(1 << k)
    for bits, c in counts.items():
        freq[int(bits, 2)] = c
    return float(mitigation_weights(measured, support, calibration) @ freq / freq.sum())


def mitigated_moments(psi: np.ndarray, n: int, ops, true_noise, calibration,
                      shots: int) -> tuple:
    """Mean and standard deviation of `mitigated_estimate` for one term.

    The term's support is measured in its Pauli basis, readout flips with
    confusion matrix `true_noise` [[1-p01, p10], [p01, 1-p10]] act on every
    measured qubit, and the estimate is linear in the outcome frequencies,
    so its moments follow from the noisy outcome distribution.
    """
    rotated = psi.copy()
    for q, kind in ops:
        for gate in _BASIS[kind]:
            apply_1q(rotated, n, q, gate_matrix(gate))
    support = [q for q, _ in ops]
    noisy = marginal(rotated, n, support)
    for pos in range(len(support)):
        apply_1q(noisy, len(support), pos, true_noise)
    g = mitigation_weights(support, support, calibration)
    mean = float(g @ noisy)
    var = max(float((g * g) @ noisy) - mean * mean, 0.0) / shots
    return mean, math.sqrt(var)


def parse_string(text: str) -> tuple:
    """((qubit, kind), ...) from a Pauli string printed as "X0 Z1 Y3"."""
    return tuple((int(tok[1:]), tok[0]) for tok in text.split() if tok != "I")
