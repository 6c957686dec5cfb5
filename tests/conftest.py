import base64

import numpy as np
import pytest

from qcor_rt import parse_kernel

ANSATZ_1P = "kernel ansatz(t) qubits 2 { X q0; Ry(t) q1; CNOT q1 q0; }"
ANSATZ_2P = "kernel entangler(a,b) qubits 2 { Ry(a) q0; Ry(b) q1; CNOT q0 q1; }"
BELL = "kernel bell() qubits 2 { H q0; CNOT q0 q1; Measure q0; Measure q1; }"


@pytest.fixture
def ansatz_1p():
    return parse_kernel(ANSATZ_1P)


@pytest.fixture
def ansatz_2p():
    return parse_kernel(ANSATZ_2P)


# --- independent dense oracle (kron built directly, no library code) -------

_M = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def oracle_dense(terms, n):
    """terms: iterable of (coeff, {qubit: kind}); qubit 0 = most significant."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, ops in terms:
        m = np.ones((1, 1), dtype=complex)
        for q in range(n):
            m = np.kron(m, _M[ops.get(q, "I")])
        out = out + coeff * m
    return out


def obs_to_oracle_terms(obs):
    return [(t.coefficient, dict(t.string.ops)) for t in obs.terms]


def random_observable(rng, max_qubits=3, max_terms=4):
    from qcor_rt import PauliObservable, PauliString
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        ops = {}
        for q in range(max_qubits):
            kind = rng.choice(["I", "X", "Y", "Z"])
            if kind != "I":
                ops[q] = kind
        coeff = complex(rng.normal(), rng.normal())
        terms.append((coeff, PauliString.from_map(ops)))
    return PauliObservable(terms)


def random_hermitian_observable(rng, max_qubits=3, max_terms=4):
    obs = random_observable(rng, max_qubits, max_terms)
    from qcor_rt import PauliObservable
    # real coefficients on Pauli strings give a Hermitian operator
    return PauliObservable([(t.coefficient.real, t.string) for t in obs.terms])


def decode_real_array(text):
    """The float64 vector a REAL_ARRAY serializes to: base64 of its
    little-endian float64 bytes."""
    return np.frombuffer(base64.b64decode(text), "<f8")


def indexed_outcomes(vec, k):
    """{bitstring: weight} of the nonzero entries of a 2^k outcome vector,
    entry i being outcome format(i, f"0{k}b")."""
    assert len(vec) == 2**k
    return {format(i, f"0{k}b"): p for i, p in enumerate(vec) if p != 0}


def random_bound_kernel(rng, num_qubits=2, depth=6, name="rand"):
    from qcor_rt import GateKind, Instruction, Kernel
    one_q = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
             GateKind.Sdg, GateKind.T, GateKind.Rx, GateKind.Ry, GateKind.Rz]
    body = []
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < 0.3:
            q1, q2 = rng.choice(num_qubits, size=2, replace=False)
            kind = GateKind.CNOT if rng.random() < 0.5 else GateKind.CZ
            body.append(Instruction(kind, (int(q1), int(q2))))
        else:
            kind = one_q[rng.integers(len(one_q))]
            q = int(rng.integers(num_qubits))
            param = float(rng.uniform(-np.pi, np.pi)) if kind.value.startswith("R") else None
            body.append(Instruction(kind, (q,), param))
    return Kernel(name, (), num_qubits, tuple(body))
