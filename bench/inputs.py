"""Seeded input generators for the benchmark workloads.

Every generator returns both the text the program parses and a plain
Python description of the same input, which the numpy reference in
`reference.py` consumes without going through the program's parsers.
The structure of every input (modes, terms, gate counts and kinds) is
fixed; the seed only draws coefficients, angles, placements and points.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

H10_MODES = 10
ANSATZ_LAYERS = 2

DIAGONAL = ("Z", "S", "Sdg", "T", "Rz", "CZ")


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one (stream, index) pair of a workload seed."""
    return np.random.default_rng([seed, stream, index])


def seed_for(seed: int, stream: int, index: int) -> int:
    """Independent 32-bit program seed for one (stream, index) pair."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def h10(seed: int):
    """The H10 fermion Hamiltonian: a number term per mode, plus hopping and
    density-density terms for every pair of modes, normal(0, 1) coefficients.

    Returns (text, spec) with spec = {"number": [e_i], "hop": {(i, j): t},
    "dens": {(i, j): v}}.
    """
    rng = rng_for(seed, 0)
    pairs = list(combinations(range(H10_MODES), 2))
    number = [float(x) for x in rng.normal(size=H10_MODES)]
    hop = {p: float(x) for p, x in zip(pairs, rng.normal(size=len(pairs)))}
    dens = {p: float(x) for p, x in zip(pairs, rng.normal(size=len(pairs)))}
    parts = [(e, f"{i}^ {i}") for i, e in enumerate(number)]
    for (i, j), t in hop.items():
        parts += [(t, f"{i}^ {j}"), (t, f"{j}^ {i}")]
    parts += [(v, f"{i}^ {i} {j}^ {j}") for (i, j), v in dens.items()]
    # repr keeps a '.' or an exponent, which the parser needs to read a
    # coefficient rather than a mode index
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)!r} {ops}" for c, ops in parts)
    return text, {"number": number, "hop": hop, "dens": dens}


def ansatz():
    """Layers of Ry on every qubit followed by a CNOT chain.

    Returns (text, gates, num_params); gates are (kind, qubits, param index).
    """
    n = H10_MODES
    gates = []
    for layer in range(ANSATZ_LAYERS):
        gates += [("Ry", (q,), layer * n + q) for q in range(n)]
        gates += [("CNOT", (q, q + 1), None) for q in range(n - 1)]
    num_params = ANSATZ_LAYERS * n
    return kernel_text("ansatz", n, gates, num_params, ()), gates, num_params


def kernel_text(name, n, gates, num_params, measured) -> str:
    params = ",".join(f"t{i}" for i in range(num_params))
    lines = [f"kernel {name}({params}) qubits {n} {{"]
    for kind, qubits, param in gates:
        gate = kind if param is None else f"{kind}(t{param})"
        lines.append(f"  {gate} {' '.join(f'q{q}' for q in qubits)};")
    lines += [f"  Measure q{q};" for q in measured]
    lines.append("}")
    return "\n".join(lines)


def angles(seed: int, stream: int, index: int, count: int) -> list:
    """`count` angles uniform in [-pi, pi) for one operation."""
    return [float(x) for x in rng_for(seed, stream, index).uniform(-math.pi, math.pi, count)]


def gate_mix(gates) -> dict:
    """Gate count and the shares of diagonal, CNOT and general one-qubit
    gates in a gate list."""
    n = len(gates)
    diagonal = sum(kind in DIAGONAL for kind, _, _ in gates) / n
    cnot = sum(kind == "CNOT" for kind, _, _ in gates) / n
    return {"gates_per_circuit": n, "diagonal_share": diagonal, "cnot_share": cnot,
            "general_1q_share": 1.0 - diagonal - cnot}
