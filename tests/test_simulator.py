import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcor_rt import (ExecutionConfig, GateKind, Instruction, Kernel,
                     PauliString, ReadoutNoiseModel,
                     StateVector, ValidationError, apply_gate,
                     exact_distribution, exact_distributions, exact_expectation,
                     execute, parse_kernel, parse_pauli)
from qcor_rt import simulator

from conftest import indexed_outcomes, random_bound_kernel, random_hermitian_observable


def kernel_of(num_qubits, *instrs):
    return Kernel("k", (), num_qubits, tuple(instrs))


class TestApplyGate:
    def test_hadamard(self):
        state = apply_gate(StateVector.zero(1), Instruction(GateKind.H, (0,)))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_x_involution(self):
        s = StateVector.zero(1)
        s = apply_gate(apply_gate(s, Instruction(GateKind.X, (0,))),
                       Instruction(GateKind.X, (0,)))
        assert np.allclose(s.amplitudes, [1, 0])

    def test_ry_against_rotation_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            s = apply_gate(StateVector.zero(1),
                           Instruction(GateKind.Ry, (0,), theta))
            assert np.allclose(s.amplitudes,
                               [math.cos(theta / 2), math.sin(theta / 2)],
                               atol=1e-12)

    def test_norm_preserved_random_circuits(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            k = random_bound_kernel(rng, num_qubits=3, depth=12)
            s = StateVector.zero(3)
            for instr in k.body:
                s = apply_gate(s, instr)
                assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) < 1e-12

    def test_self_inverse_gates(self):
        rng = np.random.default_rng(47)
        start = random_bound_kernel(rng, num_qubits=2, depth=5)
        s0 = StateVector.zero(2)
        for instr in start.body:
            s0 = apply_gate(s0, instr)
        for instr in (Instruction(GateKind.X, (0,)), Instruction(GateKind.Y, (1,)),
                      Instruction(GateKind.Z, (0,)), Instruction(GateKind.H, (1,)),
                      Instruction(GateKind.CNOT, (0, 1)), Instruction(GateKind.CZ, (1, 0))):
            s = apply_gate(apply_gate(s0, instr), instr)
            assert np.allclose(s.amplitudes, s0.amplitudes, atol=1e-10)

    def test_rejects_measure(self):
        with pytest.raises(ValidationError):
            apply_gate(StateVector.zero(1), Instruction(GateKind.Measure, (0,)))

    def test_rejects_unbound(self):
        with pytest.raises(ValidationError):
            apply_gate(StateVector.zero(1), Instruction(GateKind.Ry, (0,), "t"))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_gate(StateVector.zero(1), Instruction(GateKind.X, (1,)))

    def test_cnot_truth_table(self):
        k = kernel_of(2, Instruction(GateKind.X, (0,)),
                      Instruction(GateKind.CNOT, (0, 1)),
                      Instruction(GateKind.Measure, (0,)),
                      Instruction(GateKind.Measure, (1,)))
        counts, _ = execute(k, ExecutionConfig(shots=50, seed=1))
        assert counts == {"11": 50}


class TestExecute:
    def test_deterministic_flip(self):
        k = kernel_of(1, Instruction(GateKind.X, (0,)),
                      Instruction(GateKind.Measure, (0,)))
        counts, meta = execute(k, ExecutionConfig(shots=100, seed=0))
        assert counts == {"1": 100}
        assert meta.get("shots", int) == 100
        assert meta.get("measured-qubits", list) == [0.0]
        assert "wall-time-ms" in meta

    def test_hadamard_binomial(self):
        k = kernel_of(1, Instruction(GateKind.H, (0,)),
                      Instruction(GateKind.Measure, (0,)))
        counts, _ = execute(k, ExecutionConfig(shots=10_000, seed=12))
        sigma = math.sqrt(10_000 * 0.25)
        assert abs(counts["0"] - 5000) <= 5 * sigma

    def test_readout_noise_rate(self):
        k = kernel_of(1, Instruction(GateKind.X, (0,)),
                      Instruction(GateKind.Measure, (0,)))
        cfg = ExecutionConfig(shots=10_000, seed=5,
                              noise=ReadoutNoiseModel(p10=0.1))
        counts, _ = execute(k, cfg)
        sigma = math.sqrt(10_000 * 0.1 * 0.9)
        assert abs(counts["0"] - 1000) <= 5 * sigma

    def test_determinism(self):
        k = kernel_of(2, Instruction(GateKind.H, (0,)),
                      Instruction(GateKind.CNOT, (0, 1)),
                      Instruction(GateKind.Measure, (0,)),
                      Instruction(GateKind.Measure, (1,)))
        cfg = ExecutionConfig(shots=5000, seed=99,
                              noise=ReadoutNoiseModel(p01=0.02, p10=0.05))
        assert execute(k, cfg)[0] == execute(k, cfg)[0]

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(53)
        for i in range(10):
            k = random_bound_kernel(rng, num_qubits=2, depth=6)
            k = k.with_measurement_basis(
                parse_pauli("Z0 Z1").terms[0].string)
            counts, _ = execute(k, ExecutionConfig(shots=777, seed=i))
            assert sum(counts.values()) == 777

    def test_partial_measurement_bitstrings(self):
        k = kernel_of(3, Instruction(GateKind.X, (2,)),
                      Instruction(GateKind.Measure, (2,)))
        counts, _ = execute(k, ExecutionConfig(shots=10, seed=0))
        assert counts == {"1": 10}

    def test_rejects_unmeasured(self):
        k = kernel_of(1, Instruction(GateKind.X, (0,)))
        with pytest.raises(ValidationError):
            execute(k, ExecutionConfig(shots=10))

    def test_rejects_unbound(self):
        k = Kernel("k", ("t",), 1, (Instruction(GateKind.Ry, (0,), "t"),
                                    Instruction(GateKind.Measure, (0,))))
        with pytest.raises(ValidationError):
            execute(k, ExecutionConfig(shots=10))


class TestExactDistribution:
    def test_bell(self):
        k = parse_kernel(
            "kernel bell() qubits 2 { H q0; CNOT q0 q1; Measure q0; Measure q1; }")
        dist = exact_distribution(k)
        assert set(dist) == {"00", "11"}
        assert dist["00"] == pytest.approx(0.5)

    def test_analytic_noise(self):
        k = kernel_of(1, Instruction(GateKind.X, (0,)),
                      Instruction(GateKind.Measure, (0,)))
        dist = exact_distribution(k, ReadoutNoiseModel(p10=0.1))
        assert dist["0"] == pytest.approx(0.1)
        assert dist["1"] == pytest.approx(0.9)


class TestExactDistributions:
    NOISE = ReadoutNoiseModel(p01=0.03, p10=0.08, per_qubit={1: (0.1, 0.2)})

    def test_equals_one_measured_kernel_per_string(self):
        rng = np.random.default_rng(83)
        for trial in range(24):
            n = int(rng.integers(1, 9))
            kernel = random_bound_kernel(rng, num_qubits=n, depth=3 * n)
            strings = [t.string for t in random_hermitian_observable(
                rng, max_qubits=n, max_terms=6).terms if t.string.ops]
            noise = self.NOISE if trial % 2 else None
            got = exact_distributions(kernel, strings, noise)
            assert len(got) == len(strings)
            for string, dist in zip(strings, got):
                want = exact_distribution(kernel.with_measurement_basis(string), noise)
                assert dist.dtype == np.float64
                # bit for bit, not approximately
                assert indexed_outcomes(dist, len(string.qubits)) == want

    def test_evolves_once_and_leaves_the_shared_state_alone(self, monkeypatch):
        states = []  # (shared state, copy taken when it was made)

        def evolve(kernel):
            state = real_evolve(kernel)
            states.append((state, state.copy()))
            return state

        real_evolve = simulator._evolve
        monkeypatch.setattr(simulator, "_evolve", evolve)
        kernel = random_bound_kernel(np.random.default_rng(89), num_qubits=4, depth=12)
        strings = [PauliString.from_map(ops) for ops in
                   ({0: "X"}, {1: "Y", 3: "X"}, {2: "Z"}, {0: "Y", 1: "Y", 2: "X", 3: "Z"},
                    {3: "Y"})]
        exact_distributions(kernel, strings, self.NOISE)
        assert len(states) == 1
        assert np.array_equal(states[0][0], states[0][1])

    def test_rejects_measured_kernel_and_wide_string(self):
        k = kernel_of(2, Instruction(GateKind.H, (0,)))
        with pytest.raises(ValidationError):
            exact_distributions(k.with_measurement_basis(PauliString(z=1)), [])
        with pytest.raises(ValidationError, match="outside"):
            exact_distributions(k, [PauliString(x=4)])
        with pytest.raises(ValidationError):
            exact_distributions(k, [PauliString()])  # identity: nothing to measure


class TestMarginal:
    def test_rejects_drifted_norm(self):
        amps = np.array([1.0, 1.0, 0.0, 1e-4], dtype=complex)
        with pytest.raises(ValidationError, match="norm"):
            simulator._marginal(amps, 2, (0, 1))
        with pytest.raises(ValidationError, match="norm"):
            simulator._marginal(amps / 2, 2, (1,))

    def test_accepts_rounding_and_divides_by_the_sum(self):
        amps = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex) * (1 + 1e-12)
        vec = simulator._marginal(amps, 2, (1,))
        probs = np.abs(amps) ** 2
        want = np.array([probs[0] + probs[2], probs[1] + probs[3]])
        assert np.array_equal(vec, want / want.sum())


class TestExactExpectation:
    def test_zero_state(self):
        k = kernel_of(1)
        assert exact_expectation(k, parse_pauli("Z0")) == pytest.approx(1.0)

    def test_flipped_state(self):
        k = kernel_of(1, Instruction(GateKind.X, (0,)))
        assert exact_expectation(k, parse_pauli("Z0")) == pytest.approx(-1.0)

    def test_ansatz_sweep(self, ansatz_1p):
        obs = parse_pauli("X0 X1")
        values = {}
        for theta in (0.0, math.pi / 4, -math.pi / 4, math.pi / 2,
                      -math.pi / 2, math.pi):
            bound = ansatz_1p.bind([theta])
            got = exact_expectation(bound, obs)
            # dense oracle: statevector times matrix
            psi = np.zeros(4, dtype=complex)
            psi[0] = 1.0
            x = np.array([[0, 1], [1, 0]], dtype=complex)
            ry = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                           [math.sin(theta / 2), math.cos(theta / 2)]],
                          dtype=complex)
            cnot_ctrl1 = np.zeros((4, 4), dtype=complex)  # control q1, target q0
            for i in range(4):
                q0, q1 = i >> 1, i & 1
                j = ((q0 ^ q1) << 1) | q1
                cnot_ctrl1[j, i] = 1
            u = cnot_ctrl1 @ np.kron(np.eye(2), ry) @ np.kron(x, np.eye(2))
            want = np.vdot(u @ psi, np.kron(x, x) @ (u @ psi)).real
            assert got == pytest.approx(want, abs=1e-10)
            values[theta] = got
        assert min(values.values()) == pytest.approx(-1.0, abs=1e-10)

    def test_sampled_matches_exact(self):
        rng = np.random.default_rng(59)
        shots = 100_000
        for i in range(5):
            k = random_bound_kernel(rng, num_qubits=2, depth=6)
            obs = parse_pauli("X0 Y1")
            exact = exact_expectation(k, obs)
            pairs, _ = obs.observe(k)
            term, measured = pairs[0]
            counts, _ = execute(measured, ExecutionConfig(shots=shots, seed=i))
            from qcor_rt import expectation_from_counts
            sampled = expectation_from_counts(term, counts)
            assert abs(sampled - exact) <= 5 / math.sqrt(shots)

    def test_rejects_non_hermitian(self):
        k = kernel_of(1)
        with pytest.raises(ValidationError):
            exact_expectation(k, parse_pauli("(0,1) Z0"))

    def test_rejects_measured(self):
        k = kernel_of(1, Instruction(GateKind.Measure, (0,)))
        with pytest.raises(ValidationError):
            exact_expectation(k, parse_pauli("Z0"))


class TestNoiseModel:
    def test_probability_bounds(self):
        for bad in ({"p01": 1.5}, {"p10": float("nan")}, {"p01": "x"}, {"p10": None},
                    {"per_qubit": {0: (0.1, -0.2)}}, {"per_qubit": {0: (0.1, "x")}}):
            with pytest.raises(ValidationError, match=r"in \[0, 1\]"):
                ReadoutNoiseModel(**bad)
        for bad in ((0.1,), (0.1, 0.2, 0.3), 0.1, None):
            with pytest.raises(ValidationError, match="pair"):
                ReadoutNoiseModel(per_qubit={0: bad})
        with pytest.raises(ValidationError, match="pair"):
            ReadoutNoiseModel(per_qubit=[(0.1, 0.2)])

    def test_per_qubit_override(self):
        noise = ReadoutNoiseModel(p01=0.1, p10=0.2, per_qubit={1: (0.0, 0.5)})
        assert noise.probs(0) == (0.1, 0.2)
        assert noise.probs(1) == (0.0, 0.5)

    def test_confusion_matrix(self):
        m = ReadoutNoiseModel(p01=0.05, p10=0.10).confusion_matrix(0)
        assert np.allclose(m, [[0.95, 0.10], [0.05, 0.90]])

    def test_noisy_distribution_equals_array_matrices(self):
        """Readout noise applied from cached float tuples is bit-identical to
        applying the model's confusion matrices as arrays, whatever the
        number types of the probabilities; a float32 pair and the equal
        float64 pair (same hash, different 1 - p) are cached apart."""
        simulator._confusion_floats.cache_clear()
        rng = np.random.default_rng(313)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        f32 = (np.float32(0.03), np.float32(0.08))
        pairs = [(0.03, 0.08), f32, tuple(map(float, f32)), (0, 1), (np.float16(0.1), 0.25)]
        for pair, measured in itertools.product(pairs, ((0, 1, 2, 3), (1, 2), (3,))):
            for noise in (ReadoutNoiseModel(*pair), ReadoutNoiseModel(per_qubit={2: pair})):
                got = simulator._distribution(amps, 4, measured, noise)
                vec = simulator._marginal(amps, 4, measured)
                want = simulator.apply_per_qubit(
                    vec, [noise.confusion_matrix(q) for q in measured])
                assert got.tobytes() == want.tobytes(), (pair, measured)


def _format_loop_map(vec, k):
    """The reference labelling: one format call per nonzero outcome."""
    nonzero = np.flatnonzero(vec)
    return dict(zip([format(i, f"0{k}b") for i in nonzero.tolist()], vec[nonzero].tolist()))


class TestBitstringMap:
    @pytest.mark.parametrize("k", range(13))
    def test_equals_format_loop_in_keys_and_order(self, k):
        rng = np.random.default_rng(7000 + k)
        n = 1 << k
        sparse = np.zeros(n, dtype=np.int64)
        hits = rng.choice(n, size=min(n, 5), replace=False)
        sparse[hits] = rng.integers(1, 100, size=len(hits))
        sparse_probs = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
        vectors = [sparse, rng.integers(1, 1000, size=n, dtype=np.int64),
                   sparse_probs, rng.dirichlet(np.ones(n))]
        for vec in vectors:
            got = simulator.bitstring_map(vec, k)
            want = _format_loop_map(vec, k)
            assert list(got.items()) == list(want.items())
            assert all(type(key) is str for key in got)
        assert simulator.bitstring_map(np.zeros(n), k) == {}


def _loop_readout_flips(counts_vec, measured, noise, rng):
    """Per-shot reference model of readout noise: every shot's bit on each
    measured qubit flips independently, drawn outcome by outcome."""
    k = len(measured)
    counts = counts_vec.astype(np.int64)
    for pos, q in enumerate(measured):
        p01, p10 = noise.probs(q)
        if p01 == 0.0 and p10 == 0.0:
            continue
        bit = 1 << (k - 1 - pos)
        new = np.zeros_like(counts)
        for i in np.nonzero(counts)[0]:
            c = int(counts[i])
            p = p10 if i & bit else p01
            flipped = int(rng.binomial(c, p)) if p > 0.0 else 0
            new[i] += c - flipped
            new[i ^ bit] += flipped
        counts = new
    return counts


def _random_noisy_case(rng):
    """A random bound kernel of <= 6 qubits measuring a random subset, and a
    noise model with random per-qubit overrides."""
    probs = (0.0, 0.5, 0.02, 0.3)
    n = int(rng.integers(1, 7))
    kernel = random_bound_kernel(rng, num_qubits=n, depth=3 * n)
    measured = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    kernel = Kernel(kernel.name, (), n, kernel.body + tuple(
        Instruction(GateKind.Measure, (q,)) for q in measured))
    overrides = {q: (probs[rng.integers(4)], probs[rng.integers(4)])
                 for q in measured if rng.random() < 0.4}
    noise = ReadoutNoiseModel(p01=probs[rng.integers(4)], p10=probs[rng.integers(4)],
                              per_qubit=overrides or None)
    return kernel, noise


def _dense(dist, k):
    vec = np.zeros(2**k)
    for bits, p in dist.items():
        vec[int(bits, 2)] = p
    return vec


class TestNoisySampling:
    """Readout noise acts once, on the outcome vector: sampled counts are a
    multinomial draw from the distribution exact mode publishes."""

    def test_counts_are_a_draw_from_the_noisy_distribution(self):
        rng = np.random.default_rng(211)
        for case in range(100):
            kernel, noise = _random_noisy_case(rng)
            k = len(kernel.measured_qubits())
            shots, seed = int(rng.integers(1, 3000)), int(rng.integers(2**32))
            counts, _ = execute(kernel, ExecutionConfig(shots=shots, seed=seed, noise=noise))
            v = _dense(exact_distribution(kernel, noise), k)
            want = np.random.default_rng(seed).multinomial(shots, v)
            assert counts == indexed_outcomes(want.tolist(), k), case

    def test_pooled_counts_match_per_shot_flips(self):
        rng = np.random.default_rng(223)
        shots, seeds = 400, 200
        for case in range(4):
            kernel, noise = _random_noisy_case(rng)
            k = len(kernel.measured_qubits())
            clean = _dense(exact_distribution(kernel), k)
            got, want = np.zeros(2**k), np.zeros(2**k)
            for seed in range(seeds):
                counts, _ = execute(kernel, ExecutionConfig(shots=shots, seed=seed, noise=noise))
                got += _dense(counts, k)
                loop_rng = np.random.default_rng(10_000 + seed)
                want += _loop_readout_flips(loop_rng.multinomial(shots, clean),
                                            kernel.measured_qubits(), noise, loop_rng)
            p = _dense(exact_distribution(kernel, noise), k)
            sigma = np.sqrt(2 * shots * seeds * p * (1 - p))
            assert (np.abs(got - want) <= 5 * sigma).all(), case


class TestExecutionConfig:
    @pytest.mark.parametrize("shots", [0, -3, 2.5, 10**19, 2**63, True, "10"])
    def test_rejects_bad_shots(self, shots):
        with pytest.raises(ValidationError):
            ExecutionConfig(shots=shots)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, False])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError):
            ExecutionConfig(seed=seed)

    def test_accepts_bounds(self):
        assert ExecutionConfig(shots=2**63 - 1, seed=2**64).shots == 2**63 - 1
        assert ExecutionConfig(shots=np.int64(5), seed=np.uint32(7)).seed == 7


# --- the in-place gate primitive against dense kron-built matrices ---------

_R2 = 1 / math.sqrt(2)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_DENSE_1Q = {
    GateKind.X: lambda t: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: lambda t: np.array([[0, -1j], [1j, 0]]),
    GateKind.Z: lambda t: np.diag([1, -1]).astype(complex),
    GateKind.H: lambda t: np.array([[1, 1], [1, -1]], dtype=complex) * _R2,
    GateKind.S: lambda t: np.diag([1, 1j]),
    GateKind.Sdg: lambda t: np.diag([1, -1j]),
    GateKind.T: lambda t: np.diag([1, (1 + 1j) * _R2]),
    GateKind.Rx: lambda t: np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                                     [-1j * math.sin(t / 2), math.cos(t / 2)]]),
    GateKind.Ry: lambda t: np.array([[math.cos(t / 2), -math.sin(t / 2)],
                                     [math.sin(t / 2), math.cos(t / 2)]], dtype=complex),
    GateKind.Rz: lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]),
}
_ROTATION_KINDS = (GateKind.Rx, GateKind.Ry, GateKind.Rz)
_UNITARY_KINDS = sorted(set(_DENSE_1Q) | {GateKind.CNOT, GateKind.CZ}, key=lambda k: k.value)


def _kron_on(n, factors):
    """Dense 2^n matrix of {qubit: 2x2} factors, identity elsewhere, qubit 0 leftmost."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def _dense_gate(n, kind, qubits, theta):
    if kind is GateKind.CNOT:
        c, t = qubits
        return _kron_on(n, {c: _P0}) + _kron_on(n, {c: _P1, t: _DENSE_1Q[GateKind.X](None)})
    if kind is GateKind.CZ:
        c, t = qubits
        return np.eye(2**n) - 2 * _kron_on(n, {c: _P1, t: _P1})
    return _kron_on(n, {qubits[0]: _DENSE_1Q[kind](theta)})


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 8))
    kinds = [k for k in _UNITARY_KINDS if n > 1 or k not in (GateKind.CNOT, GateKind.CZ)]
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind in (GateKind.CNOT, GateKind.CZ):
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        theta = (draw(st.floats(-2 * math.pi, 2 * math.pi)) if kind in _ROTATION_KINDS
                 else None)
        gates.append((kind, qubits, theta))
    return n, gates


_EVERY_KIND = (5, [(GateKind.H, (0,), None), (GateKind.Rx, (1,), 0.3), (GateKind.Ry, (2,), -1.1),
                   (GateKind.X, (3,), None), (GateKind.Y, (4,), None), (GateKind.CNOT, (0, 3), None),
                   (GateKind.CNOT, (4, 1), None), (GateKind.CZ, (1, 4), None),
                   (GateKind.CZ, (3, 0), None), (GateKind.Z, (2,), None), (GateKind.S, (0,), None),
                   (GateKind.Sdg, (1,), None), (GateKind.T, (4,), None), (GateKind.Rz, (3,), 2.5),
                   (GateKind.CNOT, (2, 3), None), (GateKind.CNOT, (3, 2), None)])


class TestGatePrimitiveAgainstDenseOracle:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(circuit=_circuits())
    @example(circuit=_EVERY_KIND)
    def test_evolve_equals_product_of_kron_matrices(self, circuit):
        n, gates = circuit
        kernel = kernel_of(n, *(Instruction(kind, qubits, theta) for kind, qubits, theta in gates))
        want = np.zeros(2**n, dtype=complex)
        want[0] = 1.0
        for kind, qubits, theta in gates:
            want = _dense_gate(n, kind, qubits, theta) @ want
        got = simulator._evolve(kernel)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(k=st.integers(1, 8), data=st.data())
    def test_apply_per_qubit_equals_kron_and_copies(self, k, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shapes = data.draw(st.lists(st.sampled_from(["general", "diagonal", "identity",
                                                     "hadamard"]), min_size=k, max_size=k))
        matrices = []
        for shape in shapes:
            m = rng.uniform(-1, 1, size=(2, 2))
            if shape == "diagonal":
                m = np.diag(np.diag(m))
            elif shape == "identity":
                m = np.eye(2)
            elif shape == "hadamard":
                m = m[0, 0] * np.array([[1.0, 1.0], [1.0, -1.0]])
            matrices.append(m)
        vec = rng.uniform(-1, 1, size=2**k)
        before = vec.copy()
        dense = np.ones((1, 1))
        for m in matrices:
            dense = np.kron(dense, m)
        got = simulator.apply_per_qubit(vec, matrices)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - dense @ vec)) <= 1e-12
        assert np.array_equal(vec, before)
