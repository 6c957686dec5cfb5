import numpy as np
import pytest

from qcor_rt import (ExecutionConfig, Kernel, ParseError, PauliObservable,
                     PauliString, PauliTerm, ValidationError, execute,
                     expectation_from_counts, expectation_from_vector, identity_kernel,
                     parse_pauli)
from qcor_rt.kernel import GateKind, Instruction

from conftest import _M, obs_to_oracle_terms, oracle_dense, random_observable


def string(ops):
    return PauliString.from_map(ops)


class TestParse:
    def test_paper_hamiltonian(self):
        obs = parse_pauli("X0 X1 + Z0 Z1")
        assert len(obs) == 2
        terms = obs.terms
        assert terms[0].coefficient == 1 + 0j
        assert terms[0].string == string({0: "X", 1: "X"})
        assert terms[1].string == string({0: "Z", 1: "Z"})

    def test_identity(self):
        obs = parse_pauli("I")
        assert len(obs) == 1
        assert obs.terms[0] == PauliTerm(1 + 0j, PauliString())

    def test_same_qubit_product_reduces(self):
        # XY = iZ on the same qubit
        obs = parse_pauli("X0 Y0")
        assert obs.terms == (PauliTerm(1j, string({0: "Z"})),)

    def test_complex_coefficient(self):
        obs = parse_pauli("(1.5,-0.5) X0")
        assert obs.terms[0].coefficient == complex(1.5, -0.5)

    def test_minus_separator(self):
        obs = parse_pauli("X0 - Z0")
        by_string = {t.string: t.coefficient for t in obs.terms}
        assert by_string[string({0: "Z"})] == -1

    @pytest.mark.parametrize("bad", ["", "   ", "X0 +", "3.5", "Q0", "X0 ** Z0"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_pauli(bad)

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_pauli("X0 # Z1")
        assert "position 3" in str(err.value)


class TestToString:
    def test_canonical_sort(self):
        assert parse_pauli("Z0 Z1 + X0 X1").to_string() == "X0 X1 + Z0 Z1"

    def test_identity_with_coefficient(self):
        assert PauliObservable.identity(2).to_string() == "(2,0) I"

    def test_like_terms_combine(self):
        assert parse_pauli("X0 + X0").to_string() == "(2,0) X0"

    def test_roundtrip_fixed_point(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            obs = random_observable(rng)
            once = obs.to_string()
            assert parse_pauli(once).to_string() == once
            assert parse_pauli(once) == obs


class TestAlgebra:
    def test_multiply_pauli_table(self):
        x0 = parse_pauli("X0")
        y0 = parse_pauli("Y0")
        assert (x0 * y0) == parse_pauli("(0,1) Z0")

    def test_multiply_involution(self):
        xx = parse_pauli("X0 X1")
        assert (xx * xx) == parse_pauli("I")

    def test_multiply_cross_terms_cancel(self):
        a = parse_pauli("X0 + Z0")
        sq = a * a
        assert sq == PauliObservable.identity(2.0)
        # dense 2x2 oracle confirms
        dense = oracle_dense(obs_to_oracle_terms(a), 1)
        assert np.allclose(dense @ dense, oracle_dense(obs_to_oracle_terms(sq), 1))

    def test_add_like_terms(self):
        assert parse_pauli("X0") + parse_pauli("X0") == parse_pauli("(2,0) X0")

    def test_add_cancellation(self):
        zero = parse_pauli("X0") + parse_pauli("X0").scale(-1)
        assert len(zero) == 0

    def test_scale(self):
        assert parse_pauli("X0 X1").scale(1j) == parse_pauli("(0,1) X0 X1")

    def test_multiply_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = random_observable(rng)
            b = random_observable(rng)
            got = oracle_dense(obs_to_oracle_terms(a * b), 3)
            want = oracle_dense(obs_to_oracle_terms(a), 3) @ oracle_dense(
                obs_to_oracle_terms(b), 3)
            assert np.allclose(got, want, atol=1e-10)

    def test_multiply_associative_vs_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b, c = (random_observable(rng) for _ in range(3))
            left = oracle_dense(obs_to_oracle_terms((a * b) * c), 3)
            right = oracle_dense(obs_to_oracle_terms(a * (b * c)), 3)
            assert np.allclose(left, right, atol=1e-10)


class TestSimplify:
    def test_prunes_small_terms(self):
        obs = PauliObservable([(1e-14, string({0: "X"}))])
        assert len(obs.simplify(1e-12)) == 0

    def test_merges_like_terms(self):
        obs = PauliObservable([(1.0, string({0: "X"})), (1.0, string({0: "X"}))])
        assert obs.simplify() == parse_pauli("(2,0) X0")

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            obs = random_observable(rng).simplify(1e-3)
            assert obs.simplify(1e-3) == obs

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            parse_pauli("X0").simplify(-1.0)


class TestConstructionValidation:
    @pytest.mark.parametrize("bad", ["X0", ((0, "X"),), 1, None])
    def test_rejects_non_pauli_string(self, bad):
        with pytest.raises(ValidationError, match="PauliString"):
            PauliObservable([(1.0, bad)])
        with pytest.raises(ValidationError, match="PauliString"):
            PauliObservable([PauliTerm(1.0, bad)])

    @pytest.mark.parametrize("bad", ["abc", None, object(), [1.0]])
    def test_rejects_non_numeric_coefficient(self, bad):
        with pytest.raises(ValidationError, match="coefficient"):
            PauliObservable([(bad, string({0: "X"}))])
        with pytest.raises(ValidationError, match="coefficient"):
            PauliTerm(bad, string({0: "X"}))

    @pytest.mark.parametrize("bad", [1.0, (1.0,), (1.0, PauliString(x=1), 2.0), None, ()])
    def test_rejects_terms_that_are_not_pairs(self, bad):
        with pytest.raises(ValidationError, match="pair"):
            PauliObservable([bad])

    def test_terms_built_once(self):
        obs = parse_pauli("Z1 + X0 + (2,0) I + Y0 Y1")
        assert obs.terms is obs.terms
        assert [str(t.string) for t in obs.terms] == ["I", "X0", "Y0 Y1", "Z1"]
        assert [t.string for t in obs.split_identity()[0]] == [t.string for t in obs.terms[1:]]

    def test_numeric_coefficients_still_accepted(self):
        obs = PauliObservable([(np.float64(0.5), string({0: "X"})), ("1+2j", string({1: "Z"}))])
        assert obs.to_string() == "(0.5,0) X0 + (1,2) Z1"


class TestDense:
    def test_z0(self):
        assert np.allclose(parse_pauli("Z0").to_dense(1), np.diag([1, -1]))

    def test_spectrum_of_paper_hamiltonian(self):
        h = parse_pauli("X0 X1 + Z0 Z1").to_dense(2)
        evals = sorted(np.linalg.eigvalsh(h))
        assert np.allclose(evals, [-2, 0, 0, 2], atol=1e-10)

    def test_identity(self):
        assert np.allclose(parse_pauli("I").to_dense(2), np.eye(4))

    def test_cap(self):
        with pytest.raises(ValidationError):
            parse_pauli("X0").to_dense(13)

    def test_too_narrow(self):
        with pytest.raises(ValidationError):
            parse_pauli("X0 X1").to_dense(1)


class TestObserve:
    def test_two_term_hamiltonian(self):
        obs = parse_pauli("X0 X1 + Z0 Z1")
        bare = identity_kernel(2)
        pairs, offset = obs.observe(bare)
        assert offset == 0
        assert len(pairs) == 2
        xx_kernel = pairs[0][1]
        tail = [(i.kind, i.qubits) for i in xx_kernel.body]
        assert tail == [(GateKind.H, (0,)), (GateKind.H, (1,)),
                        (GateKind.Measure, (0,)), (GateKind.Measure, (1,))]
        zz_kernel = pairs[1][1]
        assert [(i.kind, i.qubits) for i in zz_kernel.body] == [
            (GateKind.Measure, (0,)), (GateKind.Measure, (1,))]

    def test_identity_only(self):
        pairs, offset = parse_pauli("I").observe(identity_kernel(1))
        assert pairs == []
        assert offset == 1

    def test_y_basis_change(self):
        pairs, _ = parse_pauli("Y0").observe(identity_kernel(1))
        kernel = pairs[0][1]
        assert [(i.kind, i.qubits) for i in kernel.body] == [
            (GateKind.Sdg, (0,)), (GateKind.H, (0,)), (GateKind.Measure, (0,))]

    def test_y_sampled_matches_statevector(self):
        # random 1-qubit states via Rz Ry Rz; oracle computes <psi|Y|psi> directly
        rng = np.random.default_rng(21)
        y = np.array([[0, -1j], [1j, 0]])
        shots = 200_000
        for i in range(5):
            a, b, c = rng.uniform(-np.pi, np.pi, size=3)
            prep = Kernel("prep", (), 1, (
                Instruction(GateKind.Rz, (0,), float(a)),
                Instruction(GateKind.Ry, (0,), float(b)),
                Instruction(GateKind.Rz, (0,), float(c)),
            ))
            rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
            ry = lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)],
                                     [np.sin(t / 2), np.cos(t / 2)]])
            psi = rz(c) @ ry(b) @ rz(a) @ np.array([1, 0], dtype=complex)
            expected = np.vdot(psi, y @ psi).real
            pairs, _ = parse_pauli("Y0").observe(prep)
            term, measured = pairs[0]
            counts, _ = execute(measured, ExecutionConfig(shots=shots, seed=100 + i))
            sampled = expectation_from_counts(term, counts)
            assert abs(sampled - expected) <= 5 / np.sqrt(shots)

    def test_rejects_measured_kernel(self):
        measured = Kernel("m", (), 1, (Instruction(GateKind.Measure, (0,)),))
        with pytest.raises(ValidationError):
            parse_pauli("Z0").observe(measured)


class TestExpectationFromCounts:
    def test_deterministic_plus_one(self):
        term = PauliTerm(1.0, string({0: "Z"}))
        assert expectation_from_counts(term, {"0": 100}) == 1.0

    def test_balanced_zero(self):
        term = PauliTerm(1.0, string({0: "Z"}))
        assert expectation_from_counts(term, {"0": 50, "1": 50}) == 0.0

    def test_two_qubit_parity(self):
        term = PauliTerm(1.0, string({0: "X", 1: "X"}))
        counts = {"00": 25, "11": 25, "01": 25, "10": 25}
        # brute-force parity sum: (+25 +25 -25 -25)/100
        assert expectation_from_counts(term, counts) == 0.0

    def test_bounded_by_coefficient(self):
        rng = np.random.default_rng(3)
        term = PauliTerm(2.5, string({0: "Z"}))
        for _ in range(20):
            n0, n1 = rng.integers(1, 100, size=2)
            val = expectation_from_counts(term, {"0": int(n0), "1": int(n1)})
            assert abs(val) <= 2.5 + 1e-12

    def test_empty_counts_error(self):
        with pytest.raises(ValidationError):
            expectation_from_counts(PauliTerm(1.0, string({0: "Z"})), {})

    def test_parity_matches_per_character_reference(self):
        # measured qubits beyond the support, so bit positions matter
        rng = np.random.default_rng(34)
        for _ in range(100):
            measured = sorted(int(q) for q in rng.choice(6, size=4, replace=False))
            ops = {q: str(rng.choice(["I", "X", "Y", "Z"])) for q in measured}
            term = PauliTerm(complex(rng.normal(), 1.0), string(ops))
            counts = {format(int(i), "04b"): int(rng.integers(1, 20))
                      for i in rng.choice(16, size=5, replace=False)}
            positions = [measured.index(q) for q in term.string.qubits]
            want = sum(w * (-1) ** sum(bits[p] == "1" for p in positions)
                       for bits, w in counts.items()) / sum(counts.values())
            got = expectation_from_counts(term, counts, measured)
            assert got == pytest.approx(term.coefficient.real * want, abs=1e-12)

    @pytest.mark.parametrize("bits", ["0a", "21", " 1", "1_", "0b"])
    def test_non_binary_bitstring_rejected(self, bits):
        term = PauliTerm(1.0, string({0: "Z", 1: "Z"}))
        with pytest.raises(ValidationError):
            expectation_from_counts(term, {"00": 1, bits: 1})


class TestExpectationFromVector:
    def test_agrees_with_counts_estimator(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            ops = {int(q): str(rng.choice(["X", "Y", "Z"]))
                   for q in rng.choice(9, size=k, replace=False)}
            term = PauliTerm(complex(rng.normal(), rng.normal()), string(ops))
            weights = rng.normal(size=2**k) + 0.3  # quasi-probabilities may be negative
            counts = {format(i, f"0{k}b"): float(w) for i, w in enumerate(weights)}
            got = expectation_from_vector(term, weights)
            assert isinstance(got, float)
            assert got == pytest.approx(expectation_from_counts(term, counts), rel=1e-12, abs=1e-12)

    def test_rejects_wrong_length_and_zero_sum(self):
        term = PauliTerm(1.0, string({0: "Z", 2: "X"}))
        for bad in (np.ones(2), np.ones(8), np.ones(0)):
            with pytest.raises(ValidationError, match="entries"):
                expectation_from_vector(term, bad)
        with pytest.raises(ValidationError, match="zero"):
            expectation_from_vector(term, np.array([1.0, -1.0, 0.0, 0.0]))


class TestGroupCommuting:
    def test_paper_hamiltonian_splits(self):
        groups = parse_pauli("X0 X1 + Z0 Z1").group_commuting()
        assert len(groups) == 2

    def test_all_z_single_group(self):
        groups = parse_pauli("Z0 + Z1 + Z0 Z1").group_commuting()
        assert len(groups) == 1

    def test_single_term(self):
        obs = parse_pauli("X0 Y1")
        assert obs.group_commuting() == [obs]

    def test_groups_are_pairwise_qubitwise_commuting(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            obs = random_observable(rng, max_terms=6)
            for g in obs.group_commuting():
                terms = g.terms
                for i in range(len(terms)):
                    for j in range(i):
                        assert terms[i].string.qubitwise_commutes(terms[j].string)

    def test_union_reproduces_input(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            obs = random_observable(rng, max_terms=6)
            total = PauliObservable()
            for g in obs.group_commuting():
                total = total + g
            assert total == obs


class TestMaskAlgebra:
    """The (x, z)-mask operations against 2x2 and dense matrices."""

    @staticmethod
    def _random_map(rng, n):
        return {q: str(rng.choice(["I", "X", "Y", "Z"])) for q in range(n)}

    def _pairs(self, seed, count=200, max_qubits=5):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, max_qubits + 1))
            yield n, self._random_map(rng, n), self._random_map(rng, n)

    def test_qubitwise_commutes_matches_per_qubit_matrices(self):
        for _, a, b in self._pairs(31):
            want = all(np.allclose(_M[a[q]] @ _M[b[q]], _M[b[q]] @ _M[a[q]]) for q in a)
            assert string(a).qubitwise_commutes(string(b)) == want

    def test_mul_matches_dense_product(self):
        for n, a, b in self._pairs(32):
            phase, product = string(a).mul(string(b))
            want = oracle_dense([(1, a)], n) @ oracle_dense([(1, b)], n)
            assert np.allclose(phase * oracle_dense([(1, dict(product.ops))], n), want)

    def test_views_and_str_roundtrip_through_parse(self):
        for _, a, _ in self._pairs(33, count=100):
            s = string(a)
            non_identity = {q: k for q, k in a.items() if k != "I"}
            assert dict(s.ops) == non_identity
            assert s.qubits == tuple(sorted(non_identity))
            assert all(s.op_on(q) == k for q, k in a.items())
            assert s.op_on(-1) == s.op_on(len(a)) == "I"
            assert parse_pauli(str(s)) == PauliObservable([(1.0, s)])

    @pytest.mark.parametrize("ops", [{-1: "X"}, {1.5: "X"}, {"0": "Z"},
                                     {0: "W"}, {0: "x"}, {0: "XY"}, {0: None}])
    def test_from_map_rejects_bad_qubits_and_kinds(self, ops):
        with pytest.raises(ValidationError):
            PauliString.from_map(ops)

    @pytest.mark.parametrize("args", [(((0, "Z"),),), (-1,), (0, -2), (1.0,), (0, "1")])
    def test_constructor_takes_only_non_negative_int_masks(self, args):
        with pytest.raises(ValidationError):
            PauliString(*args)

    def test_mask_layout(self):
        assert string({0: "X", 2: "Y", 3: "Z"}) == PauliString(x=0b0101, z=0b1100)
