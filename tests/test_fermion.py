import numpy as np
import pytest

from qcor_rt import (FermionObservable, FermionTerm, LadderOp, ParseError,
                     ValidationError, fermion_to_dense, jordan_wigner,
                     normal_order, parse_fermion, parse_pauli)


def ladder(spec_text):
    ops = []
    for tok in spec_text.split():
        if tok.endswith("^"):
            ops.append(LadderOp(int(tok[:-1]), True))
        else:
            ops.append(LadderOp(int(tok), False))
    return tuple(ops)


class TestParse:
    def test_number_number_interaction(self):
        obs = parse_fermion("0^ 1^ 1 0")
        assert len(obs) == 1
        term = obs.terms[0]
        assert term.coefficient == 1
        assert term.ops == ladder("0^ 1^ 1 0")

    def test_number_operator(self):
        assert parse_fermion("0^ 0").terms[0].ops == ladder("0^ 0")

    def test_coefficient_and_annihilation(self):
        term = parse_fermion("2.5 3").terms[0]
        assert term.coefficient == 2.5
        assert term.ops == (LadderOp(3, False),)

    def test_bare_integers_are_operators(self):
        # "1 0^" is c_1 c†_0, not a coefficient of 1
        assert parse_fermion("1 0^").terms[0].ops == ladder("1 0^")

    def test_sum_with_signs(self):
        obs = parse_fermion("0^ 1 - 1^ 0")
        coeffs = {t.ops: t.coefficient for t in obs.terms}
        assert coeffs[ladder("0^ 1")] == 1
        assert coeffs[ladder("1^ 0")] == -1

    @pytest.mark.parametrize("bad", ["", "  ", "0^ +", "^", "0.5"])
    def test_malformed(self, bad):
        if bad == "0.5":
            # lone coefficient is an identity term, not an error
            assert parse_fermion(bad).terms[0].ops == ()
        else:
            with pytest.raises(ParseError):
                parse_fermion(bad)

    def test_roundtrip_through_str(self):
        for text in ["0^ 1^ 1 0", "2.5 3", "0 0^", "0^ 1 - 1^ 0"]:
            obs = normal_order(parse_fermion(text))
            assert normal_order(parse_fermion(str(obs))) == obs


class TestNormalOrder:
    def test_anticommutator_identity(self):
        # c0 c†0 = 1 - c†0 c0
        got = normal_order(parse_fermion("0 0^"))
        want = FermionObservable([(1.0, ()), (-1.0, ladder("0^ 0"))])
        assert got == want

    def test_already_ordered(self):
        obs = parse_fermion("0^ 0")
        assert normal_order(obs) == obs

    def test_distinct_modes_anticommute(self):
        got = normal_order(parse_fermion("1 0^"))
        assert got == FermionObservable([(-1.0, ladder("0^ 1"))])

    def test_repeated_op_vanishes(self):
        assert len(normal_order(parse_fermion("0 0"))) == 0

    def test_preserves_dense_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n_ops = rng.integers(1, 5)
            ops = tuple(
                LadderOp(int(rng.integers(4)), bool(rng.integers(2)))
                for _ in range(n_ops)
            )
            obs = FermionObservable([(complex(rng.normal(), rng.normal()), ops)])
            ordered = normal_order(obs)
            assert np.allclose(fermion_to_dense(obs, 4),
                               fermion_to_dense(ordered, 4), atol=1e-10)


class TestJordanWigner:
    def test_number_operator(self):
        got = jordan_wigner(parse_fermion("0^ 0"))
        assert got == parse_pauli("(0.5,0) I + (-0.5,0) Z0")
        assert np.allclose(got.to_dense(1), fermion_to_dense(parse_fermion("0^ 0"), 1))

    def test_empty(self):
        assert len(jordan_wigner(FermionObservable())) == 0

    def test_hopping_dense_equality(self):
        obs = parse_fermion("0^ 1")
        assert np.allclose(jordan_wigner(obs).to_dense(2), fermion_to_dense(obs, 2),
                           atol=1e-12)

    def test_number_number_all_z(self):
        got = jordan_wigner(parse_fermion("0^ 1^ 1 0"))
        assert got == parse_pauli(
            "(0.25,0) I + (-0.25,0) Z0 + (0.25,0) Z0 Z1 + (-0.25,0) Z1")

    def test_linearity(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = _random_fermion(rng)
            b = _random_fermion(rng)
            assert jordan_wigner(a + b) == (jordan_wigner(a) + jordan_wigner(b)).simplify()

    def test_hermitian_input_gives_real_coefficients(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = _random_fermion(rng)
            h = a + a.conjugate()
            for term in jordan_wigner(h).simplify().terms:
                assert abs(term.coefficient.imag) < 1e-10

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = _random_fermion(rng)
            h = a + a.conjugate()
            n = max(h.num_modes(), 1)
            fermionic = np.linalg.eigvalsh(fermion_to_dense(h, n))
            spin = np.linalg.eigvalsh(jordan_wigner(h).to_dense(n))
            assert np.allclose(sorted(fermionic), sorted(spin), atol=1e-8)


class TestDenseOracle:
    def test_number_operator(self):
        assert np.allclose(fermion_to_dense(parse_fermion("0^ 0"), 1), np.diag([0, 1]))

    def test_identity_term(self):
        obs = FermionObservable([(2.5, ())])
        assert np.allclose(fermion_to_dense(obs, 2), 2.5 * np.eye(4))

    def test_nilpotent(self):
        assert np.allclose(fermion_to_dense(parse_fermion("0 0"), 1), np.zeros((2, 2)))

    def test_mode_cap(self):
        with pytest.raises(ValidationError):
            fermion_to_dense(parse_fermion("0^ 0"), 11)


class TestConstructionValidation:
    NUMBER = (LadderOp(0, True), LadderOp(0, False))

    @pytest.mark.parametrize("bad", [1.0, (1.0,), (1.0, (), 2.0), None, ()])
    def test_rejects_terms_that_are_not_pairs(self, bad):
        with pytest.raises(ValidationError, match="pair"):
            FermionObservable([bad])

    @pytest.mark.parametrize("bad", ["abc", None, object(), [1.0]])
    def test_rejects_non_numeric_coefficient(self, bad):
        with pytest.raises(ValidationError, match="coefficient"):
            FermionObservable([(bad, self.NUMBER)])
        with pytest.raises(ValidationError, match="coefficient"):
            FermionTerm(bad, self.NUMBER)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            FermionObservable([(bad, self.NUMBER)])
        with pytest.raises(ValidationError, match="non-finite"):
            FermionTerm(bad, self.NUMBER)

    @pytest.mark.parametrize("bad", [(1,), ("0^",), ((0, True),), 1, None])
    def test_rejects_operators_that_are_not_ladder_ops(self, bad):
        with pytest.raises(ValidationError, match="operators"):
            FermionObservable([(1.0, bad)])
        with pytest.raises(ValidationError, match="operators"):
            FermionTerm(1.0, bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, "0", None])
    def test_rejects_bad_mode_index(self, bad):
        with pytest.raises(ValidationError, match="mode index"):
            LadderOp(bad, True)

    def test_numeric_coefficients_and_op_lists_still_accepted(self):
        obs = FermionObservable([(np.float64(0.5), list(self.NUMBER)), ("1+2j", ()),
                                 FermionTerm(2, self.NUMBER)])
        assert obs == FermionObservable([(2.5, self.NUMBER), (1 + 2j, ())])
        assert jordan_wigner(obs) == parse_pauli("(2.25,2) I + (-1.25,0) Z0")


def _random_fermion(rng, max_modes=3, max_terms=3):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        n_ops = rng.integers(1, 4)
        ops = tuple(
            LadderOp(int(rng.integers(max_modes)), bool(rng.integers(2)))
            for _ in range(n_ops)
        )
        terms.append((complex(rng.normal(), rng.normal()), ops))
    return FermionObservable(terms)
