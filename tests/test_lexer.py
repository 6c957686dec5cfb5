"""The three text grammars share one token stream: error positions, the
index bound on observable and fermion strings."""

import pytest

from qcor_rt import (LadderOp, ParseError, PauliString, parse_fermion, parse_kernel,
                     parse_pauli)
from qcor_rt.lexer import MAX_INDEX

# (parser, text, position): offsets for the string grammars, (line, column)
# for kernel sources, where a tab or '\r' is one column
ERROR_POSITIONS = [
    (parse_pauli, "X0 # Z1", 3),
    (parse_pauli, "X0 +", 4),
    (parse_pauli, "(1,2 X0", 5),
    (parse_pauli, "(1 X0", 3),
    (parse_pauli, "(,1) X0", 1),
    (parse_pauli, "2 3 X0", 2),
    (parse_pauli, "X0 + - Z1", 5),
    (parse_pauli, "(0.5,-", 6),
    (parse_pauli, "Z1 ) X0 $", 8),  # a bad character anywhere is reported first
    (parse_fermion, "(1e30^)", 1),  # a dagger is part of the number token
    (parse_fermion, "1.5^", 0),
    (parse_fermion, "0^ 1.5", 3),
    (parse_fermion, "0^ +", 4),
    (parse_fermion, "+ -", 3),
    (parse_fermion, "0^ 1 ( 2", 5),
    (parse_fermion, "(1 2)", 3),
    (parse_fermion, "0^ ^", 3),
    (parse_kernel, "kernel k() qubits 1 { // c", (1, 27)),  # end of a trailing comment
    (parse_kernel, "kernel k() qubits 1 {\n  X q0;\n  Frob q0;\n}", (3, 3)),
    (parse_kernel, "kernel k() qubits 1 { X q0 }", (1, 28)),
    (parse_kernel, "kernel k(t qubits 1 { }", (1, 12)),
    (parse_kernel, "kernel k() qubits 1.5 { }", (1, 19)),
    (parse_kernel, "kernel k() qubits 2 {\n\tCNOT q0 q0;\n}", (2, 2)),
    (parse_kernel, "kernel k() qubits 1 { Ry(+1) q0; }", (1, 26)),
    (parse_kernel, "kernel k() qubits 1 {\r\n X q0; @ }", (2, 8)),
    (parse_kernel, "// a\nkernel k() qubits 1 { X r0; }", (2, 25)),
    (parse_kernel, "kernel k() qubits 1 { X q0;", (1, 28)),
    (parse_kernel, "kernel k() qubits 1 { Ry( q0; }", (1, 29)),
    (parse_pauli, "1e999 X0", 0),  # a coefficient that overflows a float
    (parse_pauli, "(1,1e999) X0", 3),
    (parse_fermion, "1e999 0^", 0),
]


@pytest.mark.parametrize("parse, text, position", ERROR_POSITIONS)
def test_error_position(parse, text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


@pytest.mark.parametrize("parse, text", [(parse_pauli, "1e999 X0"),
                                         (parse_pauli, "(1,1e999) X0"),
                                         (parse_fermion, "1e999 0^")])
def test_overflowing_coefficient_quotes_its_text(parse, text):
    with pytest.raises(ParseError, match="number '1e999' overflows"):
        parse(text)


def test_expected_token_names_what_it_got():
    with pytest.raises(ParseError, match=r"expected ',', got '2'"):
        parse_fermion("(1 2)")
    with pytest.raises(ParseError, match=r"expected '\)', got 'X0'"):
        parse_pauli("(1,2 X0")


LONG_INDICES = [str(MAX_INDEX + 1), "1" + "0" * 12, "9" * 5000]


class TestIndexBound:
    @pytest.mark.parametrize("digits", LONG_INDICES, ids=["max+1", "1e12", "5000-digits"])
    def test_pauli_qubit_index(self, digits):
        with pytest.raises(ParseError, match="qubit index exceeds") as err:
            parse_pauli(f"X0 + (2,0) Z1 Z{digits}")
        assert err.value.position == 14

    @pytest.mark.parametrize("digits", LONG_INDICES, ids=["max+1", "1e12", "5000-digits"])
    def test_fermion_mode_index(self, digits):
        with pytest.raises(ParseError, match="mode index exceeds") as err:
            parse_fermion(f"0^ 1 - 0.5 {digits}^ 2")
        assert err.value.position == 11

    def test_largest_index_and_leading_zeros(self):
        top = PauliString(z=1 << MAX_INDEX)
        assert parse_pauli(f"Z{MAX_INDEX}").terms[0].string == top
        assert parse_pauli("Z" + "0" * 5000 + "3").terms[0].string == PauliString(z=1 << 3)
        assert parse_fermion(f"{MAX_INDEX}^ 007").terms[0].ops == (
            LadderOp(MAX_INDEX, True), LadderOp(7, False))


class TestKernelIntegers:
    """Kernel widths and operands are unbounded, but a literal longer than
    any int() digit limit is a ParseError at its token."""

    def test_wide_kernel_and_leading_zeros(self):
        k = parse_kernel(f"kernel k() qubits {MAX_INDEX + 2} {{ X q{MAX_INDEX + 1}; }}")
        assert k.num_qubits == MAX_INDEX + 2
        k = parse_kernel("kernel k() qubits 0002 { X q" + "0" * 5000 + "1; }")
        assert k.body[0].qubits == (1,)

    @pytest.mark.parametrize("text, position", [
        ("kernel k() qubits " + "1" * 5000 + " { }", (1, 19)),
        ("kernel k() qubits 2 { X q" + "1" * 5000 + "; }", (1, 25)),
    ], ids=["count", "operand"])
    def test_too_many_digits(self, text, position):
        with pytest.raises(ParseError, match="more than 640 digits") as err:
            parse_kernel(text)
        assert err.value.position == position
