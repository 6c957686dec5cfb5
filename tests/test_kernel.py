import math

import numpy as np
import pytest

from qcor_rt import (GateKind, Instruction, Kernel, ParseError, PauliString,
                     ValidationError, parse_kernel, print_kernel)

from conftest import ANSATZ_1P, random_bound_kernel


class TestParse:
    def test_ansatz(self):
        k = parse_kernel(ANSATZ_1P)
        assert k.name == "ansatz"
        assert k.params == ("t",)
        assert k.num_qubits == 2
        assert len(k.body) == 3
        assert k.body[1].kind is GateKind.Ry
        assert k.body[1].param == "t"
        assert k.body[2].qubits == (1, 0)

    def test_empty_identity_kernel(self):
        k = parse_kernel("kernel id() qubits 1 { }")
        assert k.body == ()
        assert k.params == ()

    def test_qubit_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_kernel("kernel bad() qubits 1 { X q1; }")

    def test_unknown_parameter(self):
        with pytest.raises(ParseError, match="unknown parameter"):
            parse_kernel("kernel bad() qubits 1 { Ry(u) q0; }")

    def test_gate_after_measure(self):
        with pytest.raises(ParseError, match="terminal"):
            parse_kernel("kernel bad() qubits 1 { Measure q0; X q0; }")

    def test_unknown_gate(self):
        with pytest.raises(ParseError, match="unknown gate"):
            parse_kernel("kernel bad() qubits 1 { Frob q0; }")

    def test_error_reports_line_and_column(self):
        src = "kernel bad() qubits 1 {\n  X q0;\n  Frob q0;\n}"
        with pytest.raises(ParseError, match=r"line 3, column 3"):
            parse_kernel(src)

    def test_comments(self):
        src = "// header\nkernel k() qubits 1 { X q0; // flip\n }"
        assert len(parse_kernel(src).body) == 1

    def test_negative_angle_literal(self):
        k = parse_kernel("kernel k() qubits 1 { Ry(-0.5) q0; }")
        assert k.body[0].param == -0.5

    def test_two_qubit_gates_need_distinct_qubits(self):
        with pytest.raises(ParseError, match="distinct"):
            parse_kernel("kernel bad() qubits 2 { CNOT q0 q0; }")


class TestBind:
    def test_literal_substitution(self, ansatz_1p):
        bound = ansatz_1p.bind([0.0])
        assert bound.params == ()
        assert bound.body[1].param == 0.0

    def test_pi_over_two(self, ansatz_1p):
        bound = ansatz_1p.bind([math.pi / 2])
        assert bound.body[1].param == pytest.approx(1.5707963267948966)

    def test_no_params_noop(self):
        k = parse_kernel("kernel id() qubits 1 { }")
        assert k.bind([]) == k

    def test_arity_mismatch(self, ansatz_1p):
        with pytest.raises(ValidationError):
            ansatz_1p.bind([0.1, 0.2])

    def test_non_finite_value(self, ansatz_1p):
        for bad in (float("nan"), float("inf"), "a", None, [0.1]):
            with pytest.raises(ValidationError, match="finite number"):
                ansatz_1p.bind([bad])

    def test_idempotent_once_bound(self, ansatz_1p):
        bound = ansatz_1p.bind([0.3])
        assert bound.bind([]) == bound


class TestMeasurementBasis:
    def test_xx(self):
        k = parse_kernel("kernel k() qubits 2 { }")
        m = k.with_measurement_basis(PauliString.from_map({0: "X", 1: "X"}))
        assert [(i.kind, i.qubits) for i in m.body] == [
            (GateKind.H, (0,)), (GateKind.H, (1,)),
            (GateKind.Measure, (0,)), (GateKind.Measure, (1,))]

    def test_z_needs_no_basis_change(self):
        k = parse_kernel("kernel k() qubits 1 { }")
        m = k.with_measurement_basis(PauliString.from_map({0: "Z"}))
        assert [(i.kind, i.qubits) for i in m.body] == [(GateKind.Measure, (0,))]

    def test_empty_string_unchanged(self):
        k = parse_kernel("kernel k() qubits 1 { X q0; }")
        assert k.with_measurement_basis(PauliString()) == k

    def test_rejects_free_parameters(self, ansatz_1p):
        with pytest.raises(ValidationError):
            ansatz_1p.with_measurement_basis(PauliString.from_map({0: "Z"}))

    def test_rejects_double_measurement(self):
        k = parse_kernel("kernel k() qubits 1 { Measure q0; }")
        with pytest.raises(ValidationError):
            k.with_measurement_basis(PauliString.from_map({0: "Z"}))


class TestPrint:
    def test_formatting_contract(self):
        k = parse_kernel("kernel k() qubits 1 {X q0;}")
        assert print_kernel(k) == "kernel k() qubits 1 {\n  X q0;\n}"

    def test_roundtrip_examples(self, ansatz_1p):
        assert parse_kernel(print_kernel(ansatz_1p)) == ansatz_1p

    def test_bound_angles_roundtrip_losslessly(self, ansatz_1p):
        bound = ansatz_1p.bind([-1.2345678901234567])
        reparsed = parse_kernel(print_kernel(bound))
        assert reparsed.body[1].param == bound.body[1].param

    def test_roundtrip_random_kernels(self):
        rng = np.random.default_rng(31)
        for i in range(50):
            k = random_bound_kernel(rng, num_qubits=int(rng.integers(1, 4)),
                                    depth=int(rng.integers(0, 8)), name=f"k{i}")
            assert parse_kernel(print_kernel(k)) == k


class TestValidation:
    def test_rotation_requires_param(self):
        with pytest.raises(ValidationError):
            Instruction(GateKind.Rx, (0,))

    def test_non_rotation_rejects_param(self):
        with pytest.raises(ValidationError):
            Instruction(GateKind.H, (0,), 0.5)

    def test_kernel_needs_positive_width(self):
        with pytest.raises(ValidationError):
            Kernel("k", (), 0, ())

    def test_duplicate_params(self):
        with pytest.raises(ValidationError):
            Kernel("k", ("t", "t"), 1, ())
