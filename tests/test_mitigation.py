import math
import threading
import time

import numpy as np
import pytest

from qcor_rt import (DefaultObjective, ExecutionConfig, GateKind, Instruction, Kernel,
                     MitigatedObjective, PauliObservable, ReadoutNoiseModel, ResultBuffer,
                     ValidationError, calibrate, confusion_from_noise, derive_seed,
                     exact_distribution, exact_expectation, execute, expectation_from_counts,
                     expectation_from_vector, identity_kernel, mitigate_counts, mitigation,
                     parse_kernel, parse_pauli, pauli, simulator)
from qcor_rt.mitigation import (_CALIBRATION_SEED_OFFSET, _inverse_confusion, _invert,
                                validate_confusion_matrix)
from qcor_rt.results import HeterogeneousMap
from qcor_rt.runtime import TaskSpec, TermRun, sync, task_initiate
from qcor_rt.simulator import MAX_QUBITS

from conftest import random_bound_kernel, random_hermitian_observable


class TestValidateConfusionMatrix:
    def test_identity_passes(self):
        assert np.allclose(validate_confusion_matrix(np.eye(2)), np.eye(2))

    def test_columns_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            validate_confusion_matrix([[0.9, 0.1], [0.2, 0.9]])

    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            validate_confusion_matrix([[0.5, 0.5], [0.5, 0.5]])

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValidationError):
            validate_confusion_matrix([[1.2, 0.1], [-0.2, 0.9]])

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError, match="2x2"):
            validate_confusion_matrix([[1, 0], [0]])


class TestCalibrate:
    def test_noiseless_gives_identity(self):
        cal = calibrate(2, ExecutionConfig(shots=1000, seed=0))
        for q in (0, 1):
            assert np.allclose(cal[q], np.eye(2))

    def test_noisy_estimates_within_five_sigma(self):
        shots = 100_000
        noise = ReadoutNoiseModel(p01=0.05, p10=0.10)
        cal = calibrate(1, ExecutionConfig(shots=shots, seed=7, noise=noise))
        want = np.array([[0.95, 0.10], [0.05, 0.90]])
        m = cal[0]
        for col, p in ((0, 0.05), (1, 0.10)):
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(m[:, col] - want[:, col]).max() <= 5 * sigma

    def test_minimum_shots(self):
        with pytest.raises(ValidationError):
            calibrate(1, ExecutionConfig(shots=99))

    def test_deterministic(self):
        cfg = ExecutionConfig(shots=500, seed=11,
                              noise=ReadoutNoiseModel(p01=0.02, p10=0.03))
        a = calibrate(1, cfg)
        b = calibrate(1, cfg)
        assert np.array_equal(a[0], b[0])

    @staticmethod
    def _calibrate_by_execute(num_qubits, config):
        """Oracle: each column from a full num_qubits-qubit kernel that
        prepares |b> on qubit q and measures q, run through `execute` with
        the seed `calibrate` derives for it."""
        matrices = {}
        for q in range(num_qubits):
            columns = []
            for b in (0, 1):
                body = [Instruction(GateKind.X, (q,))] if b else []
                body.append(Instruction(GateKind.Measure, (q,)))
                kernel = Kernel(f"calibrate_q{q}_{b}", (), num_qubits, tuple(body))
                seed = derive_seed(config.seed, _CALIBRATION_SEED_OFFSET + 2 * q + b)
                counts, _ = execute(kernel, config.with_seed(seed))
                total = sum(counts.values())
                columns.append([counts.get("0", 0) / total, counts.get("1", 0) / total])
            matrices[q] = np.array(columns).T
        return matrices

    @pytest.mark.parametrize("num_qubits", [1, 4, 10])
    def test_equals_full_register_preparation_runs(self, num_qubits):
        noises = [None, ReadoutNoiseModel(p01=0.03, p10=0.08),
                  ReadoutNoiseModel(p01=0.02, p10=0.05,
                                    per_qubit={0: (0.1, 0.2), 3: (0.0, 0.3)})]
        for i, noise in enumerate(noises):
            cfg = ExecutionConfig(shots=2048, seed=31 + i, noise=noise)
            got = calibrate(num_qubits, cfg)
            want = self._calibrate_by_execute(num_qubits, cfg)
            assert got.keys() == want.keys()
            for q in want:
                assert np.array_equal(got[q], want[q]), (num_qubits, i, q)

    @pytest.mark.parametrize("num_qubits", [0, -1, MAX_QUBITS + 1])
    @pytest.mark.parametrize("exact", [False, True])
    def test_qubit_count_outside_the_simulator_rejected(self, num_qubits, exact):
        with pytest.raises(ValidationError):
            calibrate(num_qubits, ExecutionConfig(exact=exact))


class TestConfusionFromNoise:
    def test_no_noise_is_identity(self):
        cal = confusion_from_noise(None, [0, 1])
        assert np.allclose(cal[0], np.eye(2))

    def test_matches_noise_model(self):
        noise = ReadoutNoiseModel(p01=0.05, p10=0.10)
        cal = confusion_from_noise(noise, [0])
        assert np.allclose(cal[0], [[0.95, 0.10], [0.05, 0.90]])


class TestMitigateCounts:
    def test_identity_calibration_is_normalization(self):
        cal = {0: np.eye(2)}
        quasi = mitigate_counts({"0": 75, "1": 25}, cal)
        assert quasi == {"0": 0.75, "1": 0.25}

    def test_single_qubit_exact_solve(self):
        # counts produced by M @ (1, 0): mitigation must return (1, 0)
        cal = {0: np.array([[0.9, 0.2], [0.1, 0.8]])}
        quasi = mitigate_counts({"0": 9000, "1": 1000}, cal)
        assert quasi["0"] == pytest.approx(1.0)
        assert quasi.get("1", 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_qubit_recovery(self):
        # corrupt a product distribution analytically, then undo it
        rng = np.random.default_rng(73)
        m0 = np.array([[0.95, 0.10], [0.05, 0.90]])
        m1 = np.array([[0.85, 0.25], [0.15, 0.75]])
        p = rng.dirichlet(np.ones(4))
        corrupted = np.kron(m0, m1) @ p
        counts = {format(i, "02b"): float(corrupted[i]) for i in range(4)}
        quasi = mitigate_counts(counts, {0: m0, 1: m1})
        for i in range(4):
            assert quasi.get(format(i, "02b"), 0.0) == pytest.approx(p[i], abs=1e-12)

    def test_quasi_distribution_sums_to_one(self):
        rng = np.random.default_rng(79)
        cal = {0: np.array([[0.9, 0.15], [0.1, 0.85]]),
               1: np.array([[0.97, 0.05], [0.03, 0.95]])}
        for _ in range(10):
            counts = {format(i, "02b"): int(rng.integers(1, 500)) for i in range(4)}
            quasi = mitigate_counts(counts, cal)
            assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-12)

    def test_measured_qubit_subset(self):
        cal = {2: np.array([[0.9, 0.2], [0.1, 0.8]])}
        quasi = mitigate_counts({"0": 9, "1": 1}, cal, measured_qubits=[2])
        assert quasi["0"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_calibration(self):
        with pytest.raises(ValidationError):
            mitigate_counts({"0": 1}, {})

    def test_empty_counts(self):
        with pytest.raises(ValidationError):
            mitigate_counts({}, {0: np.eye(2)})

    @pytest.mark.parametrize("calibration", [[np.eye(2)], "ab", 3, None])
    def test_calibration_must_be_a_mapping(self, calibration):
        with pytest.raises(ValidationError, match="calibration must map qubits"):
            mitigate_counts({"0": 3, "1": 1}, calibration)

    @pytest.mark.parametrize("bits", ["0a", "2", "1 ", "-1", "0b"])
    def test_non_binary_bitstring(self, bits):
        cal = {0: np.eye(2), 1: np.eye(2)}
        with pytest.raises(ValidationError, match="binary digit"):
            mitigate_counts({"0" * len(bits): 1, bits: 1}, cal, range(len(bits)))

    def test_bitstring_length_mismatch_and_zero_width(self):
        cal = {0: np.eye(2), 1: np.eye(2)}
        with pytest.raises(ValidationError, match="binary digit"):
            mitigate_counts({"01": 1, "1": 2}, cal)
        with pytest.raises(ValidationError):
            mitigate_counts({"": 1}, cal)


class TestMitigatedObjective:
    def _objective(self, config, sink=None, kernel_src=None):
        kernel = parse_kernel(kernel_src or
                              "kernel prep() qubits 1 { X q0; }")
        obs = parse_pauli("Z0")
        return MitigatedObjective(DefaultObjective(obs, kernel, config, sink))

    def test_exact_mode_removes_noise_analytically(self):
        noise = ReadoutNoiseModel(p01=0.05, p10=0.10)
        obj = self._objective(ExecutionConfig(exact=True, noise=noise))
        assert obj([]) == pytest.approx(-1.0, abs=1e-10)

    def test_sampled_beats_raw_at_high_shots(self):
        noise = ReadoutNoiseModel(p10=0.1)
        cfg = ExecutionConfig(shots=100_000, seed=17, noise=noise)
        kernel = parse_kernel("kernel prep() qubits 1 { X q0; }")
        obs = parse_pauli("Z0")
        raw = DefaultObjective(obs, kernel, cfg)([])
        mitigated = self._objective(cfg)([])
        assert abs(raw - (-1.0)) > 0.05  # noise visibly biases the raw value
        sigma = 2 / math.sqrt(100_000)   # generous bound on the corrected value
        assert abs(mitigated - (-1.0)) <= 5 * sigma

    def test_identity_composition_is_noop(self):
        cfg = ExecutionConfig(shots=5000, seed=23)
        kernel = parse_kernel("kernel prep() qubits 2 { H q0; CNOT q0 q1; }")
        obs = parse_pauli("Z0 Z1 + X0 X1")
        inner = MitigatedObjective(DefaultObjective(obs, kernel, cfg),
                                   calibration={0: np.eye(2), 1: np.eye(2)})
        outer = MitigatedObjective(inner, calibration={0: np.eye(2), 1: np.eye(2)})
        plain = DefaultObjective(obs, kernel, cfg)([])
        assert outer([]) == pytest.approx(plain, abs=1e-9)

    def test_dimensions_preserved(self):
        kernel = parse_kernel("kernel a(t) qubits 1 { Ry(t) q0; }")
        obj = MitigatedObjective(
            DefaultObjective(parse_pauli("Z0"), kernel, ExecutionConfig()))
        assert obj.dimensions() == 1

    def test_publishes_raw_and_mitigated_values(self):
        sink = ResultBuffer()
        noise = ReadoutNoiseModel(p10=0.1)
        cfg = ExecutionConfig(shots=10_000, seed=29, noise=noise)
        obj = self._objective(cfg, sink=sink)
        value = obj([])
        assert "readout-calibration" in sink.metadata
        cal_entry = sink.metadata.get("readout-calibration",
                                      type(sink.metadata))
        assert len(cal_entry.get("q0", list)) == 4
        child = sink.children[-1]
        assert child.metadata.get("mitigated-value", float) == pytest.approx(value)
        raw = child.metadata.get("raw-value", float)
        assert raw != pytest.approx(value)
        # grandchild counts stay integer shot counts
        grandchild = child.children[0]
        assert all(isinstance(v, int) for v in grandchild.counts.values())
        assert sum(grandchild.counts.values()) == 10_000

    def test_matches_exact_expectation_against_oracle(self):
        noise = ReadoutNoiseModel(p01=0.03, p10=0.07)
        kernel = parse_kernel(
            "kernel prep() qubits 2 { H q0; CNOT q0 q1; Ry(0.4) q1; }")
        obs = parse_pauli("Z0 Z1 + X0 X1 - Z1")
        obj = MitigatedObjective(
            DefaultObjective(obs, kernel, ExecutionConfig(exact=True, noise=noise)))
        want = exact_expectation(kernel, obs)
        assert obj([]) == pytest.approx(want, abs=1e-10)


class TestMitigationOnVectors:
    """The stage corrects dense outcome vectors; `mitigate_counts` on the
    published counts or distribution dicts is the reference."""

    NOISE = ReadoutNoiseModel(p01=0.04, p10=0.09, per_qubit={1: (0.1, 0.02)})

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("nested", [False, True])
    def test_value_matches_dict_reference(self, exact, nested):
        rng = np.random.default_rng(151)
        for _ in range(6):
            n = int(rng.integers(1, 6))
            kernel = random_bound_kernel(rng, num_qubits=n, depth=3 * n)
            obs = random_hermitian_observable(rng, max_qubits=n, max_terms=6)
            obs = obs + PauliObservable.identity(0.25)
            config = ExecutionConfig(shots=500, seed=int(rng.integers(1000)),
                                     noise=self.NOISE, exact=exact)
            cals = [confusion_from_noise(self.NOISE, range(n))]
            sink = ResultBuffer()
            obj = MitigatedObjective(DefaultObjective(obs, kernel, config, sink), cals[0])
            if nested:
                cals.append({q: np.array([[0.97, 0.01], [0.03, 0.99]]) for q in range(n)})
                obj = MitigatedObjective(obj, cals[1])
            value = obj(())
            terms, offset = obs.split_identity()
            want = offset.real
            for term, node in zip(terms, sink.children[0].children):
                qubits = term.string.qubits
                outcomes = (exact_distribution(kernel.with_measurement_basis(term.string),
                                               self.NOISE) if exact else node.counts)
                for cal in cals:
                    outcomes = mitigate_counts(outcomes, cal, qubits)
                want += expectation_from_counts(term, outcomes, qubits)
            assert abs(value - want) <= 1e-12


class TestMitigatedObjectiveValidation:
    def _inner(self, config):
        kernel = parse_kernel("kernel prep() qubits 1 { X q0; }")
        return DefaultObjective(parse_pauli("Z0"), kernel, config)

    def test_too_few_calibration_shots_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            MitigatedObjective(self._inner(ExecutionConfig(shots=50)))

    def test_few_shots_allowed_when_no_calibration_runs(self):
        MitigatedObjective(self._inner(ExecutionConfig(shots=50)),
                           calibration={0: np.eye(2)})
        MitigatedObjective(self._inner(ExecutionConfig(shots=50, exact=True)))

    def test_wraps_only_default_objectives(self):
        with pytest.raises(ValidationError):
            MitigatedObjective(object())

    @pytest.mark.parametrize("calibration", [[np.eye(2)], "ab", 3])
    def test_calibration_must_be_a_mapping(self, calibration):
        with pytest.raises(ValidationError, match="calibration must map qubits"):
            MitigatedObjective(self._inner(ExecutionConfig()), calibration)

    def test_ragged_calibration_matrix_rejected(self):
        with pytest.raises(ValidationError, match="2x2"):
            MitigatedObjective(self._inner(ExecutionConfig()), {0: [[1, 0], [0]]})

    def test_singular_exact_noise_rejected_at_construction(self):
        noise = ReadoutNoiseModel(p01=0.5, p10=0.5)
        with pytest.raises(ValidationError):
            MitigatedObjective(self._inner(ExecutionConfig(exact=True, noise=noise)))


class TestSharedCalibration:
    def test_concurrent_evaluations_calibrate_once(self, monkeypatch):
        """A self-calibrating objective evaluated from several threads at
        once runs its calibration exactly once."""
        from qcor_rt import mitigation

        noise = ReadoutNoiseModel(p01=0.02, p10=0.05)
        calls = []

        def slow_calibrate(num_qubits, config):
            calls.append(num_qubits)
            time.sleep(0.2)
            return confusion_from_noise(noise, range(num_qubits))

        monkeypatch.setattr(mitigation, "calibrate", slow_calibrate)
        kernel = parse_kernel("kernel prep() qubits 2 { H q0; CNOT q0 q1; }")
        obj = MitigatedObjective(DefaultObjective(
            parse_pauli("Z0 Z1 + X0"), kernel, ExecutionConfig(shots=500, noise=noise)))
        errors = []

        def worker():
            try:
                obj([])
            except Exception as e:  # reported below; a thread cannot raise into pytest
                errors.append(e)

        pool = [threading.Thread(target=worker) for _ in range(4)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in pool)
        assert errors == []
        assert calls == [2]


class TestCalibrationAtConstruction:
    """A stage without an explicit calibration calibrates in its constructor;
    evaluations only read the stages."""

    NOISE = ReadoutNoiseModel(p01=0.02, p10=0.05)
    EXPLICIT = {0: np.array([[0.97, 0.01], [0.03, 0.99]]),
                1: np.array([[0.9, 0.2], [0.1, 0.8]])}

    def _inner(self, exact=False, sink=None):
        kernel = parse_kernel("kernel prep() qubits 2 { H q0; CNOT q0 q1; }")
        config = ExecutionConfig(shots=500, seed=5, noise=self.NOISE, exact=exact)
        return DefaultObjective(parse_pauli("Z0 Z1 + X0"), kernel, config, sink)

    @pytest.mark.parametrize("nested", [False, True])
    def test_calibrates_once_in_the_constructor(self, monkeypatch, nested):
        calls = []

        def counting(num_qubits, config, _real=mitigation.calibrate):
            calls.append(num_qubits)
            return _real(num_qubits, config)

        monkeypatch.setattr(mitigation, "calibrate", counting)
        obj = MitigatedObjective(self._inner())
        if nested:  # a self-calibrating outer stage reuses the inner calibration
            obj = MitigatedObjective(obj)
        assert calls == [2]
        for _ in range(3):
            obj([])
        sync(task_initiate(TaskSpec(objective=obj, params=[])))
        assert calls == [2]

    def test_failing_calibration_fails_the_constructor(self, monkeypatch):
        def failing(num_qubits, config):
            raise ValidationError("calibration estimate is singular")

        monkeypatch.setattr(mitigation, "calibrate", failing)
        with pytest.raises(ValidationError, match="singular"):
            MitigatedObjective(self._inner())
        inner = MitigatedObjective(self._inner(), self.EXPLICIT)
        with pytest.raises(ValidationError, match="singular"):
            MitigatedObjective(inner)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("order", ["self-explicit", "explicit-self"])
    @pytest.mark.parametrize("to_sink", [False, True])
    def test_nested_stages_record_the_calibration(self, exact, order, to_sink):
        sink = ResultBuffer() if to_sink else None
        inner_cal, outer_cal = ((None, self.EXPLICIT) if order == "self-explicit"
                                else (self.EXPLICIT, None))
        obj = MitigatedObjective(MitigatedObjective(self._inner(exact, sink), inner_cal),
                                 outer_cal)
        root = sync(task_initiate(TaskSpec(objective=obj, params=[])))
        metadata = (sink if to_sink else root).metadata
        entry = metadata.get("readout-calibration", HeterogeneousMap)
        want = calibrate(2, obj.config)
        for q in range(2):
            assert entry.get(f"q{q}", list) == [float(x) for x in want[q].reshape(-1)]


def _random_confusion(rng):
    """An asymmetric column-stochastic 2x2 matrix [[1-p01, p10], [p01, 1-p10]]."""
    p01, p10 = rng.uniform(0.0, 0.2, size=2)
    return np.array([[1 - p01, p10], [p01, 1 - p10]])


class TestWeightPath:
    """The stage's estimate is one dot with per-term parity weights g."""

    @staticmethod
    def _stacked(inner, cals):
        obj = inner
        for cal in cals:
            obj = MitigatedObjective(obj, cal)
        return obj

    @pytest.mark.parametrize("num_stages", [1, 2, 3])
    def test_estimate_matches_chained_invert(self, num_stages):
        rng = np.random.default_rng(500 + num_stages)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            qubits = sorted(rng.choice(n, size=k, replace=False).tolist())
            string = parse_pauli(" ".join(f"Z{q}" for q in qubits)).terms[0].string
            term = PauliObservable([(rng.normal(), string)]).terms[0]
            inner = DefaultObjective(PauliObservable([(1.0, term.string)]),
                                     identity_kernel(n), ExecutionConfig(shots=500))
            # a fresh random matrix per stage and qubit: the stages do not commute
            cals = [{q: _random_confusion(rng) for q in range(n)}
                    for _ in range(num_stages)]
            obj = self._stacked(inner, cals)
            for outcomes in (rng.integers(0, 50, size=1 << k), rng.dirichlet(np.ones(1 << k))):
                run = TermRun(term, HeterogeneousMap(), 0.0, outcomes)
                obj._mitigate([run], None)
                quasi = outcomes
                for cal in cals:
                    quasi = _invert(quasi, _inverse_confusion(cal), qubits)
                want = expectation_from_vector(term, quasi)
                assert abs(run.expectation - want) <= 1e-12, (n, qubits, num_stages)

    def test_only_measured_qubits_need_calibration(self):
        kernel = parse_kernel("kernel prep() qubits 3 { X q0; H q1; }")
        obs = parse_pauli("Z0 + Z0 Z1")
        config = ExecutionConfig(shots=1000, seed=3)
        m = np.array([[0.9, 0.2], [0.1, 0.8]])
        full = {0: m, 1: m}  # q2 is not measured by any term
        assert math.isfinite(MitigatedObjective(DefaultObjective(obs, kernel, config), full)([]))
        for cals in ([{0: m}], [full, {0: m}]):
            obj = self._stacked(DefaultObjective(obs, kernel, config), cals)
            with pytest.raises(ValidationError, match=r"calibration missing for qubits \[1\]"):
                obj([])

    def test_objectives_sharing_a_calibration_build_each_weight_once(self):
        kernel = parse_kernel("kernel prep() qubits 3 { H q0; CNOT q0 q1; Ry(0.3) q2; }")
        obs = parse_pauli("Z0 + Z1 Z2 + X0 X1 + Y2 + 0.5 X1 Z2")
        rng = np.random.default_rng(61)
        calibration = {q: _random_confusion(rng) for q in range(3)}
        cache = pauli._cached_parity_weights
        cache.cache_clear()
        for seed in (1, 2):
            config = ExecutionConfig(shots=400, seed=seed)
            MitigatedObjective(DefaultObjective(obs, kernel, config), calibration)([])
            # one build per distinct measured-qubit tuple: (0,), (1, 2), (0, 1), (2,),
            # and one per raw-sign width: 1, 2
            assert cache.cache_info().misses == 6
        assert cache.cache_info().hits == 2 * 2 * 5 - 6

    def test_wide_terms_bypass_the_cache(self):
        n = pauli._CACHED_WEIGHT_QUBITS + 1
        rng = np.random.default_rng(67)
        calibration = {q: _random_confusion(rng) for q in range(n)}
        term = PauliObservable([(0.7, parse_pauli(" ".join(f"Z{q}" for q in range(n)))
                                 .terms[0].string)]).terms[0]
        obj = MitigatedObjective(DefaultObjective(
            PauliObservable([(0.7, term.string)]), identity_kernel(n),
            ExecutionConfig(shots=500, seed=4)), calibration)
        before = pauli._cached_parity_weights.cache_info().currsize
        assert math.isfinite(obj([]))
        outcomes = rng.integers(0, 5, size=1 << n)
        run = TermRun(term, HeterogeneousMap(), expectation_from_vector(term, outcomes), outcomes)
        obj._mitigate([run], None)
        assert pauli._cached_parity_weights.cache_info().currsize == before
        want = expectation_from_vector(
            term, _invert(outcomes, _inverse_confusion(calibration), term.string.qubits))
        assert run.expectation == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    def test_stage_makes_no_per_qubit_passes(self, monkeypatch, exact):
        noise = ReadoutNoiseModel(p01=0.03, p10=0.06)
        kernel = parse_kernel("kernel prep() qubits 3 { H q0; CNOT q0 q1; Ry(0.7) q2; }")
        obs = parse_pauli("Z0 Z1 + X0 X1 Z2 - 0.3 Y2")
        obj = MitigatedObjective(MitigatedObjective(
            DefaultObjective(obs, kernel, ExecutionConfig(shots=800, seed=9, exact=exact,
                                                          noise=noise)),
            confusion_from_noise(noise, range(3))), {q: np.eye(2) for q in range(3)})
        runs, _ = obj._measure(kernel)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-qubit pass in the mitigation stage")

        monkeypatch.setattr(mitigation, "_invert", forbidden)
        monkeypatch.setattr(mitigation, "apply_per_qubit", forbidden)
        monkeypatch.setattr(simulator, "_apply_1q", forbidden)
        obj._mitigate(runs, None)
        assert all(r.metadata.get("mitigated", bool) for r in runs)
        monkeypatch.undo()
        monkeypatch.setattr(mitigation, "_invert", forbidden)
        monkeypatch.setattr(mitigation, "apply_per_qubit", forbidden)
        assert math.isfinite(obj([]))
