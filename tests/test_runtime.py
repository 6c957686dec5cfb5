import json
import math
import threading
import time
import types

import numpy as np
import pytest

from qcor_rt import (DefaultObjective, ExecutionConfig, FunctionObjective,
                     HeterogeneousMap, Kind, KindMismatchError, MissingKeyError,
                     NelderMead, OptimizationError, ResultBuffer, TaskError,
                     TaskHandle, TaskSpec, ValidationError, derive_seed,
                     exact_expectation, make_optimizer, parse_kernel,
                     parse_pauli, sync, task_initiate)
from qcor_rt import (MitigatedObjective, PauliObservable, ReadoutNoiseModel,
                     confusion_from_noise, exact_distribution, exact_distributions, execute,
                     identity_kernel, simulator)
from qcor_rt.results import VOLATILE_KEYS
from qcor_rt.runtime import computational_basis_observable

from conftest import (BELL, decode_real_array, indexed_outcomes, random_bound_kernel,
                      random_hermitian_observable)


class TestHeterogeneousMap:
    def test_put_get_by_kind(self):
        m = HeterogeneousMap()
        m.put("shots", 1024)
        assert m.get("shots", Kind.INT) == 1024
        assert m.get("shots", int) == 1024

    def test_missing_key_is_distinct_error(self):
        m = HeterogeneousMap({"a": 1})
        with pytest.raises(MissingKeyError):
            m.get("b", int)
        with pytest.raises(KindMismatchError):
            m.get("a", float)

    def test_bool_is_not_int(self):
        m = HeterogeneousMap({"flag": True})
        assert m.kind_of("flag") is Kind.BOOL
        with pytest.raises(KindMismatchError):
            m.get("flag", int)

    def test_real_list(self):
        m = HeterogeneousMap({"params": [0.1, 0.2], "point": (1, 0.5)})
        assert m.get("params", Kind.REAL_LIST) == [0.1, 0.2]
        assert m.get("point", list) == [1.0, 0.5]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint8])
    def test_real_arrays_store_as_read_only_float64(self, dtype):
        arr = np.array([0.5, 1.0, 0.0, 3.0]).astype(dtype)
        m = HeterogeneousMap({"d": arr})
        stored = m.get("d", Kind.REAL_ARRAY)
        assert m.kind_of("d") is Kind.REAL_ARRAY and m.get("d", np.ndarray) is stored
        assert stored.dtype == np.float64 and stored.shape == (4,)
        assert stored.tolist() == [float(v) for v in arr]
        with pytest.raises(ValueError):
            stored[0] = 2.0
        empty = HeterogeneousMap({"d": np.zeros(0, dtype=dtype)}).get("d", Kind.REAL_ARRAY)
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_stored_array_is_a_copy(self):
        arr = np.array([0.25, 0.75])
        m = HeterogeneousMap()
        m.put("d", arr)
        arr[0] = 9.0
        assert arr.flags.writeable
        assert m.get("d", Kind.REAL_ARRAY).tolist() == [0.25, 0.75]

    def test_real_array_encodes_as_base64_of_little_endian_float64(self):
        arr = np.array([0.1, -0.0, 1e-300, np.pi, 3.0])
        text = HeterogeneousMap({"d": arr}).to_dict()["d"]
        assert isinstance(text, str) and text.isascii()
        decoded = decode_real_array(json.loads(json.dumps(text)))
        assert decoded.tobytes() == arr.astype("<f8").tobytes()

    @pytest.mark.parametrize("bad", [np.array([1 + 1j, 2.0]), np.array([True, False]),
                                     np.ones((2, 2))])
    def test_other_arrays_still_rejected(self, bad):
        with pytest.raises(ValidationError):
            HeterogeneousMap({"d": bad})

    def test_nested_map(self):
        inner = HeterogeneousMap({"x": 1.0})
        m = HeterogeneousMap({"inner": inner})
        assert m.get("inner", Kind.MAP).get("x", float) == 1.0

    def test_complex_encodes_as_pair(self):
        m = HeterogeneousMap({"coefficient": 1 - 2j})
        assert m.to_dict() == {"coefficient": [1.0, -2.0]}

    def test_update_overwrites(self):
        a = HeterogeneousMap({"k": 1})
        a.update(HeterogeneousMap({"k": 2.5}))
        assert a.get("k", float) == 2.5


class TestResultBuffer:
    def test_json_schema(self):
        root = ResultBuffer(HeterogeneousMap({"value": -1.0}))
        child = root.add_child(ResultBuffer(counts={"00": 3, "11": 5}))
        got = root.to_dict()
        assert set(got) == {"metadata", "counts", "children"}
        assert got["children"][0]["counts"] == {"00": 3, "11": 5}
        assert child.to_dict()["children"] == []

    def test_exclude_keys(self):
        root = ResultBuffer(HeterogeneousMap({"wall-time-ms": 3.2, "seed": 1}))
        assert "wall-time-ms" not in root.to_dict(exclude=("wall-time-ms",))["metadata"]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_per_index(self):
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100


class TestDefaultObjective:
    def test_identity_only_no_executions(self):
        obj = DefaultObjective(parse_pauli("(3.5,0) I"),
                               parse_kernel("kernel id() qubits 1 { }"))
        assert obj(()) == 3.5
        assert obj._exec_count == 0

    def test_exact_matches_dense(self, ansatz_2p):
        obs = parse_pauli("X0 X1 + Z0 Z1")
        obj = DefaultObjective(obs, ansatz_2p, ExecutionConfig(exact=True))
        for params in ([0.0, 0.0], [0.3, -1.1], [math.pi / 2, math.pi / 2]):
            want = exact_expectation(ansatz_2p.bind(params), obs)
            assert obj(params) == pytest.approx(want, abs=1e-10)

    def test_linearity_exact(self, ansatz_1p):
        a = parse_pauli("X0 X1")
        b = parse_pauli("Z0 Z1")
        cfg = ExecutionConfig(exact=True)
        params = [0.7]
        total = DefaultObjective(a + b, ansatz_1p, cfg)(params)
        split = (DefaultObjective(a, ansatz_1p, cfg)(params)
                 + DefaultObjective(b, ansatz_1p, cfg)(params))
        assert total == pytest.approx(split, abs=1e-10)

    def test_sampled_deterministic_for_fixed_seed(self, ansatz_1p):
        obs = parse_pauli("X0 X1")
        cfg = ExecutionConfig(shots=2000, seed=42)
        v1 = DefaultObjective(obs, ansatz_1p, cfg)([0.4])
        v2 = DefaultObjective(obs, ansatz_1p, cfg)([0.4])
        assert v1 == v2

    def test_publishes_to_sink(self, ansatz_1p):
        sink = ResultBuffer()
        obs = parse_pauli("X0 X1 + Z0 Z1")
        obj = DefaultObjective(obs, ansatz_1p, ExecutionConfig(shots=500), sink)
        obj([0.1])
        obj([0.2])
        assert len(sink.children) == 2
        child = sink.children[0]
        assert child.metadata.get("params", list) == [0.1]
        assert len(child.children) == 2  # one grandchild per measured term
        grandchild = child.children[0]
        assert sum(grandchild.counts.values()) == 500
        assert grandchild.metadata.get("term", str)


class TestNelderMead:
    def test_scalar_quadratic(self):
        # off-lattice target: a minimum at an exact multiple of the initial
        # step lets the simplex straddle it symmetrically and stall early
        target = math.sqrt(3)
        obj = FunctionObjective(lambda x: (x[0] - target) ** 2, 1)
        params, value = NelderMead({"tolerance": 1e-12}).optimize(obj)
        assert abs(params[0] - target) < 1e-3
        assert value < 1e-6

    def test_multidim_convex_quadratics(self):
        rng = np.random.default_rng(67)
        for dim in range(1, 5):
            target = rng.uniform(-1, 1, size=dim)
            obj = FunctionObjective(
                lambda x, t=target: float(np.sum((np.asarray(x) - t) ** 2)), dim)
            opt = NelderMead({"max-iterations": 500, "tolerance": 1e-10})
            params, value = opt.optimize(obj)
            assert np.allclose(params, target, atol=1e-3)

    def test_respects_budget(self):
        calls = []
        obj = FunctionObjective(lambda x: calls.append(1) or (x[0] ** 2), 1)
        NelderMead({"max-iterations": 25, "tolerance": 1e-30}).optimize(obj)
        assert len(calls) <= 25

    def test_initial_point(self):
        obj = FunctionObjective(lambda x: (x[0] + 3.0) ** 2, 1)
        params, _ = NelderMead({"initial-point": [-2.9]}).optimize(obj)
        assert abs(params[0] + 3.0) < 1e-3

    def test_unknown_option_rejected(self):
        with pytest.raises(ValidationError):
            NelderMead({"step-size": 0.1})

    def test_any_mapping_is_read(self):
        assert NelderMead(types.MappingProxyType({"max-iterations": 7})).max_evals == 7
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            NelderMead(types.MappingProxyType({"tolerance": -1.0}))

    @pytest.mark.parametrize("options", [[("tolerance", 1e-3)], "tolerance", 3])
    def test_options_that_are_not_a_mapping_rejected(self, options):
        with pytest.raises(ValidationError, match="must be a mapping"):
            NelderMead(options)

    def test_non_finite_objective(self):
        obj = FunctionObjective(lambda x: float("nan"), 1)
        with pytest.raises(OptimizationError):
            NelderMead().optimize(obj)

    def test_make_optimizer(self):
        assert isinstance(make_optimizer("nelder-mead"), NelderMead)
        with pytest.raises(ValidationError):
            make_optimizer("adam")


class TestTaskDefaults:
    def test_all_defaults_single_qubit(self):
        # identity kernel + all-qubit Z observable on |0> gives +1
        buf = sync(task_initiate(TaskSpec(num_qubits=1, params=[])))
        assert buf.metadata.get("value", float) == pytest.approx(1.0)

    def test_default_observable_is_all_z(self):
        obs = computational_basis_observable(3)
        assert obs.to_string() == "Z0 Z1 Z2"

    def test_default_kernel_from_observable(self):
        buf = sync(task_initiate(TaskSpec(observable=parse_pauli("Z0 Z1"),
                                          params=[])))
        assert buf.metadata.get("value", float) == pytest.approx(1.0)

    def test_params_required_without_optimizer(self, ansatz_1p):
        with pytest.raises(ValidationError):
            task_initiate(TaskSpec(kernel=ansatz_1p,
                                   observable=parse_pauli("X0 X1")))

    def test_arity_checked_synchronously(self, ansatz_1p):
        with pytest.raises(ValidationError):
            task_initiate(TaskSpec(kernel=ansatz_1p,
                                   observable=parse_pauli("X0 X1"),
                                   params=[0.1, 0.2]))

    def test_nothing_to_infer(self):
        with pytest.raises(ValidationError):
            task_initiate(TaskSpec())


class TestTaskLifecycle:
    def test_evaluation_buffer_structure(self, ansatz_2p):
        spec = TaskSpec(kernel=ansatz_2p, observable=parse_pauli("X0 X1 + Z0 Z1"),
                        params=[0.2, 0.4], config=ExecutionConfig(shots=100, seed=3))
        buf = sync(task_initiate(spec))
        assert buf.metadata.get("num-evaluations", int) == 1
        assert len(buf.children) == 1
        assert len(buf.children[0].children) == 2

    def test_optimized_task(self, ansatz_1p):
        spec = TaskSpec(kernel=ansatz_1p, observable=parse_pauli("X0 X1"),
                        optimizer=NelderMead(), config=ExecutionConfig(exact=True))
        buf = sync(task_initiate(spec))
        assert buf.metadata.get("opt-value", float) == pytest.approx(-1.0, abs=1e-4)
        assert len(buf.metadata.get("opt-params", list)) == 1
        assert buf.metadata.get("num-evaluations", int) == len(buf.children)

    def test_double_sync_rejected(self):
        handle = task_initiate(TaskSpec(num_qubits=1, params=[]))
        sync(handle)
        with pytest.raises(TaskError):
            sync(handle)

    def test_foreign_handle_rejected(self):
        class Fake:
            pass

        with pytest.raises(TaskError):
            sync(Fake())
        fake = TaskHandle.__new__(TaskHandle)
        fake._runtime = object()
        with pytest.raises(TaskError):
            sync(fake)

    def test_task_failure_wrapped(self):
        class Exploding(FunctionObjective):
            sink = None

            def __init__(self):
                super().__init__(lambda x: 1 / 0, 0)

        handle = task_initiate(TaskSpec(objective=Exploding(), params=[]))
        with pytest.raises(TaskError, match="task failed"):
            sync(handle)

    def test_initiate_returns_before_completion(self):
        class Slow(FunctionObjective):
            sink = None

            def __init__(self):
                super().__init__(lambda x: time.sleep(0.5) or 7.0, 0)

        start = time.perf_counter()
        handle = task_initiate(TaskSpec(objective=Slow(), params=[]))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        buf = sync(handle)
        assert buf.metadata.get("value", float) == 7.0

    def test_handle_transfer_across_threads(self):
        handle = task_initiate(TaskSpec(num_qubits=1, params=[]))
        result = {}

        def worker():
            result["buf"] = sync(handle)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert result["buf"].metadata.get("value", float) == pytest.approx(1.0)

    def test_concurrent_tasks(self):
        class Slow(FunctionObjective):
            sink = None

            def __init__(self):
                super().__init__(lambda x: time.sleep(0.3) or 1.0, 0)

        start = time.perf_counter()
        handles = [task_initiate(TaskSpec(objective=Slow(), params=[]))
                   for _ in range(2)]
        for h in handles:
            sync(h)
        # both 0.3 s objectives must have overlapped
        assert time.perf_counter() - start < 0.55


class TestExactEvaluation:
    """Exact mode measures every term from one evolution of the ansatz; the
    evolve-once check covers sampled mode too."""

    NOISE = ReadoutNoiseModel(p01=0.04, p10=0.09)

    @staticmethod
    def _observable(rng, n):
        obs = random_hermitian_observable(rng, max_qubits=n, max_terms=8)
        return obs + PauliObservable.identity(float(rng.normal()))

    def test_published_distributions_equal_per_term_kernels(self):
        rng = np.random.default_rng(97)
        for trial in range(16):
            n = int(rng.integers(1, 9))
            kernel = random_bound_kernel(rng, num_qubits=n, depth=3 * n)
            obs = self._observable(rng, n)
            noise = self.NOISE if trial % 2 else None
            sink = ResultBuffer()
            DefaultObjective(obs, kernel, ExecutionConfig(exact=True, noise=noise), sink)(())
            terms, _ = obs.split_identity()
            runs = sink.children[0].children
            assert [r.metadata.get("term", str) for r in runs] == [str(t.string) for t in terms]
            for term, run in zip(terms, runs):
                want = exact_distribution(kernel.with_measurement_basis(term.string), noise)
                got = run.metadata.get("distribution", Kind.REAL_ARRAY)
                assert indexed_outcomes(got, len(term.string.qubits)) == want

    @pytest.mark.parametrize("mitigated", [False, True])
    def test_distributions_round_trip_through_json(self, mitigated):
        rng = np.random.default_rng(103)
        for trial in range(16):
            n = int(rng.integers(1, 9))
            kernel = random_bound_kernel(rng, num_qubits=n, depth=3 * n)
            obs = self._observable(rng, n)
            noise = self.NOISE if trial % 2 else None
            sink = ResultBuffer()
            objective = DefaultObjective(obs, kernel, ExecutionConfig(exact=True, noise=noise), sink)
            (MitigatedObjective(objective) if mitigated else objective)(())
            terms, _ = obs.split_identity()
            want = exact_distributions(kernel, [t.string for t in terms], noise)
            runs = json.loads(sink.to_json())["children"][0]["children"]
            assert ([decode_real_array(r["metadata"]["distribution"]).tobytes() for r in runs]
                    == [w.astype("<f8").tobytes() for w in want])
            assert all(r["metadata"].get("mitigated", False) is mitigated for r in runs)

    def test_noise_free_value_matches_dense_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(16):
            n = int(rng.integers(1, 9))
            kernel = random_bound_kernel(rng, num_qubits=n, depth=3 * n)
            obs = self._observable(rng, n)
            got = DefaultObjective(obs, kernel, ExecutionConfig(exact=True))(())
            assert abs(got - exact_expectation(kernel, obs)) <= 1e-10

    # explicit ids keep the exact-mode cases' names stable: "False" and "True"
    @pytest.mark.parametrize("exact, mitigate", [
        pytest.param(True, False, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="sampled-False"),
        pytest.param(False, True, id="sampled-True"),
    ])
    def test_one_evolution_per_evaluation(self, monkeypatch, ansatz_2p, exact, mitigate):
        calls = []

        def evolve(kernel):
            calls.append(kernel)
            return real_evolve(kernel)

        real_evolve = simulator._evolve
        monkeypatch.setattr(simulator, "_evolve", evolve)
        obs = parse_pauli("X0 X1 + Z0 Z1 + (0.5,0) Y0 + Z1 + (2,0) I")
        obj = DefaultObjective(obs, ansatz_2p, ExecutionConfig(exact=exact, noise=self.NOISE))
        if mitigate:  # sampled calibration would run circuits of its own
            calibration = None if exact else confusion_from_noise(self.NOISE, [0, 1])
            obj = MitigatedObjective(obj, calibration)
        obj([0.3, -0.8])
        assert len(calls) == 1 and not calls[0].is_measured()


class TestSampledEvaluation:
    """Sampled mode draws every term's shots from one evolution; the reference
    is one measured kernel per term through `execute`, seeded as before."""

    NOISE = ReadoutNoiseModel(p01=0.04, p10=0.09, per_qubit={0: (0.1, 0.02)})

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_published_runs_equal_per_term_executions(self, mitigate):
        rng = np.random.default_rng(131 + mitigate)
        for trial in range(12):
            n = int(rng.integers(1, 9))
            kernel = random_bound_kernel(rng, num_qubits=n, depth=3 * n)
            obs = (random_hermitian_observable(rng, max_qubits=n, max_terms=8)
                   + PauliObservable.identity(0.5))
            config = ExecutionConfig(shots=int(rng.integers(1, 3000)),
                                     seed=int(rng.integers(2**32)),
                                     noise=self.NOISE if trial % 2 else None)
            sink = ResultBuffer()
            obj = DefaultObjective(obs, kernel, config, sink)
            if mitigate:
                obj = MitigatedObjective(obj, confusion_from_noise(self.NOISE, range(n)))
            obj(())
            obj(())  # execution indices carry on across evaluations
            terms, _ = obs.split_identity()
            runs = [g for child in sink.children for g in child.children]
            assert len(runs) == 2 * len(terms)
            own = ["term", "coefficient"] + (["raw-expectation", "mitigated"] if mitigate else [])
            for i, (term, run) in enumerate(zip(terms * 2, runs)):
                counts, metadata = execute(kernel.with_measurement_basis(term.string),
                                           config.with_seed(derive_seed(config.seed, i)))
                want = metadata.to_dict(exclude=VOLATILE_KEYS)
                got = run.metadata.to_dict(exclude=VOLATILE_KEYS)
                assert run.counts == counts
                assert list(got.items()) == list(want.items()) + [(k, got[k]) for k in own]
                assert run.metadata.get("wall-time-ms", float) >= 0


class TestBasesRunInParallelEquivalence:
    def test_grouped_vs_per_term_exact(self):
        # evaluating term groups separately must match the joint evaluation
        rng = np.random.default_rng(71)
        from conftest import random_bound_kernel, random_hermitian_observable
        cfg = ExecutionConfig(exact=True)
        for _ in range(10):
            kernel = random_bound_kernel(rng, num_qubits=3, depth=5)
            obs = random_hermitian_observable(rng, max_qubits=3, max_terms=5)
            whole = DefaultObjective(obs, kernel, cfg)(())
            by_group = sum(DefaultObjective(g, kernel, cfg)(())
                           for g in obs.group_commuting())
            assert whole == pytest.approx(by_group, abs=1e-10)


class TestSharedObjectiveThreads:
    def test_concurrent_evaluations_draw_distinct_seeds(self):
        """One objective evaluated from more threads than cores: every
        execution takes its own index, so every seed is distinct."""
        import os
        import sys

        threads, evals = max(8, (os.cpu_count() or 1) + 2), 25
        obs = parse_pauli("Z0 + Z1 + X0 X1 + Z0 Z1")
        kernel = parse_kernel("kernel k() qubits 2 { H q0; CNOT q0 q1; }")
        sink = ResultBuffer()
        obj = DefaultObjective(obs, kernel, ExecutionConfig(shots=5, seed=1), sink)
        errors = []

        def worker():
            try:
                for _ in range(evals):
                    obj([])
            except Exception as e:  # reported below; a thread cannot raise into pytest
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert errors == []
        seeds = [g.metadata.get("seed", int)
                 for child in sink.children for g in child.children]
        assert len(seeds) == threads * evals * 4
        assert len(set(seeds)) == len(seeds)
        assert obj._exec_count == len(seeds)

    def test_each_evaluation_takes_one_block_of_seeds(self):
        """Two threads evaluate one objective: each evaluation's terms draw
        derive_seed(seed, first + i) for consecutive i, and the blocks cover
        every index once."""
        import sys

        obs = parse_pauli(" + ".join(f"Z{q} + X{q}" for q in range(6)))
        kernel = parse_kernel("kernel k() qubits 6 { H q0; CNOT q0 q1; H q3; }")
        sink = ResultBuffer()
        obj = DefaultObjective(obs, kernel, ExecutionConfig(shots=3, seed=4), sink)
        errors = []

        def worker():
            try:
                for _ in range(30):
                    obj([])
            except Exception as e:  # reported below; a thread cannot raise into pytest
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(2)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert errors == []
        index_of = {derive_seed(4, i): i for i in range(obj._exec_count)}
        covered = []
        for child in sink.children:
            indices = [index_of[g.metadata.get("seed", int)] for g in child.children]
            assert indices == list(range(indices[0], indices[0] + len(obs)))
            covered += indices
        assert len(sink.children) == 60
        assert sorted(covered) == list(range(obj._exec_count))


class TestSharedObjectiveTasks:
    """One objective without a sink, shared by several tasks: each task's
    root holds exactly the evaluations that task made."""

    @staticmethod
    def _objective(mitigate):
        kernel = parse_kernel("kernel k(t) qubits 2 { Ry(t) q0; CNOT q0 q1; }")
        noise = ReadoutNoiseModel(p01=0.03, p10=0.06)
        obj = DefaultObjective(parse_pauli("Z0 + X0 X1"), kernel,
                               ExecutionConfig(exact=True, noise=noise))
        return MitigatedObjective(obj) if mitigate else obj

    @staticmethod
    def _own_params(root):
        return [c.metadata.get("params", list) for c in root.children]

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_sequential_tasks(self, mitigate):
        obj = self._objective(mitigate)
        points = [0.1, 0.2, 0.3]
        roots = [sync(task_initiate(TaskSpec(objective=obj, params=[p]))) for p in points]
        for root, p in zip(roots, points):
            assert self._own_params(root) == [[p]]
            assert root.metadata.get("num-evaluations", int) == 1
            assert ("readout-calibration" in root.metadata) == mitigate
        assert obj.sink is None

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_concurrent_tasks(self, mitigate):
        import sys

        obj = self._objective(mitigate)
        starts = [0.1 * i for i in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            handles = [task_initiate(TaskSpec(
                objective=obj, params=[x], optimizer=None if i % 2 else NelderMead(
                    {"max-iterations": 8, "initial-point": [x]})))
                for i, x in enumerate(starts)]
            roots = [sync(h) for h in handles]
        finally:
            sys.setswitchinterval(interval)
        for i, (root, x) in enumerate(zip(roots, starts)):
            own = self._own_params(root)
            assert own[0] == [x]
            assert len(own) == root.metadata.get("num-evaluations", int)
            assert len(own) == (1 if i % 2 else 8)
            assert ("readout-calibration" in root.metadata) == mitigate
        assert obj.sink is None


class TestSynchronousValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "a"])
    def test_non_finite_params_rejected_at_initiate(self, ansatz_1p, bad):
        with pytest.raises(ValidationError):
            task_initiate(TaskSpec(kernel=ansatz_1p,
                                   observable=parse_pauli("X0 X1"), params=[bad]))

    def test_measured_kernel_rejected_at_initiate(self):
        with pytest.raises(ValidationError):
            task_initiate(TaskSpec(kernel=parse_kernel(BELL), observable=parse_pauli("Z0"),
                                   params=[]))

    def test_too_narrow_kernel_rejected_at_initiate(self, ansatz_1p):
        with pytest.raises(ValidationError):
            task_initiate(TaskSpec(kernel=ansatz_1p, observable=parse_pauli("Z3"),
                                   params=[0.1]))

    @pytest.mark.parametrize("exact", [False, True])
    def test_too_wide_kernel_rejected_at_construction(self, exact):
        kernel = identity_kernel(simulator.MAX_QUBITS + 1)
        config = ExecutionConfig(exact=exact)
        with pytest.raises(ValidationError, match="capped"):
            DefaultObjective(parse_pauli("Z0"), kernel, config)
        with pytest.raises(ValidationError, match="capped"):
            task_initiate(TaskSpec(kernel=kernel, observable=parse_pauli("Z0"), config=config))

    @pytest.mark.parametrize("width", ["2", 2.5, 2.0, True])
    def test_non_integer_kernel_width_rejected(self, width):
        with pytest.raises(ValidationError, match="kernel width must be an integer"):
            identity_kernel(width)
        with pytest.raises(ValidationError, match="kernel width must be an integer"):
            task_initiate(TaskSpec(num_qubits=width))

    def test_numpy_integer_kernel_width_accepted(self):
        kernel = identity_kernel(np.int64(2))
        assert type(kernel.num_qubits) is int
        buf = sync(task_initiate(TaskSpec(num_qubits=np.int64(2), params=[])))
        assert buf.metadata.get("value", float) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "a", None])
    def test_bad_initial_point_rejected(self, bad):
        with pytest.raises(ValidationError):
            NelderMead({"initial-point": [0.0, bad]})

    @pytest.mark.parametrize("key", ["max-iterations", "tolerance", "initial-step"])
    def test_non_numeric_option_rejected(self, key):
        with pytest.raises(ValidationError):
            NelderMead({key: "abc"})
