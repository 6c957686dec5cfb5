"""Asynchronous task execution model: objectives, task_initiate, sync.

Quantum results are visible to the host only through the ResultBuffer
returned by `sync` (or published to the objective's buffer sink while the
task runs); nothing is shared in place with the caller.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TaskError, ValidationError
from .kernel import Kernel, identity_kernel
from .pauli import PauliObservable, PauliString, PauliTerm, expectation_from_vector
from .results import HeterogeneousMap, ResultBuffer
from .simulator import (MAX_QUBITS, ExecutionConfig, bitstring_map, exact_distributions,
                        sample_counts)


# The root ResultBuffer of the task running in this context: where an
# objective without a sink of its own publishes its evaluations.
_TASK_ROOT = contextvars.ContextVar("qcor_rt_task_root", default=None)


def derive_seed(base: int, index: int) -> int:
    """Deterministic per-execution seed from a task-level base seed."""
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


@dataclass
class TermRun:
    """Record of one measured term inside an objective evaluation."""

    term: PauliTerm
    metadata: HeterogeneousMap
    expectation: float
    outcomes: np.ndarray  # int64 shot counts (sampled) or float64 probabilities (exact)


class DefaultObjective:
    """Expectation value of the observable at the given parameters.

    One evaluation binds, measures each non-identity term (exact or
    sampled), runs the readout-mitigation stages, sums and publishes to the
    objective's sink, or else to the root of the task it runs in.  There are
    no stages here; `MitigatedObjective` supplies them.
    """

    _stages: tuple = ()  # readout-mitigation stages, innermost first
    _calibration = None  # the confusion matrices a stage measured itself

    def __init__(self, observable: PauliObservable, kernel: Kernel,
                 config: ExecutionConfig | None = None,
                 sink: ResultBuffer | None = None):
        observable.check_kernel(kernel)  # fail before any task starts
        if kernel.num_qubits > MAX_QUBITS:
            raise ValidationError(
                f"simulator capped at {MAX_QUBITS} qubits, kernel has {kernel.num_qubits}")
        self.observable = observable
        self.kernel = kernel
        self.config = config if config is not None else ExecutionConfig()
        self.sink = sink
        self._exec_count = 0
        self._exec_lock = threading.Lock()

    def dimensions(self) -> int:
        return len(self.kernel.params)

    def _run(self, term: PauliTerm, metadata, outcomes: np.ndarray) -> TermRun:
        metadata.put("term", str(term.string))
        metadata.put("coefficient", term.coefficient)
        return TermRun(term, metadata, expectation_from_vector(term, outcomes), outcomes)

    def _measure(self, bound: Kernel) -> tuple:
        """(TermRun per non-identity term, identity offset), every term measured
        from one evolution: exact mode publishes its outcome vector after readout
        noise, sampled mode draws each term's shots from it with the next
        per-execution seed."""
        terms, offset = self.observable.split_identity()
        dists = exact_distributions(bound, [t.string for t in terms], self.config.noise)
        if self.config.exact:
            return [self._run(term, HeterogeneousMap({"mode": "exact"}), dist)
                    for term, dist in zip(terms, dists)], offset
        with self._exec_lock:  # consecutive indices for this evaluation, across threads
            first = self._exec_count
            self._exec_count += len(terms)
        runs = []
        for i, (term, dist) in enumerate(zip(terms, dists)):
            counts, metadata = sample_counts(dist, term.string.qubits, self.config.shots,
                                             derive_seed(self.config.seed, first + i),
                                             time.perf_counter())
            runs.append(self._run(term, metadata, counts))
        return runs, offset

    def _mitigate(self, runs: list, sink: ResultBuffer | None) -> None:
        """Readout-mitigation stages: re-estimate `runs` in place.  `sink` is
        where this evaluation publishes."""

    def __call__(self, params: Sequence[float]) -> float:
        bound = self.kernel.bind(params)
        runs, offset = self._measure(bound)
        value = offset.real + sum(r.expectation for r in runs)
        sink = self.sink if self.sink is not None else _TASK_ROOT.get()
        extra = None
        if self._stages:
            self._mitigate(runs, sink)
            raw, value = value, offset.real + sum(r.expectation for r in runs)
            extra = {"raw-value": float(raw), "mitigated-value": float(value)}
        publish_evaluation(sink, params, value, runs, extra)
        return value


def publish_evaluation(sink: ResultBuffer | None, params, value, runs,
                       extra: dict | None = None) -> None:
    """Append one evaluation node (with per-kernel grandchildren) to the sink:
    integer outcomes are shot counts, keyed by bitstring; exact probabilities
    are not, and go to "distribution", a REAL_ARRAY in outcome-index order."""
    if sink is None:
        return
    child = ResultBuffer(HeterogeneousMap({
        "params": [float(p) for p in params],
        "value": float(value),
        **(extra or {}),
    }))
    for run in runs:
        if run.outcomes.dtype.kind == "i":
            grandchild = ResultBuffer(run.metadata, counts=bitstring_map(
                run.outcomes, len(run.term.string.qubits)))
        else:
            grandchild = ResultBuffer(run.metadata)
            grandchild.metadata.put("distribution", run.outcomes)
        child.add_child(grandchild)
    sink.add_child(child)


# ---------------------------------------------------------------------------
# task machinery

_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_LOCK = threading.Lock()
_RUNTIME_TOKEN = object()


def _executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(max_workers=8,
                                           thread_name_prefix="qcor-task")
        return _EXECUTOR


@dataclass
class TaskSpec:
    """Arguments for task_initiate; every field may take its default.  Given
    an objective, the kernel, observable, config and num_qubits go unused."""

    kernel: Kernel | None = None
    observable: PauliObservable | None = None
    objective: DefaultObjective | None = None
    optimizer: object | None = None
    params: Sequence[float] | None = None
    config: ExecutionConfig = field(default_factory=ExecutionConfig)
    num_qubits: int | None = None


class TaskHandle:
    """Opaque handle for one in-flight task; sync-able exactly once."""

    def __init__(self, future: Future):
        self._future = future
        self._synced = False
        self._lock = threading.Lock()
        self._runtime = _RUNTIME_TOKEN


def computational_basis_observable(num_qubits: int) -> PauliObservable:
    """Single all-qubit Z string: measures every qubit in the computational basis."""
    return PauliObservable([(1.0, PauliString(z=(1 << num_qubits) - 1))])


def _resolve(spec: TaskSpec):
    """Apply the default-argument rules and validate synchronously."""
    if spec.objective is not None:
        objective = spec.objective
    else:
        kernel = spec.kernel
        observable = spec.observable
        if kernel is None:
            if observable is not None and observable.num_qubits() > 0:
                width = observable.num_qubits()
            elif spec.num_qubits is not None:
                width = spec.num_qubits
            else:
                raise ValidationError(
                    "cannot infer kernel width: provide kernel, observable, or num_qubits"
                )
            kernel = identity_kernel(width)
        if observable is None:
            observable = computational_basis_observable(kernel.num_qubits)
        objective = DefaultObjective(observable, kernel, spec.config)

    params = list(spec.params) if spec.params is not None else None
    dims = objective.dimensions()
    if spec.optimizer is None:
        if params is None:
            if dims > 0:
                raise ValidationError(
                    "no optimizer given: concrete parameters are required"
                )
            params = []
        elif len(params) != dims:
            raise ValidationError(
                f"objective takes {dims} parameter(s), got {len(params)}"
            )
        elif not all(isinstance(p, numbers.Real) and math.isfinite(p) for p in params):
            raise ValidationError(f"parameters must be finite numbers, got {params}")
    return objective, spec.optimizer, params


def _run_task(objective, optimizer, params) -> ResultBuffer:
    """Run one task in a context of its own (see task_initiate)."""
    root = ResultBuffer()
    _TASK_ROOT.set(root)
    if optimizer is not None:
        opt_params, opt_value = optimizer.optimize(objective)
        root.metadata.put("opt-value", float(opt_value))
        root.metadata.put("opt-params", [float(p) for p in opt_params])
    else:
        value = objective(params)
        root.metadata.put("value", float(value))
        root.metadata.put("params", [float(p) for p in params])
    root.metadata.put("num-evaluations", len(root.children))
    return root


def task_initiate(spec: TaskSpec) -> TaskHandle:
    """Launch a task; returns immediately with a handle for sync()."""
    objective, optimizer, params = _resolve(spec)
    # a copy of the caller's context per task, so the task's root is its own
    future = _executor().submit(contextvars.copy_context().run, _run_task,
                                objective, optimizer, params)
    return TaskHandle(future)


def sync(handle: TaskHandle) -> ResultBuffer:
    """Block until the task finishes and return its root ResultBuffer."""
    if not isinstance(handle, TaskHandle) or getattr(handle, "_runtime", None) is not _RUNTIME_TOKEN:
        raise TaskError("handle does not belong to this runtime")
    with handle._lock:
        if handle._synced:
            raise TaskError("handle already synced")
        handle._synced = True
    try:
        return handle._future.result()
    except TaskError:
        raise
    except Exception as e:
        raise TaskError(f"task failed: {e}") from e
