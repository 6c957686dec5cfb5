"""Spans around the program's public functions, for the traced run only.

`Tracer.install` replaces each public function and method listed in
`_TARGETS` with a wrapper, in every module of the package that holds it,
so calls are recorded where they are made.  A span has a name, start,
end, parent span, trace id (one per task, or per call made outside a
task) and the run phase it started in.  Spans stay in memory until the
run ends.  The untraced run never imports this module.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, attribute or Class.method, span name)
_TARGETS = (
    ("fermion", "parse_fermion", "fermion.parse"),
    ("fermion", "normal_order", "fermion.normal_order"),
    ("fermion", "jordan_wigner", "fermion.jordan_wigner"),
    ("kernel", "parse_kernel", "kernel.parse"),
    ("kernel", "Kernel.bind", "kernel.bind"),
    ("kernel", "Kernel.with_measurement_basis", "kernel.with_measurement_basis"),
    ("pauli", "PauliObservable.observe", "pauli.observe"),
    ("pauli", "expectation_from_counts", "pauli.expectation"),
    ("simulator", "execute", "simulator.execute"),
    ("simulator", "exact_distribution", "simulator.exact_distribution"),
    ("mitigation", "calibrate", "mitigation.calibrate"),
    ("mitigation", "mitigate_counts", "mitigation.mitigate_counts"),
    ("runtime", "task_initiate", "runtime.initiate"),
    ("runtime", "sync", "runtime.sync"),
    ("runtime", "DefaultObjective.__call__", "runtime.objective"),
    ("mitigation", "MitigatedObjective.__call__", "runtime.objective"),
    ("runtime", "publish_evaluation", "results.publish"),
    ("results", "ResultBuffer.to_json", "results.to_json"),
    ("optimizers", "NelderMead.optimize", "optimizers.optimize"),
)


@dataclass
class Span:
    name: str
    span: int
    parent: int | None
    trace: int
    phase: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


@dataclass
class _Task:
    trace: int
    root: int
    phase: str
    initiated: float
    initiate_done: float = 0.0
    first_work: float | None = None
    sync_start: float = 0.0
    sync_done: float = 0.0
    keys: tuple = ()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.tasks: list = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._task_of: dict = {}     # id(objective) or id(handle) -> _Task

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module_name, attr, span_name in _TARGETS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(getattr(cls, method), span_name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, span_name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(fn, name, args, kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name, args, kwargs):
        stack = self._stack()
        task = None
        if stack:
            parent, trace = stack[-1].span, stack[-1].trace
        elif name == "runtime.initiate":
            trace = next(self._ids)
            task = _Task(trace, next(self._ids), self.phase, time.perf_counter())
            parent = task.root
        else:
            if name in ("runtime.objective", "runtime.sync", "optimizers.optimize"):
                # first call on a task's worker thread, or the sync of a task:
                # find the task by the objective it runs or by its handle
                key = args[1] if name == "optimizers.optimize" else args[0]
                task = self._task_of.get(id(key))
            if task is None:
                parent, trace = None, next(self._ids)
            else:
                parent, trace = task.root, task.trace
        span = Span(name, next(self._ids), parent, trace, self.phase, time.perf_counter())
        if task is not None and task.first_work is None and name != "runtime.initiate" \
                and name != "runtime.sync":
            task.first_work = span.start
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        self._annotate(span, args, result, task)
        return result

    def _annotate(self, span, args, result, task) -> None:
        name = span.name
        if name == "runtime.initiate":
            spec = args[0]
            task.initiate_done = span.end
            task.keys = (id(spec.objective), id(result))
            for key in task.keys:
                self._task_of[key] = task
            self.tasks.append(task)
        elif name == "runtime.sync":
            if task is not None:
                task.sync_start, task.sync_done = span.start, span.end
                # the task is over: drop its keys before their ids are reused
                for key in task.keys:
                    self._task_of.pop(key, None)
        elif name in ("simulator.execute", "simulator.exact_distribution"):
            kernel = args[0]
            span.attrs["gates"] = sum(i.kind.value != "Measure" for i in kernel.body)
            span.attrs["qubits"] = kernel.num_qubits
            if name == "simulator.execute":
                span.attrs["shots"] = args[1].shots
        elif name == "results.to_json":
            span.attrs["bytes"] = len(result)

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "span": s.span, "parent": s.parent,
                                     "trace": s.trace, "phase": s.phase,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")

    def layer_metrics(self, evals: int, setup_reps: int) -> dict:
        """Per-layer metrics: set-up layers as seconds per set-up repetition
        (median), loop layers as counts and busy seconds per evaluation, and
        runtime waits as the median per task."""
        def busy(spans):
            return sum(s.end - s.start for s in spans)

        setup = {}
        for key, name in (("fermion.parse_s", "fermion.parse"),
                          ("fermion.normal_order_s", "fermion.normal_order"),
                          ("fermion.jordan_wigner_s", "fermion.jordan_wigner"),
                          ("kernel.parse_s", "kernel.parse"),
                          ("mitigation.calibrate_s", "mitigation.calibrate")):
            setup[key] = statistics.median(
                busy(s for s in self.spans if s.name == name and s.phase == f"setup{r}")
                for r in range(setup_reps))

        loop = [s for s in self.spans if s.phase == "loop"]
        by_name: dict = {}
        for s in loop:
            by_name.setdefault(s.name, []).append(s)
        child_time: dict = {}
        for s in loop:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start

        def spans(name):
            return by_name.get(name, [])

        def per_eval(x):
            return x / evals

        def self_time(name):
            return busy(spans(name)) - sum(child_time.get(s.span, 0.0) for s in spans(name))

        sim = spans("simulator.execute") + spans("simulator.exact_distribution")
        gates = sum(s.attrs["gates"] for s in sim)
        computed = sum(s.attrs["gates"] * (1 << s.attrs["qubits"]) * 16 * 2 for s in sim)
        optimize_calls = len(spans("optimizers.optimize"))
        tasks = [t for t in self.tasks if t.phase == "loop"]

        def task_median(fn):
            return statistics.median(fn(t) for t in tasks) if tasks else 0.0

        out = dict(setup)
        out.update({
            "simulator.circuits_per_eval": per_eval(len(sim)),
            "kernel.bind_calls": per_eval(len(spans("kernel.bind"))),
            "kernel.bind_s": per_eval(busy(spans("kernel.bind"))),
            "kernel.measured_kernels": per_eval(len(spans("kernel.with_measurement_basis"))),
            "kernel.with_measurement_basis_s": per_eval(
                busy(spans("kernel.with_measurement_basis"))),
            "pauli.observe_calls": per_eval(len(spans("pauli.observe"))),
            "pauli.observe_s": per_eval(busy(spans("pauli.observe"))),
            "pauli.expectation_calls": per_eval(len(spans("pauli.expectation"))),
            "pauli.expectation_s": per_eval(busy(spans("pauli.expectation"))),
            "simulator.exact_distribution_calls": per_eval(
                len(spans("simulator.exact_distribution"))),
            "simulator.exact_distribution_s": per_eval(
                busy(spans("simulator.exact_distribution"))),
            "simulator.execute_calls": per_eval(len(spans("simulator.execute"))),
            "simulator.execute_s": per_eval(busy(spans("simulator.execute"))),
            "simulator.shots_drawn": per_eval(
                sum(s.attrs["shots"] for s in spans("simulator.execute"))),
            "simulator.gates_applied": per_eval(gates),
            "simulator.bytes_computed": per_eval(computed),
            "mitigation.mitigate_counts_calls": per_eval(
                len(spans("mitigation.mitigate_counts"))),
            "mitigation.mitigate_counts_s": per_eval(busy(spans("mitigation.mitigate_counts"))),
            "runtime.objective_self_s": per_eval(self_time("runtime.objective")),
            "runtime.initiate_s": task_median(lambda t: t.initiate_done - t.initiated),
            # a worker that starts before task_initiate returns waited 0
            "runtime.queue_wait_s": task_median(
                lambda t: max((t.first_work or t.initiate_done) - t.initiate_done, 0.0)),
            "runtime.sync_wait_s": task_median(lambda t: t.sync_done - t.sync_start),
            "results.publish_calls": per_eval(len(spans("results.publish"))),
            "results.publish_s": per_eval(busy(spans("results.publish"))),
            "results.to_json_s": per_eval(busy(spans("results.to_json"))),
            "results.json_bytes": per_eval(
                sum(s.attrs["bytes"] for s in spans("results.to_json"))),
            "optimizers.optimize_self_s": per_eval(self_time("optimizers.optimize")),
            "optimizers.evals": (len(spans("runtime.objective")) / optimize_calls
                                 if optimize_calls else 0.0),
        })
        return out
