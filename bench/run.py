"""qcor-rt benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload vqe-exact-h10 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.  The
line before it records the workload's properties, the machine, the
latency sample count and digests of the inputs and of the first outputs.
Operation outputs are kept in files under .bench_out/ until they are
checked, so memory does not grow with the number of operations; spans of
a traced run are written to .bench_out/<workload>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
# Half of the set-up repetitions run before the measured loop and half
# after it, so that a burst of load on a shared machine does not set the
# median alone.
SETUP_REPS = 32
OUT_DIR = ".bench_out"

SWEEP_SHOTS = 2048
SWEEP_CLIENTS = 2
SWEEP_P01, SWEEP_P10 = 0.02, 0.05
VQE_BUDGET = 30
JW_TOL = 1e-12
VALUE_TOL = 1e-9
# Standard deviations allowed between a sampled figure and its reference;
# a sweep run checks thousands of terms, so those get a wider margin.
SAMPLING_Z = 5.0
TERM_Z = 6.0


def import_package():
    """Import qcor_rt from ./src of the checkout, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qcor_rt
    except ImportError as e:
        sys.exit(f"error: cannot import qcor_rt from {src}: {e}")
    if Path(qcor_rt.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: qcor_rt was imported from {qcor_rt.__file__}, not {src}")
    return qcor_rt


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class Record:
    """One completed operation: latency to the result, time to the
    serialized result, evaluations it covered, its inputs and its
    serialized output (a file path once the loop has stored it)."""

    index: int
    latency: float
    run: float
    evals: int
    output: object
    inputs: list

    def tree(self):
        return json.loads(self.output.read_text())


# ---------------------------------------------------------------------------
# workloads


class H10Workload:
    """Shared set-up of the two H10 workloads: parse, normal order and
    Jordan-Wigner of H10, and parse of the ansatz."""

    clients = 1
    qubits = inputs.H10_MODES

    def __init__(self, q, seed):
        self.q, self.seed = q, seed
        self.text, spec = inputs.h10(seed)
        self.kernel_text, self.gates, self.num_params = inputs.ansatz()
        self.paulis = reference.jordan_wigner_h10(spec)
        self.source = [self.text, self.kernel_text]

    def build(self):
        f = self.q.fermion
        return {"observable": f.jordan_wigner(f.normal_order(f.parse_fermion(self.text))),
                "kernel": self.q.kernel.parse_kernel(self.kernel_text)}

    def setup_checks(self):
        got = {t.string.ops: t.coefficient for t in self.observable.terms}
        want = self.paulis
        if got.keys() != want.keys():
            return [f"jordan_wigner strings differ from the closed form: "
                    f"{len(got.keys() ^ want.keys())} mismatched"]
        worst = max(abs(got[k] - want[k]) for k in want)
        return [] if worst <= JW_TOL else [f"jordan_wigner coefficient off by {worst:.3e}"]

    def properties(self):
        non_identity = [ops for ops in self.paulis if ops]
        return {
            "qubits": self.qubits,
            "parameters": self.num_params,
            "terms": len(self.paulis),
            "non_identity_terms": len(non_identity),
            "qwc_groups": reference.qwc_groups(self.paulis),
            **inputs.gate_mix(self.gates),
            "measured_qubits_mean": sum(map(len, non_identity)) / len(non_identity),
            "state_bytes": 16 << self.qubits,
        }

    def run_task(self, index, objective, optimizer, params, op_inputs, evals):
        rt = self.q.runtime
        spec = rt.TaskSpec(kernel=self.kernel, observable=self.observable,
                           objective=objective, optimizer=optimizer, params=params,
                           config=objective.config)
        start = time.perf_counter()
        buffer = rt.sync(rt.task_initiate(spec))
        synced = time.perf_counter()
        output = buffer.to_json(indent=2, exclude=self.q.results.VOLATILE_KEYS)
        done = time.perf_counter()
        return Record(index, synced - start, done - start, evals, output, op_inputs)

    def energy(self, params):
        psi = reference.simulate(self.qubits, self.gates, params)
        return reference.energy(psi, self.qubits, self.paulis)

    def tree_errors(self, tree, evaluations):
        errors = []
        terms = sum(1 for ops in self.paulis if ops)
        md = tree["metadata"]
        if md.get("num-evaluations") != evaluations:
            errors.append(f"num-evaluations {md.get('num-evaluations')} != {evaluations}")
        if len(tree["children"]) != evaluations:
            errors.append(f"{len(tree['children'])} evaluation nodes != {evaluations}")
        if any(len(c["children"]) != terms for c in tree["children"]):
            errors.append(f"an evaluation node lacks one child per term ({terms})")
        return errors


class VqeExact(H10Workload):
    """One exact-mode NelderMead VQE per operation."""

    name = "vqe-exact-h10"
    min_ops = 1

    def op(self, index):
        x0 = inputs.angles(self.seed, 2, index, self.num_params)
        s = self.q.simulator
        objective = self.q.runtime.DefaultObjective(
            self.observable, self.kernel, s.ExecutionConfig(exact=True))
        # the tolerance is below any reachable simplex spread, so the
        # evaluation budget ends every run
        optimizer = self.q.optimizers.NelderMead(
            {"max-iterations": VQE_BUDGET, "tolerance": 1e-14, "initial-point": x0})
        return self.run_task(index, objective, optimizer, None, x0, VQE_BUDGET)

    def check(self, record):
        tree = record.tree()
        errors = self.tree_errors(tree, VQE_BUDGET)
        md = tree["metadata"]
        values = [c["metadata"]["value"] for c in tree["children"]]
        if values and md["opt-value"] != min(values):
            errors.append("opt-value is not the best published evaluation")
        ref = self.energy(md["opt-params"])
        if abs(md["opt-value"] - ref) > VALUE_TOL:
            errors.append(f"opt-value {md['opt-value']!r} != reference {ref!r}")
        return errors

    def properties(self):
        return {**super().properties(), "shots": 0, "evaluations_per_task": VQE_BUDGET}


class SweepMitigated(H10Workload):
    """Closed loop of two clients, one sampled, readout-mitigated task per
    parameter point, sharing one calibration made during set-up."""

    name = "sweep-mitigated-h10"
    clients = SWEEP_CLIENTS
    min_ops = SWEEP_CLIENTS

    def __init__(self, q, seed):
        super().__init__(q, seed)
        self.noise = q.simulator.ReadoutNoiseModel(p01=SWEEP_P01, p10=SWEEP_P10)
        self.true_confusion = ((1 - SWEEP_P01, SWEEP_P10), (SWEEP_P01, 1 - SWEEP_P10))

    def build(self):
        config = self.q.simulator.ExecutionConfig(
            shots=SWEEP_SHOTS, seed=inputs.seed_for(self.seed, 5, 0), noise=self.noise)
        return {**super().build(),
                "calibration": self.q.mitigation.calibrate(self.qubits, config)}

    def setup_checks(self):
        errors = super().setup_checks()
        for qubit, m in self.calibration.items():
            for obs_bit in (0, 1):
                for true_bit in (0, 1):
                    p = self.true_confusion[obs_bit][true_bit]
                    sigma = (max(p * (1 - p), 1e-6) / SWEEP_SHOTS) ** 0.5
                    if abs(m[obs_bit][true_bit] - p) > SAMPLING_Z * sigma:
                        errors.append(f"calibration of q{qubit} is off the noise model")
        return errors

    def op(self, index):
        params = inputs.angles(self.seed, 3, index, self.num_params)
        rt, s = self.q.runtime, self.q.simulator
        config = s.ExecutionConfig(shots=SWEEP_SHOTS, seed=inputs.seed_for(self.seed, 4, index),
                                   noise=self.noise)
        objective = self.q.mitigation.MitigatedObjective(
            rt.DefaultObjective(self.observable, self.kernel, config),
            calibration=self.calibration)
        return self.run_task(index, objective, None, params, params, 1)

    def check(self, record):
        """Re-estimate every term from its published counts, compare it with
        the term's reference distribution, and the task's value with the sum
        of those estimates."""
        tree = record.tree()
        errors = self.tree_errors(tree, 1)
        if errors:
            return errors
        psi = reference.simulate(self.qubits, self.gates, record.inputs)
        total = self.paulis.get((), 0.0)
        for node in tree["children"][0]["children"]:
            md, counts = node["metadata"], node["counts"]
            ops = reference.parse_string(md["term"])
            measured = [int(x) for x in md["measured-qubits"]]
            if ops not in self.paulis or sum(counts.values()) != SWEEP_SHOTS:
                errors.append(f"term {md['term']!r}: unknown term or wrong shot count")
                continue
            support = [q for q, _ in ops]
            estimate = reference.mitigated_estimate(counts, measured, support, self.calibration)
            mean, sd = reference.mitigated_moments(
                psi, self.qubits, ops, self.true_confusion, self.calibration, SWEEP_SHOTS)
            if abs(estimate - mean) > TERM_Z * sd + VALUE_TOL:
                errors.append(f"term {md['term']!r}: mitigated {estimate:.4f}, "
                              f"reference {mean:.4f} +- {sd:.4f}")
            total += self.paulis[ops] * estimate
        value = tree["metadata"]["value"]
        if abs(value - total) > VALUE_TOL:
            errors.append(f"value {value!r} != {total!r} from the published counts")
        return errors

    def properties(self):
        return {**super().properties(), "shots": SWEEP_SHOTS, "evaluations_per_task": 1}


WORKLOADS = {w.name: w for w in (VqeExact, SweepMitigated)}


# ---------------------------------------------------------------------------
# measurement


def closed_loop(workload, seconds, tracer, outdir):
    """Run `workload.clients` clients, each issuing its next operation when
    the previous one completes, until `seconds` have passed.  Each output
    is stored in `outdir`."""
    indices = itertools.count()
    records, failures = [], []
    deadline = time.perf_counter() + seconds

    def client():
        while True:
            index = next(indices)
            if index >= workload.min_ops and time.perf_counter() >= deadline:
                return
            try:
                record = workload.op(index)
            except Exception as e:  # a failed operation is counted, not fatal
                failures.append(f"operation {index}: {e!r}")
                continue
            path = outdir / f"{index}.json"
            path.write_text(record.output)
            record.output = path
            records.append(record)

    if tracer is not None:
        tracer.phase = "loop"
    start = time.perf_counter()
    # the main thread is the first client
    threads = [threading.Thread(target=client) for _ in range(workload.clients - 1)]
    for t in threads:
        t.start()
    client()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    records.sort(key=lambda r: r.index)
    return records, failures, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    q = import_package()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(q)

    workload = WORKLOADS[args.workload](q, args.seed)
    setup_times = []

    def set_up(reps):
        for _ in range(reps):
            if tracer is not None:
                tracer.phase = f"setup{len(setup_times)}"
            start = time.perf_counter()
            built = workload.build()
            setup_times.append(time.perf_counter() - start)
            if len(setup_times) == 1:
                vars(workload).update(built)

    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as outdir:
        set_up(SETUP_REPS // 2)
        records, failures, elapsed = closed_loop(workload, args.seconds, tracer, Path(outdir))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        set_up(SETUP_REPS - SETUP_REPS // 2)
        if tracer is not None:
            tracer.phase = "check"
        if not records:
            sys.exit(f"error: no operation completed: {failures[:3]}")

        errors = [f"set-up: {e}" for e in workload.setup_checks()]
        attempted = 1 + len(records) + len(failures)
        failed = (1 if errors else 0) + len(failures)
        for record in records:
            problems = workload.check(record)
            if problems:
                failed += 1
                errors += [f"operation {record.index}: {p}" for p in problems]
        errors += failures
        first = [r for r in records if r.index < workload.min_ops]
        outputs_sha256 = digest([r.output.read_text() for r in first])

    evals = sum(r.evals for r in records)
    latencies = [r.latency for r in records]
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "properties": workload.properties(),
        "run": {"operations": len(records), "evaluations": evals,
                "measured_s": elapsed, "task_ms_samples": len(latencies),
                "fail_frac": failed / attempted},
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "inputs_sha256": digest([workload.source] + [r.inputs for r in first]),
        "outputs_sha256": outputs_sha256,
        "errors": errors[:20],
    }))

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(r.run for r in records),
            "evals_per_s": evals / elapsed,
            "task_ms_p50": statistics.median(latencies) * 1e3,
            # the upper quartile, not a higher percentile: on a shared host
            # the slowest tasks of a run follow other tenants' load bursts
            "task_ms_p75": float(np.percentile(latencies, 75)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    else:
        props = workload.properties()
        values = tracer.layer_metrics(evals, SETUP_REPS)
        values.update({
            "pauli.terms": props.get("terms", 0),
            "pauli.qwc_groups": props.get("qwc_groups", 0),
            "traced.run_s": statistics.median(r.run for r in records),
            "traced.evals_per_s": evals / elapsed,
        })
        tracer.write(out / f"{workload.name}.spans.jsonl")
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if values.keys() != units.keys():
        sys.exit(f"error: metrics {sorted(values.keys() ^ units.keys())} "
                 "do not match BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
