"""Run every workload untraced and traced, and print one report.

    python3 bench/report.py [--seed 1] [--seconds 20]

For each workload the report prints its properties, every end-to-end
metric by name and unit with fail_frac, every per-layer metric of the
traced run, and the tracing overhead (traced against untraced run_s and
evals_per_s).  It then runs the seed check: two short runs with one seed
must give identical outputs, and a run with another seed different inputs
and outputs but the same structural properties.  It also records the
machine, with the last-level cache size read from sysfs.  Exits 1 if any
run is incorrect or a seed check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
CHECK_SECONDS = 1


def run(workload, seed, seconds, trace):
    """Return (properties line, result line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} (seed {seed}, trace {trace}) exited "
                 f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def last_level_cache() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and (best is None or level > best[0]):
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else "unknown"


def metric_lines(result):
    for name, m in result["metrics"].items():
        yield f"    {name:36s} {m['value']:>14.6g} {m['unit']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    machine = None
    for w in spec["workloads"]:
        name = w["name"]
        props, plain = run(name, args.seed, args.seconds, 0)
        _, traced = run(name, args.seed, args.seconds, 1)
        machine = props["machine"]
        ok &= plain["correct"] and traced["correct"]
        print(f"== {name}: {w['why']}")
        print("  properties: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                           for k, v in props["properties"].items()))
        r = props["run"]
        print(f"  run: {r['operations']} operations, {r['evaluations']} evaluations in "
              f"{r['measured_s']:.2f} s; {r['task_ms_samples']} latency samples")
        print(f"  end to end (untraced), fail_frac {plain['failed']}/{plain['attempted']}"
              f" = {plain['failed'] / plain['attempted']:g}")
        print("\n".join(metric_lines(plain)))
        print(f"  per layer (traced), fail_frac {traced['failed']}/{traced['attempted']}")
        print("\n".join(metric_lines(traced)))
        pm, tm = plain["metrics"], traced["metrics"]
        print(f"  tracing overhead: run_s {tm['traced.run_s']['value'] / pm['run_s']['value'] - 1:+.1%}, "
              f"evals_per_s {pm['evals_per_s']['value'] / tm['traced.evals_per_s']['value'] - 1:+.1%}")
        for line in props["errors"]:
            print(f"  error: {line}")

    print("== seed check")
    for w in spec["workloads"]:
        name = w["name"]
        first, _ = run(name, args.seed, CHECK_SECONDS, 0)
        again, _ = run(name, args.seed, CHECK_SECONDS, 0)
        other, _ = run(name, args.seed + 1, CHECK_SECONDS, 0)
        checks = {
            "same seed, same outputs": first["outputs_sha256"] == again["outputs_sha256"],
            "other seed, other inputs": first["inputs_sha256"] != other["inputs_sha256"],
            "other seed, other outputs": first["outputs_sha256"] != other["outputs_sha256"],
            "other seed, same structure": first["properties"] == other["properties"],
        }
        ok &= all(checks.values())
        print(f"  {name}: " + ", ".join(f"{k} {'ok' if v else 'FAILED'}"
                                        for k, v in checks.items()))

    print(f"== machine: nproc {machine['nproc']} (affinity {machine['affinity']}), "
          f"Python {machine['python']}, numpy {machine['numpy']}, "
          f"last-level cache {last_level_cache()}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
