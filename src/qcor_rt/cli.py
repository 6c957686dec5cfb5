"""Command-line front end: vqe, evaluate, transform, and simulate workflows.

Machine-readable JSON goes to stdout (or --output); human-readable
summaries go to stderr.  Exit codes: 0 success, 1 runtime failure,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ParseError, QcorError, ValidationError
from .fermion import jordan_wigner, parse_fermion
from .kernel import parse_kernel
from .mitigation import MitigatedObjective, calibrate
from .optimizers import make_optimizer
from .pauli import parse_pauli
from .results import VOLATILE_KEYS, ResultBuffer
from .runtime import DefaultObjective, TaskSpec, sync, task_initiate
from .simulator import ExecutionConfig, ReadoutNoiseModel, execute

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SEED_ENV_VAR = "QCOR_RT_SEED"


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _add_execution_args(p: argparse.ArgumentParser):
    p.add_argument("--shots", type=int, default=1024, help="shots per kernel execution")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--exact", action="store_true",
                   help="use exact expectations instead of shot sampling")
    p.add_argument("--noise-p01", type=float, default=0.0,
                   help="P(measure 1 | true 0) readout flip probability")
    p.add_argument("--noise-p10", type=float, default=0.0,
                   help="P(measure 0 | true 1) readout flip probability")
    p.add_argument("--output", help="write JSON here instead of stdout")


def _add_observable_args(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--observable", help="observable string, e.g. 'X0 X1 + Z0 Z1'")
    g.add_argument("--observable-file", help="file containing an observable string")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcor-rt",
        description="Hybrid quantum-classical runtime: VQE workflows on a "
                    "shot-sampling statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vqe", help="optimize an observable expectation over kernel parameters")
    p.add_argument("--kernel", required=True, help="kernel DSL file (.qk)")
    _add_observable_args(p)
    p.add_argument("--optimizer", default="nelder-mead", choices=["nelder-mead"])
    p.add_argument("--initial-point", type=float, nargs="+", default=None)
    p.add_argument("--opt-maxeval", type=int, default=500)
    p.add_argument("--opt-ftol", type=float, default=1e-6)
    p.add_argument("--mitigate", action="store_true",
                   help="decorate the objective with readout-error mitigation")
    _add_execution_args(p)

    p = sub.add_parser("evaluate", help="evaluate the expectation at fixed parameters")
    p.add_argument("--kernel", required=True, help="kernel DSL file (.qk)")
    _add_observable_args(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--params", type=float, nargs="*", default=None)
    g.add_argument("--sweep", metavar="START:STOP:COUNT",
                   help="sweep a single parameter and emit one record per point")
    p.add_argument("--mitigate", action="store_true")
    _add_execution_args(p)

    p = sub.add_parser("transform", help="Jordan-Wigner transform a fermionic observable")
    p.add_argument("fermion", help="fermion string, e.g. '0^ 0'")

    p = sub.add_parser("simulate", help="execute a measured kernel and print counts")
    p.add_argument("--kernel", required=True, help="kernel DSL file (.qk)")
    p.add_argument("--bind", type=float, nargs="*", default=None,
                   help="values for the kernel's free parameters")
    _add_execution_args(p)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _CliError(f"invalid {SEED_ENV_VAR} value {env!r}", EXIT_USAGE) from None
    return 0


def _load_kernel(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as e:
        raise _CliError(f"cannot read kernel file {path!r}: {e.strerror}", EXIT_USAGE) from e
    try:
        return parse_kernel(source)
    except ParseError as e:
        raise _CliError(f"{path}: {e}", EXIT_USAGE) from e


def _load_observable(args):
    text = args.observable
    if text is None:
        try:
            with open(args.observable_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise _CliError(
                f"cannot read observable file {args.observable_file!r}: {e.strerror}",
                EXIT_USAGE) from e
    try:
        return parse_pauli(text)
    except ParseError as e:
        raise _CliError(f"invalid observable: {e}", EXIT_USAGE) from e


def _make_config(args) -> ExecutionConfig:
    noise = None
    if args.noise_p01 or args.noise_p10:
        noise = ReadoutNoiseModel(p01=args.noise_p01, p10=args.noise_p10)
    return ExecutionConfig(shots=args.shots, seed=_resolve_seed(args),
                           noise=noise, exact=args.exact)


def _emit(payload: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _buffer_json(buffer: ResultBuffer) -> str:
    return buffer.to_json(indent=2, exclude=VOLATILE_KEYS)


def _make_objective(observable, kernel, config, mitigate: bool, calibration=None):
    objective = DefaultObjective(observable, kernel, config)
    if mitigate:
        objective = MitigatedObjective(objective, calibration)
    return objective


def _cmd_vqe(args) -> int:
    kernel = _load_kernel(args.kernel)
    observable = _load_observable(args)
    config = _make_config(args)
    options = {"max-iterations": args.opt_maxeval, "tolerance": args.opt_ftol}
    if args.initial_point is not None:
        options["initial-point"] = args.initial_point
    optimizer = make_optimizer(args.optimizer, options)
    objective = _make_objective(observable, kernel, config, args.mitigate)
    buffer = sync(task_initiate(TaskSpec(objective=objective, optimizer=optimizer)))
    _emit(_buffer_json(buffer), args.output)
    value = buffer.metadata.get("opt-value", float)
    params = buffer.metadata.get("opt-params", list)
    print(f"opt-value = {value:.10g} at opt-params = {params}", file=sys.stderr)
    return EXIT_OK


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError("--sweep expects START:STOP:COUNT", EXIT_USAGE)
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _CliError("--sweep expects START:STOP:COUNT", EXIT_USAGE) from None
    if count < 1:
        raise _CliError("sweep COUNT must be >= 1", EXIT_USAGE)
    return np.linspace(start, stop, count)


def _cmd_evaluate(args) -> int:
    kernel = _load_kernel(args.kernel)
    observable = _load_observable(args)
    config = _make_config(args)

    if args.sweep is not None:
        if len(kernel.params) != 1:
            raise _CliError(
                f"--sweep needs a 1-parameter kernel, {kernel.name!r} has "
                f"{len(kernel.params)}", EXIT_USAGE)
        thetas = _parse_sweep(args.sweep)
        # one calibration for the sweep; an independent seed for each point
        calibration = calibrate(kernel.num_qubits, config) if args.mitigate else None
        seeds = np.random.SeedSequence(config.seed).spawn(len(thetas))
        records = []
        for theta, seed in zip(thetas, seeds):
            point = config.with_seed(int(seed.generate_state(1)[0]))
            objective = _make_objective(observable, kernel, point, args.mitigate,
                                        calibration)
            buffer = sync(task_initiate(TaskSpec(objective=objective, params=[float(theta)])))
            records.append({"params": [float(theta)],
                            "value": buffer.metadata.get("value", float)})
        _emit(json.dumps(records, indent=2), args.output)
        print(f"swept {len(records)} points", file=sys.stderr)
        return EXIT_OK

    params = args.params if args.params is not None else []
    if len(params) != len(kernel.params):
        raise _CliError(
            f"kernel {kernel.name!r} takes {len(kernel.params)} parameter(s), "
            f"got {len(params)}", EXIT_USAGE)
    objective = _make_objective(observable, kernel, config, args.mitigate)
    buffer = sync(task_initiate(TaskSpec(objective=objective, params=params)))
    _emit(_buffer_json(buffer), args.output)
    print(f"value = {buffer.metadata.get('value', float):.10g}", file=sys.stderr)
    return EXIT_OK


def _cmd_transform(args) -> int:
    try:
        fermion = parse_fermion(args.fermion)
    except ParseError as e:
        raise _CliError(f"invalid fermion string: {e}", EXIT_USAGE) from e
    print(jordan_wigner(fermion).to_string())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    kernel = _load_kernel(args.kernel)
    config = _make_config(args)
    if args.bind is not None:
        kernel = kernel.bind(args.bind)
    if kernel.params:
        raise _CliError(
            f"kernel {kernel.name!r} has free parameters {list(kernel.params)}; "
            "supply --bind", EXIT_USAGE)
    if not kernel.is_measured():
        raise _CliError(f"kernel {kernel.name!r} has no measurements", EXIT_USAGE)
    counts, metadata = execute(kernel, config)
    buffer = ResultBuffer(metadata, counts=counts)
    _emit(_buffer_json(buffer), args.output)
    print(f"{sum(counts.values())} shots over {len(counts)} outcomes", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "vqe": _cmd_vqe,
    "evaluate": _cmd_evaluate,
    "transform": _cmd_transform,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ParseError, ValidationError) as e:
        # raised before any task runs: the input itself is invalid
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (QcorError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
