"""Fuzz the command line in-process: whatever the arguments, `main` returns
0, 1 or 2 and never raises or prints a traceback.

Values that only scale the work (the VQE evaluation budget, sweep point
counts) stay small; every other number ranges over negative, huge,
fractional and non-finite values.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcor_rt.cli import main

from conftest import ANSATZ_1P, ANSATZ_2P, BELL

KERNEL_SOURCES = {
    "@ansatz": ANSATZ_1P,
    "@entangler": ANSATZ_2P,
    "@bell": BELL,
    "@rotor": "kernel rotor(t) qubits 2 { Ry(t) q0; CNOT q0 q1; Measure q0; Measure q1; }",
    "@malformed": "kernel broken(t qubits 2 { Ry(t) q9; ",
    "@wide": "kernel wide() qubits 30 { H q0; Measure q0; }",
}

BAD_NUMBERS = st.sampled_from(["-1", "0", "2.5", "nan", "-nan", "inf", "-inf", "1e400",
                               "1e-300", str(2**63 - 1), str(2**63), str(10**19),
                               "0x10", "", "abc"])
NUMBERS = st.one_of(st.integers(min_value=-3, max_value=12).map(str), BAD_NUMBERS)


def _mostly(valid, other=NUMBERS):
    """Valid values two times in three, `other` values otherwise."""
    return st.one_of(valid, valid, other)


SHOTS = _mostly(st.sampled_from(["1", "10", "150"]))
SEEDS = _mostly(st.integers(min_value=0, max_value=2**70).map(str))
PROBS = _mostly(st.floats(min_value=0.0, max_value=1.0).map(repr))
ANGLES = _mostly(st.floats(min_value=-4.0, max_value=4.0).map(repr))
SMALL = st.one_of(st.integers(min_value=1, max_value=4).map(str),
                  st.sampled_from(["-2", "0", "nan", "2.5", "x"]))
KERNELS = _mostly(st.sampled_from(["@ansatz", "@entangler", "@bell", "@rotor"]),
                  st.sampled_from(["@malformed", "@wide", "@missing"]))
OBSERVABLES = _mostly(
    st.sampled_from(["X0 X1", "Z0 Z1 + (0.5,0) I", "X0 X1 + Z0 Z1 - Z1", "Z0"]),
    st.sampled_from(["", "X", "Q0", "X0 +", "(1,0", "X99", "(nan,0) Z0", "1e400 Z0"]))
FERMIONS = st.sampled_from(["0^ 0", "0^ 1^ 1 0", "", "0^ +", "(0.5,0) 0^ 1",
                            "x", "-1^ 0", "999^ 0"])


def _flags(pairs):
    """Optional `--name value` pairs drawn independently."""
    return st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)).flatmap(
        lambda chosen: st.tuples(*[value.map(lambda v, n=name: [n, v])
                                   for name, value in chosen])
    ).map(lambda groups: [token for group in groups for token in group])


EXECUTION = _flags([("--shots", SHOTS), ("--seed", SEEDS),
                    ("--noise-p01", PROBS), ("--noise-p10", PROBS),
                    ("--exact", st.just(None)), ("--mitigate", st.just(None))])


def _command():
    kernel = KERNELS.map(lambda k: ["--kernel", k])
    observable = OBSERVABLES.map(lambda o: ["--observable", o])
    angles = _mostly(st.lists(ANGLES, min_size=1, max_size=2), st.lists(ANGLES, max_size=3))
    vqe = st.tuples(st.just(["vqe"]), kernel, observable,
                    SMALL.map(lambda n: ["--opt-maxeval", n]),
                    _flags([("--opt-ftol", NUMBERS)]),
                    angles.map(lambda xs: ["--initial-point", *xs] if xs else []),
                    EXECUTION)
    points = st.one_of(
        angles.map(lambda xs: ["--params", *xs]),
        st.tuples(ANGLES, ANGLES, SMALL).map(lambda t: [f"--sweep={':'.join(t)}"]),
        st.sampled_from([["--sweep=1:2"], ["--sweep=a:b:c"], []]),
    )
    evaluate = st.tuples(st.just(["evaluate"]), kernel, observable, points, EXECUTION)
    simulate = st.tuples(st.just(["simulate"]), kernel,
                         angles.map(lambda xs: ["--bind", *xs] if xs else []),
                         EXECUTION)
    transform = st.tuples(st.just(["transform"]), FERMIONS.map(lambda f: [f]))
    other = st.sampled_from([[], ["frobnicate"], ["vqe"], ["simulate", "--kernel"]])
    return st.one_of(vqe, evaluate, simulate, transform, other.map(lambda a: (a,)))


def _argv(groups):
    return [token for group in groups for token in group if token is not None]


@pytest.fixture(scope="module")
def kernel_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-kernels")
    for name, source in KERNEL_SOURCES.items():
        (root / f"{name[1:]}.qk").write_text(source)
    return root


def _resolve_files(argv, root):
    return [str(root / f"{a[1:]}.qk") if a.startswith("@") else a for a in argv]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@example(groups=(["simulate", "--kernel", "@bell", "--seed", "-1"],))
@example(groups=(["evaluate", "--kernel", "@ansatz", "--observable", "Z0",
                  "--params", "nan"],))
@example(groups=(["evaluate", "--kernel", "@ansatz", "--observable", "Z0",
                  "--params", "0.1", "--mitigate", "--shots", "50"],))
@given(groups=_command())
def test_cli_never_raises(kernel_dir, groups):
    argv = _resolve_files(_argv(groups), kernel_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
