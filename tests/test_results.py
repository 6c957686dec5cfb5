"""ResultBuffer serialization: `to_json` against its oracle
`json.dumps(to_dict(...), indent=...)`, and the `exclude` argument."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcor_rt import (DefaultObjective, ExecutionConfig, HeterogeneousMap, MitigatedObjective,
                     NelderMead, PauliObservable, PauliString, ReadoutNoiseModel,
                     ResultBuffer, TaskSpec, ValidationError, parse_kernel, sync,
                     task_initiate)
from qcor_rt.results import VOLATILE_KEYS

INDENTS = (None, 0, 2, 4, "\t")
KEYS = ("a", "b", "time", "ms", "", "wall-time-ms", "é\"\\\n\x00")
EXCLUDES = ((), None, "a", "wall-time-ms", ("a", "time"), ["", "b"], frozenset(KEYS[-2:]))


def assert_matches_oracle(buffer, excludes=EXCLUDES):
    for exclude in excludes:
        for indent in INDENTS:
            want = json.dumps(buffer.to_dict(exclude=exclude), indent=indent)
            assert buffer.to_json(indent=indent, exclude=exclude) == want, (indent, exclude)


# --- generated trees -------------------------------------------------------

texts = st.text(st.one_of(st.characters(), st.sampled_from("\"\\\n\x00é€😀")), max_size=6)
floats = st.one_of(st.floats(), st.sampled_from([-0.0, 1e16, float("inf"), -float("inf")]))
arrays = st.lists(floats, max_size=4).map(lambda v: np.array(v, dtype=np.float64))
scalars = st.one_of(
    st.booleans(), st.integers(), st.sampled_from([2**64, -(10**30)]), floats,
    st.complex_numbers(), texts, st.lists(floats, max_size=3),
    st.lists(texts, min_size=1, max_size=3), arrays)
maps = st.recursive(
    st.dictionaries(st.one_of(st.sampled_from(KEYS), texts), scalars, max_size=5),
    lambda inner: st.dictionaries(
        st.one_of(st.sampled_from(KEYS), texts),
        st.one_of(scalars, inner.map(HeterogeneousMap)), max_size=4),
    max_leaves=8).map(HeterogeneousMap)
counts = st.one_of(
    st.dictionaries(texts, st.integers(min_value=0), max_size=4),
    st.dictionaries(texts, st.floats(allow_nan=False), max_size=3))  # quasi-counts
buffers = st.recursive(
    st.builds(ResultBuffer, maps, counts),
    lambda inner: st.builds(ResultBuffer, maps, counts, st.lists(inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(buffers, st.sampled_from(EXCLUDES))
def test_to_json_matches_oracle_on_generated_trees(buffer, exclude):
    assert_matches_oracle(buffer, (exclude,))


def test_every_kind_and_edge_value_matches_oracle():
    inner = HeterogeneousMap({"a": 1, "time": float("nan"), "deep": HeterogeneousMap({"a": 2})})
    buffer = ResultBuffer(HeterogeneousMap({
        "int": 10**40, "real": -0.0, "big": 1e16, "nan": float("nan"), "inf": float("inf"),
        "-inf": -float("inf"), "complex": complex(float("inf"), -0.0), "flag": True,
        "string": "é\"\\\n\x00", "reals": [0.5, float("nan")], "strings": ["x", "\x00"],
        "array": np.array([0.25, -0.0, float("inf")]), "empty-array": np.zeros(0),
        "empty-list": [], "empty-map": HeterogeneousMap(), "map": inner, "a": "top",
    }), counts={"01": 3, "\x00é": 0}, children=[
        ResultBuffer(),
        ResultBuffer(HeterogeneousMap({"a": 1}), counts={"0": 0.5, "1": -0.25}),
    ])
    assert_matches_oracle(buffer)
    assert_matches_oracle(ResultBuffer())


def test_non_json_counts_raise_the_oracles_error():
    buffer = ResultBuffer(HeterogeneousMap({"a": 1}),
                          children=[ResultBuffer(counts={"0": np.int64(3)})])
    for indent in INDENTS:
        with pytest.raises(TypeError) as want:
            json.dumps(buffer.to_dict(), indent=indent)
        with pytest.raises(TypeError) as got:
            buffer.to_json(indent=indent)
        assert str(got.value) == str(want.value)


def test_fallback_text_matches_oracle_for_any_indent():
    metadata = HeterogeneousMap({"reals": [0.5]})
    metadata.get("reals", list).append(True)  # a caller may change a stored list
    buffer = ResultBuffer(children=[ResultBuffer(metadata, counts={"0": np.float64(0.5)})])
    for indent in INDENTS + ("\n", " \n\x00"):
        assert buffer.to_json(indent=indent) == json.dumps(buffer.to_dict(), indent=indent)


# --- runtime trees ---------------------------------------------------------

def _h10_style():
    """A 10-qubit, 2-parameter ansatz and a 60-term observable over it."""
    lines = [f"Ry({'ab'[q % 2]}) q{q};" for q in range(10)]
    lines += [f"CNOT q{q} q{q + 1};" for q in range(9)]
    kernel = parse_kernel(f"kernel ansatz(a, b) qubits 10 {{ {' '.join(lines)} }}")
    rng = np.random.default_rng(7)
    terms = [(1.5, PauliString())]
    for _ in range(60):
        support = rng.choice(10, size=int(rng.integers(1, 5)), replace=False)
        kinds = rng.choice(list("XYZ"), size=len(support))
        terms.append((float(rng.normal()), PauliString.from_map(dict(zip(support, kinds)))))
    return kernel, PauliObservable(terms)


def test_exact_vqe_tree_matches_oracle():
    kernel, observable = _h10_style()
    objective = DefaultObjective(observable, kernel, ExecutionConfig(exact=True))
    optimizer = NelderMead({"max-iterations": 3, "initial-point": [0.1, 0.2]})
    buffer = sync(task_initiate(TaskSpec(objective=objective, optimizer=optimizer)))
    assert len(buffer.children) == 3
    assert_matches_oracle(buffer, ((), VOLATILE_KEYS))


def test_mitigated_sampled_tree_matches_oracle():
    kernel, observable = _h10_style()
    config = ExecutionConfig(shots=256, seed=5, noise=ReadoutNoiseModel(p01=0.02, p10=0.05))
    objective = MitigatedObjective(DefaultObjective(observable, kernel, config))
    buffer = sync(task_initiate(TaskSpec(objective=objective, params=[0.3, 0.7])))
    assert buffer.children[0].children[0].counts
    assert_matches_oracle(buffer, ((), VOLATILE_KEYS))


# --- exclude ---------------------------------------------------------------

def _keyed_buffer():
    metadata = HeterogeneousMap({"time": 1, "seed": 2, "ms": 3, "": 4})
    metadata.put("nested", HeterogeneousMap({"seed": 5, "time": 6}))
    return ResultBuffer(metadata, children=[ResultBuffer(HeterogeneousMap({"seed": 7}))])


def test_exclude_str_names_one_key():
    buffer = _keyed_buffer()
    assert set(buffer.to_dict(exclude="wall-time-ms")["metadata"]) == {
        "time", "seed", "ms", "", "nested"}
    got = json.loads(buffer.to_json(exclude="seed"))
    assert set(got["metadata"]) == {"time", "ms", "", "nested"}
    assert got["metadata"]["nested"] == {"time": 6}
    assert got["children"][0]["metadata"] == {}


def test_exclude_none_keeps_every_key():
    buffer = _keyed_buffer()
    assert buffer.to_dict(exclude=None) == buffer.to_dict()
    assert buffer.to_json(exclude=None) == buffer.to_json()
    assert buffer.metadata.to_dict(exclude=None) == buffer.metadata.to_dict()


def test_exclude_iterable_applies_at_every_depth():
    buffer = _keyed_buffer()
    for exclude in (["seed", "time"], ("seed", "time"), {"seed", "time"},
                    (k for k in ("seed", "time")), dict.fromkeys(("seed", "time"))):
        got = buffer.to_dict(exclude=exclude)
        assert set(got["metadata"]) == {"ms", "", "nested"}
        assert got["metadata"]["nested"] == {}
        assert got["children"][0]["metadata"] == {}
    assert buffer.metadata.to_dict(exclude=("seed",))["nested"] == {"time": 6}


@pytest.mark.parametrize("exclude", [3, 1.5, [1], ["seed", None], [("seed",)], [["seed"]],
                                     b"seed"])
def test_exclude_other_values_are_validation_errors(exclude):
    buffer = _keyed_buffer()
    for call in (buffer.to_dict, buffer.to_json, buffer.metadata.to_dict):
        with pytest.raises(ValidationError):
            call(exclude=exclude)
