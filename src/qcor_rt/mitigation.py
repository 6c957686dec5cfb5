"""Readout-error mitigation by per-qubit confusion-matrix inversion,
packaged as the readout-mitigation stage of the objective pipeline."""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .pauli import _estimate
from .results import HeterogeneousMap
from .runtime import DefaultObjective, derive_seed
from .simulator import (MAX_QUBITS, ExecutionConfig, ReadoutNoiseModel, apply_per_qubit,
                        bitstring_map, sample_counts)

MIN_CALIBRATION_SHOTS = 100
MIN_DETERMINANT = 1e-6

# Offset added to the task seed when deriving calibration-run seeds, so
# calibration draws are decoupled from objective-evaluation draws.
_CALIBRATION_SEED_OFFSET = 0x5EED


def validate_confusion_matrix(m: np.ndarray) -> np.ndarray:
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as e:  # ragged rows, or entries that are not numbers
        raise ValidationError(f"confusion matrix must be 2x2 numbers, got {m!r}") from e
    if m.shape != (2, 2):
        raise ValidationError("confusion matrix must be 2x2")
    if (m < -1e-12).any() or (m > 1 + 1e-12).any():
        raise ValidationError("confusion matrix entries must lie in [0, 1]")
    if not np.allclose(m.sum(axis=0), 1.0, atol=1e-9):
        raise ValidationError("confusion matrix columns must sum to 1")
    if abs(np.linalg.det(m)) < MIN_DETERMINANT:
        raise ValidationError("confusion matrix is singular")
    return m


def _inverse_confusion(calibration: Mapping[int, np.ndarray], qubits=None) -> dict:
    """The validated confusion matrix of each of `qubits` (default: all) that
    `calibration` holds, inverted."""
    if not isinstance(calibration, Mapping):
        raise ValidationError(
            f"calibration must map qubits to confusion matrices, got {calibration!r}")
    return {q: np.linalg.inv(validate_confusion_matrix(calibration[q]))
            for q in (calibration if qubits is None else qubits) if q in calibration}


def confusion_from_noise(noise: ReadoutNoiseModel | None, qubits) -> dict:
    """Analytic confusion matrices (identity when no noise model)."""
    out = {}
    for q in qubits:
        m = noise.confusion_matrix(q) if noise is not None else np.eye(2)
        out[q] = validate_confusion_matrix(m)
    return out


def calibrate(num_qubits: int, config: ExecutionConfig) -> dict:
    """Each qubit's confusion matrix: analytic from the noise model in exact
    mode, otherwise estimated from |0> and |1> preparation runs.  A run that
    prepares |b> on qubit q and measures it has the marginal e_b on q, so
    each run is one seeded draw from column b of q's confusion matrix."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValidationError(f"calibration needs 1 to {MAX_QUBITS} qubits, got {num_qubits}")
    if config.exact:
        return confusion_from_noise(config.noise, range(num_qubits))
    if config.shots < MIN_CALIBRATION_SHOTS:
        raise ValidationError(
            f"calibration needs at least {MIN_CALIBRATION_SHOTS} shots, got {config.shots}")
    matrices = {}
    for q in range(num_qubits):
        confusion = config.noise.confusion_matrix(q) if config.noise is not None else np.eye(2)
        columns = []
        for b in (0, 1):
            seed = derive_seed(config.seed, _CALIBRATION_SEED_OFFSET + 2 * q + b)
            counts, _ = sample_counts(confusion[:, b], (q,), config.shots, seed,
                                      time.perf_counter())
            n0, n1 = counts.tolist()
            columns.append([n0 / (n0 + n1), n1 / (n0 + n1)])
        matrices[q] = validate_confusion_matrix(np.array(columns).T)
    return matrices


def _counts_vector(counts: Mapping[str, float], measured: Sequence[int]) -> np.ndarray:
    """Dense 2^k outcome vector of a counts map whose bitstrings cover `measured`."""
    k = len(measured)
    vec = np.zeros(2**k)
    for bits, weight in counts.items():
        if not bits or len(bits) != k or bits.strip("01"):
            raise ValidationError(
                f"bitstring {bits!r} is not one binary digit per measured qubit {measured}")
        vec[int(bits, 2)] += weight
    return vec


def _require_calibrated(inverse: Mapping[int, np.ndarray], measured: Sequence[int]) -> None:
    missing = [q for q in measured if q not in inverse]
    if missing:
        raise ValidationError(f"calibration missing for qubits {missing}")


def _invert(vec: np.ndarray, inverse: Mapping[int, np.ndarray],
            measured: Sequence[int]) -> np.ndarray:
    """Quasi-distribution vector: `vec` over `measured`, normalized, then
    corrected by each qubit's inverse confusion matrix."""
    _require_calibrated(inverse, measured)
    total = vec.sum()
    if total == 0:
        raise ValidationError("counts sum to zero")
    return apply_per_qubit(vec / total, [inverse[q] for q in measured])


def mitigate_counts(counts: Mapping[str, float], calibration: Mapping[int, np.ndarray],
                    measured_qubits: Sequence[int] | None = None) -> dict:
    """Invert the factorized confusion matrix over a counts map.

    Returns a quasi-distribution (entries may be negative) normalized to
    sum to 1.  Bitstring positions correspond to `measured_qubits` in
    ascending order (defaulting to qubits 0..k-1).
    """
    if not counts:
        raise ValidationError("empty counts")
    measured = (sorted(measured_qubits) if measured_qubits is not None
                else list(range(len(next(iter(counts))))))
    vec = _counts_vector(counts, measured)  # checks every bitstring's length
    inverse = _inverse_confusion(calibration, measured)
    return bitstring_map(_invert(vec, inverse, measured), len(measured))


def _fold_weights(stages: tuple) -> dict:
    """Per qubit that every stage calibrates, the pair of Python floats
    w = S1^T(S2^T(...Sm^T(1, -1))), S1 ... Sm being the qubit's inverse
    confusion matrices from the innermost stage out: w . p is the qubit's
    parity after every stage has corrected the distribution p over it."""
    weights = {}
    for q in set.intersection(*map(set, stages)):
        w0, w1 = 1.0, -1.0
        for stage in reversed(stages):  # the outermost stage's transpose first
            (a, b), (c, d) = stage[q].tolist()
            w0, w1 = a * w0 + c * w1, b * w0 + d * w1
        weights[q] = (w0, w1)
    return weights


class MitigatedObjective(DefaultObjective):
    """Readout-mitigation stage of the objective pipeline.

    Evaluates like the wrapped objective, but re-estimates every term from
    its counts (or exact distribution) n corrected by the inverse confusion
    matrices, and publishes both the raw and the mitigated value.  The
    estimate is linear in n: Re(c) (g . n) / sum(n), with one weight pair per
    qubit folded from every stage and g their Kronecker product.  Wrapping
    a MitigatedObjective appends a stage to its flat list of stages, so the
    corrections chain innermost first.  Without `calibration`, the stage
    calibrates at construction (reusing the inner stage's own calibration
    if it made one), and every sink the objective publishes to records the
    result as "readout-calibration"; pass `calibration` explicitly to skip
    the calibration runs.  Stages and weights are fixed once constructed.
    """

    def __init__(self, inner: DefaultObjective,
                 calibration: Mapping[int, np.ndarray] | None = None):
        if not isinstance(inner, DefaultObjective):
            raise ValidationError("MitigatedObjective wraps a DefaultObjective")
        super().__init__(inner.observable, inner.kernel, inner.config, inner.sink)
        self._calibration = inner._calibration  # what the self-calibrated stages measured
        if calibration is None:
            if self._calibration is None:
                self._calibration = calibrate(self.kernel.num_qubits, self.config)
            calibration = self._calibration
        # inverse confusion matrix per qubit, per stage
        self._stages = inner._stages + (_inverse_confusion(calibration),)
        # weight pair per qubit, folded from every stage
        self._weights = _fold_weights(self._stages)

    def _mitigate(self, runs: list, sink) -> None:
        if (self._calibration is not None and sink is not None
                and "readout-calibration" not in sink.metadata):
            sink.metadata.put("readout-calibration", HeterogeneousMap({
                f"q{q}": [float(x) for x in m.reshape(-1)]
                for q, m in sorted(self._calibration.items())
            }))
        weights = self._weights
        for run in runs:
            qubits = run.term.string.qubits
            try:
                pairs = tuple([weights[q] for q in qubits])
            except KeyError:
                _require_calibrated(weights, qubits)
                raise
            run.metadata.put("raw-expectation", run.expectation)
            run.metadata.put("mitigated", True)
            run.expectation = _estimate(run.term, pairs, run.outcomes)
