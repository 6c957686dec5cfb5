"""Readout-error mitigation by per-qubit confusion-matrix inversion,
packaged as the readout-mitigation stage of the objective pipeline."""

from __future__ import annotations

import functools
import threading
import time
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .results import HeterogeneousMap
from .runtime import DefaultObjective, derive_seed
from .simulator import (MAX_QUBITS, ExecutionConfig, ReadoutNoiseModel, apply_per_qubit,
                        bitstring_map, sample_counts)

MIN_CALIBRATION_SHOTS = 100
MIN_DETERMINANT = 1e-6

# Offset added to the task seed when deriving calibration-run seeds, so
# calibration draws are decoupled from objective-evaluation draws.
_CALIBRATION_SEED_OFFSET = 0x5EED

# The parity weights of terms on up to this many qubits are cached, at most
# _WEIGHT_CACHE_SIZE of them: 32 MiB at most.
_CACHED_WEIGHT_QUBITS = 12
_WEIGHT_CACHE_SIZE = 1024


def validate_confusion_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValidationError("confusion matrix must be 2x2")
    if (m < -1e-12).any() or (m > 1 + 1e-12).any():
        raise ValidationError("confusion matrix entries must lie in [0, 1]")
    if not np.allclose(m.sum(axis=0), 1.0, atol=1e-9):
        raise ValidationError("confusion matrix columns must sum to 1")
    if abs(np.linalg.det(m)) < MIN_DETERMINANT:
        raise ValidationError("confusion matrix is singular")
    return m


def _inverse_confusion(calibration: Mapping[int, np.ndarray]) -> dict:
    """Each qubit's validated confusion matrix, inverted."""
    return {q: np.linalg.inv(validate_confusion_matrix(m)) for q, m in calibration.items()}


def confusion_from_noise(noise: ReadoutNoiseModel | None, qubits) -> dict:
    """Analytic confusion matrices (identity when no noise model)."""
    out = {}
    for q in qubits:
        m = noise.confusion_matrix(q) if noise is not None else np.eye(2)
        out[q] = validate_confusion_matrix(m)
    return out


def _check_calibration_shots(shots: int) -> None:
    if shots < MIN_CALIBRATION_SHOTS:
        raise ValidationError(
            f"calibration needs at least {MIN_CALIBRATION_SHOTS} shots, got {shots}"
        )


def calibrate(num_qubits: int, config: ExecutionConfig) -> dict:
    """Each qubit's confusion matrix: analytic from the noise model in exact
    mode, otherwise estimated from |0> and |1> preparation runs.  A run that
    prepares |b> on qubit q and measures it has the marginal e_b on q, so
    each run is one seeded draw from e_b after q's readout noise."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValidationError(f"calibration needs 1 to {MAX_QUBITS} qubits, got {num_qubits}")
    if config.exact:
        return confusion_from_noise(config.noise, range(num_qubits))
    _check_calibration_shots(config.shots)
    matrices = {}
    for q in range(num_qubits):
        columns = []
        for b in (0, 1):
            vec = np.eye(2)[b]
            if config.noise is not None:
                vec = apply_per_qubit(vec, [config.noise.confusion_matrix(q)])
            seed = derive_seed(config.seed, _CALIBRATION_SEED_OFFSET + 2 * q + b)
            counts, _ = sample_counts(vec, (q,), config.shots, seed, time.perf_counter())
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
    inverse = _inverse_confusion({q: calibration[q] for q in measured if q in calibration})
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


def _build_parity_weights(pairs: tuple) -> np.ndarray:
    """Read-only g = pairs[0] (x) pairs[1] (x) ...: entry i weighs outcome
    format(i, f"0{k}b") of the k qubits the pairs belong to, lowest leftmost."""
    g = np.ones(1)
    for pair in pairs:
        g = (g[:, None] * pair).reshape(-1)
    g.flags.writeable = False
    return g


# shared by every objective, so objectives built from one calibration build
# each term's weights once
_cached_parity_weights = functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)(_build_parity_weights)


def _parity_weights(pairs: tuple) -> np.ndarray:
    if len(pairs) > _CACHED_WEIGHT_QUBITS:
        return _build_parity_weights(pairs)
    return _cached_parity_weights(pairs)


class MitigatedObjective(DefaultObjective):
    """Readout-mitigation stage of the objective pipeline.

    Evaluates like the wrapped objective, but re-estimates every term from
    its counts (or exact distribution) n corrected by the inverse confusion
    matrices, and publishes both the raw and the mitigated value.  The
    estimate is linear in n: Re(c) (g . n) / sum(n), with one weight pair per
    qubit folded from every stage and g their Kronecker product.  Wrapping
    a MitigatedObjective appends a stage to its flat list of stages, so the
    corrections chain innermost first.  Without `calibration`, the stage
    calibrates once, on the first evaluation, and every sink the objective
    publishes to records the result as "readout-calibration"; pass
    `calibration` explicitly to skip the calibration runs.
    """

    def __init__(self, inner: DefaultObjective,
                 calibration: Mapping[int, np.ndarray] | None = None):
        if not isinstance(inner, DefaultObjective):
            raise ValidationError("MitigatedObjective wraps a DefaultObjective")
        super().__init__(inner.observable, inner.kernel, inner.config, inner.sink)
        # inverse confusion matrix per qubit, per stage; None until calibrated
        stage = _inverse_confusion(calibration) if calibration is not None else None
        self._stages = inner._stages + (stage,)
        # weight pair per qubit, folded from every stage; None until calibrated
        self._weights = None if None in self._stages else _fold_weights(self._stages)
        self._calibration = None  # what the self-calibrated stages measured
        self._calibration_lock = threading.Lock()
        if stage is None and self.config.exact:
            confusion_from_noise(self.config.noise, range(self.kernel.num_qubits))
        elif stage is None:
            _check_calibration_shots(self.config.shots)

    def _mitigate(self, runs: list, sink) -> bool:
        with self._calibration_lock:  # one calibration, however many threads
            if None in self._stages:
                self._calibration = calibrate(self.kernel.num_qubits, self.config)
                inverse = _inverse_confusion(self._calibration)
                self._stages = tuple(inverse if s is None else s for s in self._stages)
                self._weights = _fold_weights(self._stages)
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
                for stage in self._stages:
                    _require_calibrated(stage, qubits)
                raise
            total = run.outcomes.sum()
            if total == 0:
                raise ValidationError("counts sum to zero")
            run.metadata.put("raw-expectation", run.expectation)
            run.metadata.put("mitigated", True)
            run.expectation = float(run.term.coefficient.real
                                    * (_parity_weights(pairs) @ run.outcomes) / total)
        return True
