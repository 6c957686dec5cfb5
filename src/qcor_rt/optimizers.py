"""Derivative-free optimization of objective functions."""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import OptimizationError, ValidationError
from .results import HeterogeneousMap


class Optimizer:
    """Extension point for classical multi-dimensional minimization."""

    def optimize(self, objective) -> tuple:
        """Return (optimal_params, optimal_value)."""
        raise NotImplementedError


class NelderMead(Optimizer):
    """Simplex method with reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    Terminates when the function-value spread across the simplex drops
    below `tolerance` or the evaluation budget is exhausted; returns the
    best vertex either way.
    """

    _OPTION_KEYS = ("max-iterations", "tolerance", "initial-point", "initial-step")

    def __init__(self, options: HeterogeneousMap | Mapping | None = None):
        if isinstance(options, HeterogeneousMap):
            opts = {key: options.get(key, options.kind_of(key)) for key in options.keys()}
        elif isinstance(options, Mapping):
            opts = dict(options)
        elif options is None:
            opts = {}
        else:
            raise ValidationError(f"optimizer options must be a mapping, got {options!r}")
        for key in opts:
            if key not in self._OPTION_KEYS:
                raise ValidationError(f"unknown optimizer option {key!r}")
        self.initial_point = opts.get("initial-point")
        try:
            self.max_evals = int(opts.get("max-iterations", 500))
            self.tolerance = float(opts.get("tolerance", 1e-6))
            self.initial_step = float(opts.get("initial-step", 0.1))
            point = np.asarray(0.0 if self.initial_point is None else self.initial_point,
                               dtype=float)
        except (TypeError, ValueError) as e:
            raise ValidationError(f"invalid optimizer option: {e}") from None
        if self.max_evals < 1:
            raise ValidationError("max-iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if self.initial_step == 0:
            raise ValidationError("initial-step must be non-zero")
        if not np.isfinite(point).all():
            raise ValidationError(f"initial-point must be finite, got {self.initial_point}")

    def optimize(self, objective) -> tuple:
        dim = objective.dimensions() if hasattr(objective, "dimensions") else None
        if dim is None or dim < 1:
            raise OptimizationError("objective must have >= 1 dimensions")
        if self.initial_point is not None:
            x0 = np.asarray(self.initial_point, dtype=float)
            if x0.shape != (dim,):
                raise OptimizationError(
                    f"initial point has {x0.size} entries, objective needs {dim}"
                )
        else:
            x0 = np.zeros(dim)

        evals = 0

        def f(x: np.ndarray) -> float:
            nonlocal evals
            evals += 1
            val = float(objective(list(x)))
            if not math.isfinite(val):
                raise OptimizationError(
                    f"objective returned non-finite value {val!r} at {list(x)}"
                )
            return val

        simplex = [x0.copy()]
        for i in range(dim):
            v = x0.copy()
            v[i] += self.initial_step
            simplex.append(v)
        values = [f(v) for v in simplex]

        while evals < self.max_evals:
            order = np.argsort(values, kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] < self.tolerance:
                break
            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]

            reflected = centroid + (centroid - worst)
            fr = f(reflected)
            if values[0] <= fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
                continue
            if fr < values[0]:
                if evals >= self.max_evals:
                    simplex[-1], values[-1] = reflected, fr
                    break
                expanded = centroid + 2.0 * (centroid - worst)
                fe = f(expanded)
                if fe < fr:
                    simplex[-1], values[-1] = expanded, fe
                else:
                    simplex[-1], values[-1] = reflected, fr
                continue
            if evals >= self.max_evals:
                break
            contracted = centroid + 0.5 * (worst - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
                continue
            # shrink toward the best vertex
            for i in range(1, len(simplex)):
                if evals >= self.max_evals:
                    break
                simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                values[i] = f(simplex[i])

        best = int(np.argmin(values))
        return list(simplex[best]), values[best]


class FunctionObjective:
    """Adapter exposing a plain callable as an optimizable objective."""

    def __init__(self, fn: Callable[[Sequence[float]], float], dim: int):
        self._fn = fn
        self._dim = dim

    def dimensions(self) -> int:
        return self._dim

    def __call__(self, params: Sequence[float]) -> float:
        return self._fn(params)


OPTIMIZERS = {"nelder-mead": NelderMead}


def make_optimizer(name: str, options=None) -> Optimizer:
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        raise ValidationError(f"unknown optimizer {name!r}") from None
    return cls(options)
