"""Hybrid quantum-classical runtime: observables, kernels, a shot-sampling
statevector simulator, and an asynchronous task execution model."""

from .errors import (KindMismatchError, MissingKeyError, OptimizationError,
                     ParseError, QcorError, TaskError, ValidationError)
from .fermion import (FermionObservable, FermionTerm, LadderOp, fermion_to_dense,
                      jordan_wigner, normal_order, parse_fermion)
from .kernel import (GateKind, Instruction, Kernel, identity_kernel, parse_kernel,
                     print_kernel)
from .mitigation import (MitigatedObjective, calibrate, confusion_from_noise,
                         mitigate_counts)
from .optimizers import FunctionObjective, NelderMead, Optimizer, make_optimizer
from .pauli import (PauliObservable, PauliString, PauliTerm,
                    expectation_from_counts, expectation_from_vector, parse_pauli)
from .results import HeterogeneousMap, Kind, ResultBuffer
from .runtime import (DefaultObjective, TaskHandle, TaskSpec, computational_basis_observable,
                      derive_seed, publish_evaluation, sync, task_initiate)
from .simulator import (ExecutionConfig, ReadoutNoiseModel, StateVector, apply_gate,
                        exact_distribution, exact_distributions, exact_expectation, execute)

__version__ = "0.1.0"
