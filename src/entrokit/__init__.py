"""Generalized (h, phi) entropies for classical, quantum, and convex models.

The package builds entropy functionals from a pair of real functions,
evaluates them on probability vectors, lazy sequences, density operators,
and states of convex polytope models, and ships randomized audits for the
majorization inequalities those entropies respect.
"""

from .classical import (
    BistochasticMatrix,
    EntropyResult,
    EntropyStatus,
    ProbVector,
    SequenceSource,
    apply_bistochastic,
    bistochastic_from_unitary,
    entropy_finite,
    entropy_sequence,
    entropy_table,
    jensen_step_oracle,
    majorization_margin,
    majorizes,
    sequence_from_spec,
)
from .fileio import SchemaError, read_density, read_model, read_vector
from .functionals import (
    EntropicFunctional,
    FunctionalCase,
    ValidationReport,
    functional_from_spec,
    make_custom,
    make_kaniadakis,
    make_renyi,
    make_shannon,
    make_tsallis,
    validate_functional,
)
from .gpt import (
    ConvexModel,
    Decomposition,
    enumerate_basic_decompositions,
    gpt_entropy,
    gpt_majorant,
    minimize_entropy,
)
from .quantum import (
    DensityOperator,
    Ensemble,
    conjugate_isometry,
    eigen_spectrum,
    inf_ensemble_entropy,
    pinch,
    pure_state,
    quantum_entropy,
    random_ensemble,
    spectral_ensemble,
)
from .reporting import AuditEntry, AuditReport
from .audit import run_audit

__version__ = "0.1.0"

__all__ = [
    "AuditEntry",
    "AuditReport",
    "BistochasticMatrix",
    "ConvexModel",
    "Decomposition",
    "DensityOperator",
    "Ensemble",
    "EntropicFunctional",
    "EntropyResult",
    "EntropyStatus",
    "FunctionalCase",
    "ProbVector",
    "SchemaError",
    "SequenceSource",
    "ValidationReport",
    "apply_bistochastic",
    "bistochastic_from_unitary",
    "conjugate_isometry",
    "eigen_spectrum",
    "entropy_finite",
    "entropy_sequence",
    "entropy_table",
    "enumerate_basic_decompositions",
    "functional_from_spec",
    "gpt_entropy",
    "gpt_majorant",
    "inf_ensemble_entropy",
    "jensen_step_oracle",
    "majorization_margin",
    "majorizes",
    "make_custom",
    "make_kaniadakis",
    "make_renyi",
    "make_shannon",
    "make_tsallis",
    "minimize_entropy",
    "pinch",
    "pure_state",
    "quantum_entropy",
    "random_ensemble",
    "read_density",
    "read_model",
    "read_vector",
    "run_audit",
    "sequence_from_spec",
    "spectral_ensemble",
    "validate_functional",
]
