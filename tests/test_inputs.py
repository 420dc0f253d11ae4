"""Non-finite input: every constructor and spec parser raises ValueError before any arithmetic warns."""

import math
import warnings

import numpy as np
import pytest

from entrokit.classical import (
    BistochasticMatrix,
    ProbVector,
    SequenceSource,
    bistochastic_from_unitary,
    entropy_finite,
    entropy_table,
    sequence_from_spec,
)
from entrokit.functionals import (
    functional_from_spec,
    make_kaniadakis,
    make_renyi,
    make_shannon,
    make_tsallis,
)
from entrokit.gpt import (
    ConvexModel,
    Decomposition,
    enumerate_basic_decompositions,
    gpt_entropy,
    gpt_majorant,
    membership,
)
from entrokit.quantum import (
    DensityOperator,
    Ensemble,
    conjugate_isometry,
    pinch,
    pure_state,
    random_ensemble,
)

RHO = DensityOperator(np.diag([0.7, 0.3]))


def with_entry(x):
    """The 2 x 2 identity with x in its first entry."""
    return [[x, 0.0], [0.0, 1.0]]


CALLS = {
    "ProbVector": lambda x: ProbVector([x, 1.0]),
    "ProbVector.from_computation": lambda x: ProbVector.from_computation([x, 1.0]),
    "DensityOperator": lambda x: DensityOperator(with_entry(x)),
    "pure_state": lambda x: pure_state([x, 1.0]),
    "BistochasticMatrix": lambda x: BistochasticMatrix(with_entry(x)),
    "bistochastic_from_unitary": lambda x: bistochastic_from_unitary(with_entry(x)),
    "Ensemble-states": lambda x: Ensemble(ProbVector([0.5, 0.5]), with_entry(x)),
    "Ensemble-weights": lambda x: Ensemble([x, 0.5], np.eye(2)),
    "ConvexModel": lambda x: ConvexModel([[x, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "Decomposition": lambda x: Decomposition(support=(0, 1), weights=[x, 0.5]),
    "SequenceSource.geometric": SequenceSource.geometric,
    "SequenceSource.heavy_tail": SequenceSource.heavy_tail,
    "make_renyi": make_renyi,
    "make_tsallis": make_tsallis,
    "make_kaniadakis": make_kaniadakis,
    "functional_from_spec-renyi": lambda x: functional_from_spec(f"renyi:alpha={x}"),
    "functional_from_spec-tsallis": lambda x: functional_from_spec(f"tsallis:q={x}"),
    "functional_from_spec-kaniadakis": lambda x: functional_from_spec(f"kaniadakis:kappa={x}"),
    "sequence_from_spec-geometric": lambda x: sequence_from_spec(f"geometric:r={x}"),
    "sequence_from_spec-heavytail": lambda x: sequence_from_spec(f"heavytail:offset={x}"),
    "conjugate_isometry": lambda x: conjugate_isometry(RHO, with_entry(x)),
    "pinch": lambda x: pinch(RHO, with_entry(x)),
    "random_ensemble": lambda x: random_ensemble(RHO, 2, mixing=with_entry(x)),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_finite_input_is_a_value_error_before_any_warning(name, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            CALLS[name](x)


@pytest.mark.parametrize("psi,want", [([1e-200, 0.0], [[1.0, 0.0], [0.0, 0.0]]), ([1e200, 1e200], 0.5)])
def test_pure_state_takes_finite_vectors_of_any_scale(psi, want):
    # The norm of [1e-200, 0] underflows to 0 and that of [1e200, 1e200] overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = pure_state(psi)
    assert np.allclose(rho.matrix, want, rtol=0, atol=1e-15)


def test_a_probability_vector_has_one_axis():
    # Input with two or more axes was once flattened into one vector.
    shannon = make_shannon()
    for call in (
        lambda: ProbVector([[0.25, 0.25], [0.25, 0.25]]),
        lambda: ProbVector.from_computation([[0.5], [0.5]]),
        lambda: entropy_finite([[0.5], [0.5]], shannon),
        lambda: entropy_table([[[0.5], [0.5]]], [shannon]),
        lambda: Ensemble([[0.5], [0.5]], np.eye(2)),
        lambda: SequenceSource.from_vector([[0.5, 0.25], [0.125, 0.125]]),
    ):
        with pytest.raises(ValueError, match=r"^probability vector must be 1-d, got shape \(2, (2|1)\)$"):
            call()
    assert ProbVector(1.0).entries.tolist() == [1.0]


TRIANGLE = ConvexModel([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
COLUMN = [[0.2], [0.3]]

# Each of these once flattened input with two axes into one vector.
FLATTENED = {
    "pure_state": (lambda: pure_state(np.eye(2)), r"state vector must be 1-d, got shape \(2, 2\)"),
    "gpt_entropy": (lambda: gpt_entropy(TRIANGLE, COLUMN, make_shannon()), r"state must be 1-d, got shape \(2, 1\)"),
    "enumerate_basic_decompositions": (
        lambda: enumerate_basic_decompositions(TRIANGLE, COLUMN),
        r"state must be 1-d, got shape \(2, 1\)",
    ),
    "gpt_majorant": (lambda: gpt_majorant(TRIANGLE, COLUMN), r"state must be 1-d, got shape \(2, 1\)"),
    "membership": (lambda: membership(TRIANGLE, COLUMN), r"state must be 1-d, got shape \(2, 1\)"),
    "Decomposition": (
        lambda: Decomposition(support=(0, 1), weights=[[0.5], [0.5]]),
        r"weights must be 1-d, got shape \(2, 1\)",
    ),
}


@pytest.mark.parametrize("name", FLATTENED)
def test_vector_inputs_have_one_axis(name):
    call, message = FLATTENED[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
