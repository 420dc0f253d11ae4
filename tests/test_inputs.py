"""Outside input: bad values, extra axes and non-integer counts raise ValueError; stored arrays are copies."""

import math
import warnings

import numpy as np
import pytest

from entrokit.audit import run_audit
from entrokit.classical import (
    BistochasticMatrix,
    ProbVector,
    SequenceSource,
    bistochastic_from_unitary,
    entropy_finite,
    entropy_table,
    majorization_margin,
    majorizes,
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
from entrokit.rand import random_density

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
    "majorizes": (lambda: majorizes([0.5, 0.5], [[0.5, 0.5]]), r"majorization input must be 1-d, got shape \(1, 2\)"),
    "majorization_margin": (
        lambda: majorization_margin([[0.5, 0.5]], [0.5, 0.5]),
        r"majorization input must be 1-d, got shape \(1, 2\)",
    ),
}


@pytest.mark.parametrize("name", FLATTENED)
def test_vector_inputs_have_one_axis(name):
    call, message = FLATTENED[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# Each type that stores an array, the caller's array it is built from, and the array it stores.
OWNERS = {
    "ProbVector": ([0.25, 0.75], lambda a: ProbVector(a).entries),
    "BistochasticMatrix": ([[0.25, 0.75], [0.75, 0.25]], lambda a: BistochasticMatrix(a).matrix),
    "DensityOperator": ([[0.75, 0.0], [0.0, 0.25]], lambda a: DensityOperator(a).matrix),
    "ConvexModel": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], lambda a: ConvexModel(a).vertices),
    "Decomposition": ([0.25, 0.75], lambda a: Decomposition(support=(0, 1), weights=a).weights),
    "Ensemble": ([[1.0 + 0.0j, 0.0], [0.0, 1.0]], lambda a: Ensemble([0.5, 0.5], a).states),
}


@pytest.mark.parametrize("name", OWNERS)
def test_a_stored_array_is_a_read_only_copy(name):
    values, stored_from = OWNERS[name]
    caller = np.array(values)
    stored = stored_from(caller)
    kept = stored.copy()
    assert caller.flags.writeable and not stored.flags.writeable
    caller.flat[0] = 0.5
    assert np.array_equal(stored, kept)


@pytest.mark.parametrize("support", [(0, 0.5), (0, -1), (True, False)])
def test_support_indices_are_distinct_nonnegative_counts(support):
    # (0, 0.5) was once truncated to (0, 0); (0, -1) and (True, False) were once taken.
    with pytest.raises(ValueError, match="support"):
        Decomposition(support=support, weights=[0.5, 0.5])


def test_numpy_integer_support_indices_are_ints():
    dec = Decomposition(support=np.array([2, 0], dtype=np.int64), weights=[0.5, 0.5])
    assert dec.support == (2, 0) and all(type(i) is int for i in dec.support)


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_density(3, 0, rank=2.5),
        lambda: random_density(3, 0, rank=True),
        lambda: SequenceSource.heavy_tail("3"),
        lambda: SequenceSource.heavy_tail(2.5),
    ],
    ids=["rank=2.5", "rank=True", "offset='3'", "offset=2.5"],
)
def test_counts_that_are_not_integers_are_value_errors(call):
    # rank=2.5 once drew a rank-2 state and rank=True a rank-1 one; offset "3" raised TypeError.
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_integral_counts_of_any_type_are_taken():
    want = random_density(3, 0, rank=2).matrix
    assert np.linalg.matrix_rank(want) == 2
    for rank in (2.0, np.int64(2)):
        assert np.array_equal(random_density(3, 0, rank=rank).matrix, want)
    assert SequenceSource.heavy_tail(3.0).name == "heavytail:offset=3"


SQUARE = ConvexModel([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: gpt_entropy(SQUARE, [0.0], make_shannon()), "state has dimension 1, model is 2"),
        (lambda: gpt_entropy(SQUARE, [math.nan, 0.0], make_shannon()), "state must be finite"),
        (lambda: ConvexModel([1.0, 0.0]), "vertices must be a 2-d array, one point per row"),
        (lambda: ConvexModel(np.empty((0, 2))), "model needs at least one vertex and one dimension"),
        (lambda: ConvexModel(np.empty((2, 0))), "model needs at least one vertex and one dimension"),
        (lambda: Decomposition((0, 1), [1.0]), "support and weights must have matching nonzero length"),
        (lambda: pure_state([0.0, 0.0]), "state vector must be nonzero"),
        (lambda: random_density(3, 0, rank=0), r"rank must be in \[1, 3\], got 0"),
        (lambda: random_density(3, 0, rank=4), r"rank must be in \[1, 3\], got 4"),
        (lambda: run_audit("schur", trials=1, functional_specs=[]), "at least one functional is required"),
        (lambda: SequenceSource.geometric(0.5).values(5, 2), "invalid index range"),
        (lambda: sequence_from_spec("heavytail:r=2"), "heavytail takes at most the parameter offset"),
    ],
    ids=[
        "gpt-state-dimension",
        "gpt-state-nan",
        "model-1d-vertices",
        "model-no-vertex",
        "model-no-dimension",
        "decomposition-lengths",
        "pure-state-zero",
        "rank-0",
        "rank-above-d",
        "audit-no-functional",
        "sequence-range",
        "heavytail-parameter",
    ],
)
def test_each_remaining_rejection_names_its_input(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
