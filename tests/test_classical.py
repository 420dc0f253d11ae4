"""Probability vectors, finite and sequence entropies, majorization, mixing."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from entrokit.classical import (
    MAX_BLOCK,
    STOP_WINDOW,
    BistochasticMatrix,
    EntropyResult,
    EntropyStatus,
    ProbVector,
    SequenceSource,
    _bistochastic,
    _log_square_normalizer,
    _mix_rows,
    _row_margins,
    _unitary_squares,
    apply_bistochastic,
    bistochastic_from_unitary,
    computed_rows,
    entropy_finite,
    entropy_rows,
    entropy_sequence,
    entropy_table,
    PARTIAL_SUM_TOL,
    ROW_SUM_TOL,
    jensen_step_oracle,
    majorant_index,
    majorization_margin,
    majorizes,
    sequence_from_spec,
    stack_by_length,
)
from entrokit.functionals import (
    FunctionalCase,
    functional_from_spec,
    make_custom,
    make_renyi,
    make_shannon,
    make_tsallis,
)
from entrokit.rand import random_prob_vector, random_unitary

LN2 = 0.6931471805599453
ALL_SPECS = ["shannon", "renyi:alpha=0.5", "renyi:alpha=2", "tsallis:q=2", "kaniadakis:kappa=0.5"]


# ---------------------------------------------------------------- ProbVector

def test_probvector_accepts_and_orders():
    p = ProbVector([0.25, 0.5, 0.25])
    assert p.entries.sum() == 1.0
    assert list(p.sorted_desc()) == [0.5, 0.25, 0.25]


def test_probvector_clips_negative_rounding_noise():
    p = ProbVector([1.0, -1e-13])
    assert p.entries[1] == 0.0


def test_probvector_rejects_real_negatives():
    with pytest.raises(ValueError):
        ProbVector([1.001, -0.001])


def test_probvector_rejects_bad_total():
    with pytest.raises(ValueError):
        ProbVector([0.9, 0.3])


def test_probvector_renormalize():
    p = ProbVector([0.9, 0.3], renormalize=True)
    assert abs(p.entries[0] - 0.75) < 1e-15
    assert abs(p.entries.sum() - 1.0) < 1e-15


def test_probvector_entries_readonly():
    p = ProbVector([0.5, 0.5])
    with pytest.raises(ValueError):
        p.entries[0] = 0.9


# ------------------------------------------------------------ finite entropy

def test_shannon_frozen_values():
    F = make_shannon()
    assert abs(entropy_finite(ProbVector([0.5, 0.5]), F).value - LN2) < 1e-15
    # -(3/4 ln 3/4 + 1/4 ln 1/4), frozen
    assert abs(entropy_finite(ProbVector([0.75, 0.25]), F).value - 0.5623351446188083) < 1e-15
    assert entropy_finite(ProbVector([1.0, 0.0, 0.0]), F).value == 0.0


def test_other_family_frozen_values():
    p = ProbVector([0.5, 0.5])
    # renyi-2 of uniform(2): -ln(1/2) = ln 2
    assert abs(entropy_finite(p, make_renyi(2)).value - LN2) < 1e-14
    # tsallis-2: 1 - sum p^2 = 1/2
    assert abs(entropy_finite(p, make_tsallis(2)).value - 0.5) < 1e-15
    # kaniadakis-1/2: 2 (sqrt(1/2) - (1/2)^{3/2}) = sqrt(1/2)
    K = functional_from_spec("kaniadakis:kappa=0.5")
    assert abs(entropy_finite(p, K).value - 0.7071067811865476) < 1e-15


def test_finite_entropy_result_fields():
    res = entropy_finite(ProbVector([0.25, 0.25, 0.5]), make_shannon())
    assert res.status is EntropyStatus.EXACT
    assert res.terms_used == 3
    assert res.increment_at_stop == 0.0


def test_permutation_invariance_is_bitwise():
    rng = np.random.default_rng(11)
    for spec in ALL_SPECS:
        F = functional_from_spec(spec)
        for _ in range(20):
            w = rng.dirichlet(np.ones(9))
            a = entropy_finite(ProbVector(w), F).value
            b = entropy_finite(ProbVector(w[rng.permutation(9)]), F).value
            assert a == b


def _scalar_only_shannon():
    # neither callable accepts an array, so make_custom runs both through np.vectorize
    return make_custom(
        "scalar-shannon",
        phi=lambda x: -x * math.log(x) if x > 0 else 0.0,
        h=lambda y: float(y),
        case=FunctionalCase.INCREASING_CONCAVE,
    )


KERNEL_FUNCTIONALS = [
    *(functional_from_spec(spec) for spec in (*ALL_SPECS, "tsallis:q=0.5", "kaniadakis:kappa=-0.5")),
    _scalar_only_shannon(),
]


@pytest.mark.parametrize("F", KERNEL_FUNCTIONALS, ids=lambda F: F.name)
def test_entropy_rows_is_entropy_finite_bit_for_bit(F):
    rng = np.random.default_rng(73)
    for n in range(1, 40):
        dense = rng.dirichlet(np.ones(n), size=12)
        mask = rng.random((12, n)) < 0.5
        mask[:, 0] = True
        sparse = dense * mask
        sparse = sparse / sparse.sum(axis=1, keepdims=True)  # rows with exact zeros
        for rows in (dense, sparse):
            want = np.array([entropy_finite(row, F).value for row in rows])
            assert np.array_equal(entropy_rows(rows, F).view(np.int64), want.view(np.int64)), n


def test_entropy_rows_validates_each_row_as_probvector_does():
    F = make_shannon()
    good = [0.5, 0.5]
    for bad in (
        [good, [math.nan, 1.0]],
        [good, [math.inf, 0.0]],
        [good, [1.0 + 1e-11, -1e-11]],  # below -ENTRY_TOL
        [good, [0.5, 0.4]],  # off-sum row
        good,  # 1-d
        [],
        [[]],
        np.ones((2, 2, 2)) / 4,
    ):
        with pytest.raises(ValueError):
            entropy_rows(bad, F)
    # entries in [-ENTRY_TOL, 0) are clipped to zero, as ProbVector clips them
    rows = [[1.0 + 5e-13, -5e-13], good]
    assert entropy_rows(rows, F).tolist() == [entropy_finite(row, F).value for row in rows]


def test_computed_rows_are_from_computation_row_by_row():
    rows = np.array([
        [0.5, 0.5, 0.0],
        [0.6, 0.4 + 3e-12, -5e-10],  # drift past PARTIAL_SUM_TOL and negative jitter
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.2, 0.3, 0.5 + 1e-13],  # drift within PARTIAL_SUM_TOL: kept as is
    ])
    out = computed_rows(rows)
    assert not out.flags.writeable
    for row, want in zip(out, rows):
        assert row.tobytes() == ProbVector.from_computation(want).entries.tobytes()
    with pytest.raises(ValueError, match="below floor"):
        computed_rows([[1.0 + 1e-8, -1e-8]])
    with pytest.raises(ValueError, match="finite"):
        computed_rows([[0.5, 0.5], [math.nan, 1.0]])


def test_stack_by_length_keeps_first_seen_order_and_never_pads():
    items = [[0.5, 0.5], [1.0], [0.25, 0.75], [0.3, 0.3, 0.4], [0.1, 0.2, 0.7]]
    groups = stack_by_length(items)
    assert [idx for idx, _ in groups] == [[0, 2], [1], [3, 4]]
    assert [stack.tolist() for _, stack in groups] == [[items[0], items[2]], [items[1]], items[3:]]
    # a matrix's length is its row count
    matrices = [np.eye(3), np.eye(2), np.ones((3, 3)) / 3]
    assert [(idx, stack.shape) for idx, stack in stack_by_length(matrices)] == [
        ([0, 2], (2, 3, 3)),
        ([1], (1, 2, 2)),
    ]
    assert stack_by_length([]) == []


@pytest.mark.parametrize("F", KERNEL_FUNCTIONALS, ids=lambda F: F.name)
def test_entropy_table_is_entropy_finite_bit_for_bit(F):
    rng = np.random.default_rng(79)
    lengths = rng.integers(1, 31, size=200)
    vectors = [rng.dirichlet(np.ones(n)) for n in lengths]
    vectors[::3] = [ProbVector.from_computation(v) for v in vectors[::3]]
    G = make_shannon()
    table = entropy_table(vectors, [F, G])
    assert table.shape == (200, 2)
    for col, fn in enumerate((F, G)):
        want = np.array([entropy_finite(v, fn).value for v in vectors])
        assert np.array_equal(table[:, col].view(np.int64), want.view(np.int64))


def test_entropy_table_validates_and_handles_no_vectors():
    F = make_shannon()
    assert entropy_table([], [F]).shape == (0, 1)
    for bad in ([[0.5, 0.5], [0.5, 0.4]], [[0.5, 0.5], [math.nan, 1.0]], [[0.5, 0.5], [1.001, -0.001]]):
        with pytest.raises(ValueError):
            entropy_table(bad, [F])


def test_uniform_entropy_grows_with_support():
    for spec in ALL_SPECS:
        F = functional_from_spec(spec)
        vals = [entropy_finite(ProbVector(np.full(n, 1.0 / n)), F).value for n in range(1, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_renyi_and_tsallis_rank_vectors_identically():
    # both are monotone transforms of sum(p**alpha), so any two vectors
    # must compare the same way under either family at the same index
    rng = np.random.default_rng(11)
    for alpha in (0.5, 2.0, 3.0):
        R = make_renyi(alpha)
        T = make_tsallis(alpha)
        for _ in range(25):
            p = ProbVector(rng.dirichlet(np.ones(5)))
            q = ProbVector(rng.dirichlet(np.ones(5)))
            dr = entropy_finite(p, R).value - entropy_finite(q, R).value
            dt = entropy_finite(p, T).value - entropy_finite(q, T).value
            if abs(dr) < 1e-12:
                continue
            assert (dr > 0) == (dt > 0)


# --------------------------------------------------------------- majorization

def test_majorizes_point_mass_dominates():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])


def test_majorizes_handles_length_padding():
    assert majorizes([0.5, 0.5], [0.5, 0.3, 0.2])
    assert not majorizes([0.5, 0.3, 0.2], [0.5, 0.5])


def test_majorizes_frozen_incomparable_pair():
    # partial sums (0.6, 0.9, 1) vs (0.55, 0.95, 1): each beats the other once
    a = [0.6, 0.3, 0.1]
    b = [0.55, 0.4, 0.05]
    assert not majorizes(a, b)
    assert not majorizes(b, a)


def test_majorizes_reflexive_and_transitive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = np.sort(rng.dirichlet(np.ones(6)))[::-1]
        assert majorizes(p, p)
        q = np.sort(rng.dirichlet(np.ones(6)))[::-1]
        r = np.sort(rng.dirichlet(np.ones(6)))[::-1]
        if majorizes(p, q) and majorizes(q, r):
            assert majorizes(p, r)


def test_majorizes_rejects_total_mismatch():
    with pytest.raises(ValueError):
        majorizes([0.7, 0.2], [0.5, 0.5])


@pytest.mark.parametrize(
    "p,q",
    [
        ([math.nan, 0.5], [0.5, 0.5]),
        ([0.5, 0.5], [math.nan, 0.5]),
        ([math.nan, math.nan], [math.nan, math.nan]),
        ([math.inf, 0.5], [0.5, 0.5]),
        ([math.inf], [math.inf]),
    ],
)
def test_majorization_rejects_non_finite_entries(p, q):
    # a NaN total makes the totals test false, so these used to get a verdict
    for call in (
        lambda: majorizes(p, q),
        lambda: majorization_margin(p, q),
        lambda: majorant_index([p, q]),
        lambda: majorant_index([q, p]),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_margin_rejects_total_mismatch():
    with pytest.raises(ValueError):
        majorization_margin([0.7, 0.2], [0.5, 0.5])
    with pytest.raises(ValueError):
        majorization_margin([], [1.0])


def test_majorizes_is_margin_above_tolerance_on_unequal_lengths():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = rng.dirichlet(np.ones(int(rng.integers(1, 7))))
        q = rng.dirichlet(np.ones(int(rng.integers(1, 7))))
        assert majorizes(p, q) == (majorization_margin(p, q) >= -PARTIAL_SUM_TOL)
        assert majorizes(q, p) == (majorization_margin(q, p) >= -PARTIAL_SUM_TOL)
        assert (majorant_index([p, q]) == 0) == majorizes(p, q)


@pytest.mark.parametrize("n,width", [(1, 1), (3, 3), (4, 6), (6, 4), (5, 1)])
def test_row_margins_are_the_single_calls_bit_for_bit(n, width):
    rng = np.random.default_rng(100 * n + width)
    p = ProbVector.from_computation(rng.dirichlet(np.ones(n)))
    rows = computed_rows(rng.dirichlet(np.ones(width), size=7)).copy()
    rows[3] = np.sort(rows[3])  # an ascending row, and one equal to p where it fits
    if width == n:
        rows[5] = p.entries
    # One p against every row, as the ensemble suite takes them.
    margins = _row_margins(p.entries[None], rows)
    assert margins.shape == (7,)
    for margin, row in zip(margins.tolist(), rows):
        assert margin == majorization_margin(p, row)
    # Row t of p against row t of q, as the schur suite takes them.
    leads = computed_rows(rng.dirichlet(np.ones(n), size=7)).copy()
    leads[6] = np.sort(leads[6])
    if width == n:
        leads[4] = rows[4]
    paired = _row_margins(leads, rows)
    assert paired.shape == (7,)
    for margin, lead, row in zip(paired.tolist(), leads, rows):
        assert margin == majorization_margin(lead, row)


def test_row_margins_name_the_first_row_whose_totals_differ():
    p = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^row 2: totals differ"):
        _row_margins(p, np.array([[0.6, 0.4], [1.0, 0.0], [0.7, 0.2], [0.5, 0.4]]))
    with pytest.raises(ValueError, match="finite"):
        _row_margins(p, np.array([[0.6, 0.4], [math.nan, 0.5]]))
    # each row is checked against p: rows within SUM_TOL of p pass although they differ by more
    assert _row_margins(p, np.array([[0.5, 0.5 - 0.9e-9], [0.5, 0.5 + 0.9e-9]])).shape == (2,)
    leads = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(_row_margins(leads, np.array([[1.0, 0.0], [0.5, 0.5]])), [-0.5, 0.0])
    with pytest.raises(ValueError, match=r"^row 1: totals differ"):
        _row_margins(leads, np.array([[0.5, 0.5], [0.7, 0.2]]))
    with pytest.raises(ValueError, match="finite"):
        _row_margins(leads, np.array([[0.5, 0.5], [math.nan, 0.5]]))
    # A stack of one is the single call: its error names no row.
    with pytest.raises(ValueError, match=r"^totals differ"):
        _row_margins(p, np.array([[0.7, 0.2]]))


def test_margin_takes_two_vectors_only():
    p = [0.5, 0.5]
    # A 3-d p is rejected, not flattened into one vector.
    for bad in ([[0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]], np.ones((1, 1, 2)) / 2):
        for call in (majorization_margin, majorizes):
            with pytest.raises(ValueError, match="two vectors"):
                call(bad, p)
            with pytest.raises(ValueError, match="two vectors"):
                call(p, bad)
    assert type(majorization_margin(p, p)) is float
    assert majorizes(p, p) is True


def test_margin_accepts_probvectors_mixed_with_lists():
    p, q = [0.6, 0.3, 0.1], [0.4, 0.35, 0.25]
    want = majorization_margin(p, q)
    assert majorization_margin(ProbVector(p), q) == want
    assert majorization_margin(p, ProbVector(q)) == want
    assert majorization_margin(ProbVector(p), ProbVector(q)) == want
    assert majorizes(ProbVector([0.5, 0.5]), ProbVector([0.5, 0.5]))
    assert majorizes(ProbVector(p), q)
    assert not majorizes(q, ProbVector(p))


def test_margin_frozen_values():
    # partial sums (0.6, 0.9, 1) - (0.55, 0.95, 1) -> min is -0.05
    assert majorization_margin([0.1, 0.6, 0.3], [0.55, 0.4, 0.05]) == pytest.approx(-0.05, abs=1e-15)
    assert majorization_margin([1.0], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)


def test_majorization_implies_entropy_ordering():
    rng = np.random.default_rng(21)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(60):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        if majorizes(p, q):
            for F in fs:
                hp = entropy_finite(ProbVector(p), F).value
                hq = entropy_finite(ProbVector(q), F).value
                assert hq >= hp - 1e-9


# ------------------------------------------------------- bistochastic mixing

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def test_bistochastic_validation():
    BistochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        BistochasticMatrix([[0.6, 0.5], [0.4, 0.5]])
    with pytest.raises(ValueError):
        BistochasticMatrix([[1.1, -0.1], [-0.1, 1.1]])
    with pytest.raises(ValueError):
        BistochasticMatrix([[1.0, 0.0]])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            BistochasticMatrix([[bad, 0.5], [0.5, 0.5]])


def test_bistochastic_from_unitary_hadamard():
    Q = bistochastic_from_unitary(HADAMARD)
    assert np.allclose(Q.matrix, 0.5, rtol=0, atol=1e-15)


def test_bistochastic_from_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        bistochastic_from_unitary(np.array([[1.0, 0.4], [0.0, 1.0]]))


def test_apply_bistochastic_flattens_point_mass():
    Q = bistochastic_from_unitary(HADAMARD)
    out = apply_bistochastic(Q, ProbVector([1.0, 0.0]))
    assert np.allclose(out.entries, [0.5, 0.5], rtol=0, atol=1e-15)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_bistochastic_kernels_are_the_single_calls_bit_for_bit(n):
    rng = np.random.default_rng(60 + n)
    k = 7
    Us = np.array([random_unitary(n, rng) for _ in range(k)])
    ps = computed_rows(rng.dirichlet(np.ones(n), size=k))
    Q = _bistochastic(_unitary_squares(Us))
    assert Q.shape == (k, n, n) and not Q.flags.writeable
    qs = _mix_rows(Q, ps)
    assert qs.shape == (k, n) and not qs.flags.writeable
    for t in range(k):
        one = bistochastic_from_unitary(Us[t])
        assert not one.matrix.flags.writeable
        assert_same_bits(Q[t], one.matrix)
        assert_same_bits(BistochasticMatrix(Q[t]).matrix, one.matrix)
        assert_same_bits(qs[t], apply_bistochastic(one, ps[t]).entries)
        assert_same_bits(qs[t], apply_bistochastic(Q[t], ps[t]).entries)


def test_bistochastic_kernel_errors_name_the_first_bad_matrix():
    rng = np.random.default_rng(71)
    Us = np.array([random_unitary(3, rng) for _ in range(4)])
    Q = np.abs(Us) ** 2

    def with_entry(arr, index, value):
        out = arr.copy()
        out[index] = value
        return out

    for stack, message in (
        (with_entry(Q, (2, 0, 1), math.nan), "matrix 2: bistochastic matrix entries must be finite"),
        (with_entry(with_entry(Q, (3, 1, 1), math.inf), (1, 0, 0), math.nan), "matrix 1: .*finite"),
        (with_entry(Q, (1, 0, 0), -1e-3), "matrix 1: .*nonnegative"),
        (with_entry(Q, (3, 2, 2), Q[3, 2, 2] + 10 * ROW_SUM_TOL), "matrix 3: row/column sums"),
        (with_entry(Q[:1], (0, 0, 0), -1e-3), "bistochastic matrix entries must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            _bistochastic(stack)
    with pytest.raises(ValueError, match="non-empty"):
        _bistochastic(np.empty((0, 3, 3)))
    with pytest.raises(ValueError, match=r"^matrix 2: matrix is not unitary .*deviation"):
        _unitary_squares(with_entry(Us, (2, 0, 0), 2.0))
    with pytest.raises(ValueError, match=r"^matrix 1: unitary entries must be finite"):
        _unitary_squares(with_entry(Us, (1, 0, 0), math.inf))
    with pytest.raises(ValueError, match=r"^matrix is not unitary .*deviation"):
        _unitary_squares(with_entry(Us[:1], (0, 0, 0), 2.0))


def test_single_bistochastic_calls_reject_stacks():
    for bad in (np.full((2, 2, 2), 0.5), np.ones((2, 3, 4)) / 4, np.ones((1, 2, 2, 2)) / 2, np.empty((0, 3, 3))):
        with pytest.raises(ValueError, match="square"):
            BistochasticMatrix(bad)
    with pytest.raises(ValueError, match="non-empty"):
        BistochasticMatrix(np.empty((0, 0)))
    for bad in (np.array([HADAMARD, HADAMARD]), HADAMARD[:, :1]):
        with pytest.raises(ValueError, match="unitary must be square"):
            bistochastic_from_unitary(bad)
    Q = bistochastic_from_unitary(HADAMARD)
    with pytest.raises(ValueError, match="dimension mismatch: matrix is 2, vector is 3"):
        apply_bistochastic(Q, [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="square"):
        apply_bistochastic(np.array([Q.matrix, Q.matrix]), [0.5, 0.5])


def _random_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_mixing_never_decreases_entropy():
    rng = np.random.default_rng(5)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(40):
        d = int(rng.integers(2, 7))
        p = ProbVector(rng.dirichlet(np.ones(d)))
        Q = bistochastic_from_unitary(_random_unitary(d, rng))
        q = apply_bistochastic(Q, p)
        assert majorizes(p.entries, q.entries)
        for F in fs:
            assert entropy_finite(q, F).value >= entropy_finite(p, F).value - 1e-9


def test_jensen_step_oracle_identities():
    rng = np.random.default_rng(9)
    F = make_shannon()
    for _ in range(30):
        d = int(rng.integers(2, 7))
        p = ProbVector(rng.dirichlet(np.ones(d)))
        Q = bistochastic_from_unitary(_random_unitary(d, rng))
        for i in range(d):
            int_f, int_phi_f, q_i, disc = jensen_step_oracle(Q.matrix[i], p, F)
            assert abs(int_f - q_i) <= 1e-12
            assert abs(int_phi_f - disc) <= 1e-12
            # concave phi: phi(average) >= average of phi
            assert F.phi(q_i) >= disc - 1e-12


def test_jensen_direction_flips_for_convex_phi():
    rng = np.random.default_rng(13)
    F = make_renyi(2)
    for _ in range(20):
        p = ProbVector(rng.dirichlet(np.ones(5)))
        Q = bistochastic_from_unitary(_random_unitary(5, rng))
        for i in range(5):
            _, _, q_i, disc = jensen_step_oracle(Q.matrix[i], p, F)
            assert F.phi(q_i) <= disc + 1e-12


def test_jensen_rows_in_one_call_are_the_one_row_calls():
    rng = np.random.default_rng(17)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for n in range(2, 9):
        for _ in range(4):
            Q = bistochastic_from_unitary(random_unitary(n, rng))
            p = random_prob_vector(n, rng)
            for F in fs:
                batch = jensen_step_oracle(Q.matrix, p, F)
                assert all(isinstance(a, np.ndarray) and a.shape == (n,) for a in batch)
                for i in range(n):
                    one = jensen_step_oracle(Q.matrix[i], p, F)
                    assert all(isinstance(v, float) for v in one)
                    assert tuple(a[i] for a in batch) == one


def test_jensen_single_row_slice_is_a_batch_of_one():
    rng = np.random.default_rng(23)
    F = make_shannon()
    Q = bistochastic_from_unitary(random_unitary(3, rng)).matrix
    p = random_prob_vector(3, rng)
    batch = jensen_step_oracle(Q[1:2], p, F)
    assert all(isinstance(a, np.ndarray) and a.shape == (1,) for a in batch)
    assert tuple(a[0] for a in batch) == jensen_step_oracle(Q[1], p, F)
    # an (n, 1) column is n rows of width 1, not one row of width n
    with pytest.raises(ValueError):
        jensen_step_oracle(Q[1].reshape(-1, 1), p, F)


def reference_jensen_row(row, p, F):
    """The one-row oracle as a loop-free float computation with np.dot."""
    vals = ProbVector(p).entries
    phis = np.asarray(F.phi(vals))
    lengths = np.diff(np.cumsum(row), prepend=0.0)
    return (
        float(np.sum(lengths * vals)),
        float(np.sum(lengths * phis)),
        float(np.dot(row, vals)),
        float(np.dot(row, phis)),
    )


@pytest.mark.parametrize("F", KERNEL_FUNCTIONALS[:5], ids=lambda F: F.name)
def test_jensen_stacked_batches_are_the_2d_calls(F):
    rng = np.random.default_rng(29)
    for n in range(1, 13):
        k = 5
        Qs = np.array([bistochastic_from_unitary(random_unitary(n, rng)).matrix for _ in range(k)])
        ps = np.array([random_prob_vector(n, rng).entries for _ in range(k)])
        stacked = jensen_step_oracle(Qs, ps, F)
        assert all(isinstance(a, np.ndarray) and a.shape == (k, n) for a in stacked)
        for t in range(k):
            batch = jensen_step_oracle(Qs[t], ps[t], F)
            assert all(np.array_equal(a[t], b) for a, b in zip(stacked, batch)), (n, t)
            for i in range(n):
                assert tuple(a[t, i] for a in stacked) == reference_jensen_row(Qs[t, i], ps[t], F)


def test_jensen_stacked_batches_reject_bad_inputs():
    rng = np.random.default_rng(31)
    F = make_shannon()
    Qs = np.array([bistochastic_from_unitary(random_unitary(4, rng)).matrix for _ in range(3)])
    ps = np.array([random_prob_vector(4, rng).entries for _ in range(3)])
    jensen_step_oracle(Qs, ps, F)

    def with_entry(arr, index, value):
        out = arr.copy()
        out[index] = value
        return out

    bad_pairs = [
        (Qs, with_entry(ps, (1, 2), math.nan)),
        (Qs, with_entry(ps, (2, 0), -1e-3)),
        (Qs, with_entry(ps, (0, 3), ps[0, 3] + 1e-6)),  # p row off its sum
        (with_entry(Qs, (1, 2, 0), math.nan), ps),
        (with_entry(Qs, (2, 1, 1), -1e-3), ps),
        (with_entry(Qs, (0, 3, 2), Qs[0, 3, 2] + 10 * ROW_SUM_TOL), ps),  # q row off its sum
        (Qs, ps[:2]),  # k mismatch
        (Qs[:2], ps),
        (Qs, ps[:, :3] / ps[:, :3].sum(axis=1, keepdims=True)),  # n mismatch
        (Qs, ps[0]),  # one p for k batches
        (np.empty((0, 4, 4)), np.empty((0, 4))),
    ]
    for rows, p in bad_pairs:
        with pytest.raises(ValueError):
            jensen_step_oracle(rows, p, F)


def test_jensen_bad_rows_raise_in_both_forms():
    rng = np.random.default_rng(19)
    F = make_shannon()
    Q = bistochastic_from_unitary(random_unitary(4, rng)).matrix
    p = random_prob_vector(4, rng)
    negative = Q.copy()
    negative[1, 0], negative[1, 1] = -1e-3, negative[1, 1] + negative[1, 0] + 1e-3
    off_sum = Q.copy()
    off_sum[2, 0] += 1e-6
    too_wide = np.hstack([Q, np.zeros((4, 1))])
    nan_row = Q.copy()
    nan_row[3] = math.nan
    nan_entry = Q.copy()
    nan_entry[0, 2] = math.nan
    for rows, bad in ((negative, 1), (off_sum, 2), (too_wide, 0), (nan_row, 3), (nan_entry, 0)):
        with pytest.raises(ValueError):
            jensen_step_oracle(rows, p, F)
        with pytest.raises(ValueError):
            jensen_step_oracle(rows[bad], p, F)


# ------------------------------------------------------------------ sequences

def test_geometric_sequence_values():
    src = SequenceSource.geometric(0.5)
    vals = src.values(0, 4)
    assert np.array_equal(vals, [0.5, 0.25, 0.125, 0.0625])
    assert src.name == "geometric:r=0.5"


def test_geometric_rejects_bad_ratio():
    for r in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            SequenceSource.geometric(r)


def test_sequence_rejects_out_of_range_values():
    for fn in (lambda i: 1.5, lambda i: math.nan if i == 1 else 0.1):
        src = SequenceSource(fn=fn, name="bad")
        with pytest.raises(ValueError):
            src.values(0, 3)


def test_sequence_monotone_probe_catches_lies():
    src = SequenceSource(fn=lambda i: 0.01 * (i % 7), declared_monotone=True, name="liar")
    with pytest.raises(ValueError):
        src.values(0, 10)


def test_monotone_probe_spans_chunk_boundary():
    # jump exactly at index 64 so the violation straddles two fetches
    src = SequenceSource(fn=lambda i: 0.001 if i < 64 else 0.002, declared_monotone=True, name="bump")
    src.values(0, 64)
    with pytest.raises(ValueError):
        src.values(64, 70)


def test_geometric_shannon_closed_form():
    src = SequenceSource.geometric(0.5)
    res = entropy_sequence(src, make_shannon())
    assert res.status is EntropyStatus.EXACT
    assert abs(res.value - 2 * LN2) < 1e-12
    assert res.terms_used == 64


def test_geometric_other_families_closed_forms():
    src = SequenceSource.geometric(0.5)
    # frozen against direct 500-term partial sums
    cases = [
        ("renyi:alpha=2", 1.0986122886681098),
        ("renyi:alpha=0.5", 1.7627471740390859),
        ("tsallis:q=2", 0.6666666666666667),
        ("kaniadakis:kappa=0.5", 1.8672954016950678),
    ]
    for spec, expected in cases:
        res = entropy_sequence(src, functional_from_spec(spec))
        assert res.status is EntropyStatus.EXACT
        assert abs(res.value - expected) < 1e-12, spec


def test_geometric_exhaustion_folds_exact_tail():
    src = SequenceSource.geometric(0.5)
    res = entropy_sequence(src, make_shannon(), max_terms=10)
    assert res.terms_used == 10
    assert res.status is EntropyStatus.TRUNCATED_ESTIMATE
    # the remainder formula is exact, so the folded value still matches
    assert abs(res.value - 2 * LN2) < 1e-12


def test_finite_vector_as_sequence():
    src = SequenceSource.from_vector([1.0, 0.0, 0.0])
    res = entropy_sequence(src, make_shannon())
    assert res.value == 0.0
    assert res.status is EntropyStatus.EXACT

    src2 = SequenceSource.from_vector([0.5, 0.25, 0.25])
    res2 = entropy_sequence(src2, make_shannon())
    direct = entropy_finite(ProbVector([0.5, 0.25, 0.25]), make_shannon())
    assert abs(res2.value - direct.value) < 1e-15


def test_heavy_tail_declares_divergence_for_concave_case():
    src = sequence_from_spec("heavytail")
    res = entropy_sequence(src, make_shannon(), max_terms=10_000)
    assert res.status is EntropyStatus.DECLARED_DIVERGENT
    assert res.value == math.inf
    assert res.terms_used == 10_000


def test_heavy_tail_never_divergent_for_convex_case():
    src = sequence_from_spec("heavytail")
    res = entropy_sequence(src, make_renyi(2), max_terms=10_000)
    assert res.status is EntropyStatus.TRUNCATED_ESTIMATE
    assert math.isfinite(res.value)


def reference_entropy_sequence(src, F, max_terms=10_000, increment_tol=1e-12):
    """The window-by-window loop: one read of STOP_WINDOW terms per step."""
    partial = 0.0
    n = 0
    last_chunk = math.inf
    while n < max_terms:
        stop = min(n + STOP_WINDOW, max_terms)
        vals = src.values(n, stop)
        chunk = float(np.sum(np.asarray(F.phi(vals))))
        partial += chunk
        full_window = stop - n == STOP_WINDOW
        n = stop
        last_chunk = abs(chunk)
        if src.tail is not None:
            rem = src.tail.remainder(F, n)
            if rem is not None and abs(rem) < increment_tol:
                return EntropyResult(float(F.h(partial + rem)), EntropyStatus.EXACT, n, abs(rem))
        if full_window and last_chunk < increment_tol:
            return EntropyResult(float(F.h(partial)), EntropyStatus.TRUNCATED_ESTIMATE, n, last_chunk)
    if src.tail is not None:
        rem = src.tail.remainder(F, n)
        if rem is not None:
            status = EntropyStatus.EXACT if abs(rem) < increment_tol else EntropyStatus.TRUNCATED_ESTIMATE
            return EntropyResult(float(F.h(partial + rem)), status, n, abs(rem))
    if F.case is FunctionalCase.INCREASING_CONCAVE:
        return EntropyResult(math.inf, EntropyStatus.DECLARED_DIVERGENT, n, last_chunk)
    return EntropyResult(float(F.h(partial)), EntropyStatus.TRUNCATED_ESTIMATE, n, last_chunk)


def assert_blocked_is_windowed(src, F, **kwargs):
    got = dataclasses.astuple(entropy_sequence(src, F, **kwargs))
    want = dataclasses.astuple(reference_entropy_sequence(src, F, **kwargs))
    assert got == want, (src.name, F.name, kwargs)


@pytest.mark.parametrize("r", [0.5, 0.95, 0.975, 0.999, 0.999999])
def test_blocked_geometric_is_the_windowed_loop(r):
    src = SequenceSource.geometric(r)
    for spec in ALL_SPECS:
        for max_terms in (10, 64, 100, 10_000, 1_000_000):
            assert_blocked_is_windowed(src, functional_from_spec(spec), max_terms=max_terms)


def test_blocked_heavy_tail_and_finite_are_the_windowed_loop():
    heavy = SequenceSource.heavy_tail()
    for spec in ("shannon", "renyi:alpha=2"):
        for max_terms in (10, 1000, 100_001):
            assert_blocked_is_windowed(heavy, functional_from_spec(spec), max_terms=max_terms)
    rng = np.random.default_rng(23)
    for vec in ([1.0, 0.0, 0.0], [0.5, 0.25, 0.25], rng.dirichlet(np.ones(300))):
        for spec in ALL_SPECS:
            assert_blocked_is_windowed(SequenceSource.from_vector(vec), functional_from_spec(spec))


def test_blocked_custom_scalar_source_is_the_windowed_loop():
    src = SequenceSource(fn=lambda i: 6.0 / (math.pi * (i + 1)) ** 2, declared_monotone=True)
    for spec in ALL_SPECS:
        assert_blocked_is_windowed(src, functional_from_spec(spec), max_terms=5000)


@pytest.mark.parametrize("support", [64, 384, 400])
def test_zero_window_stops_on_and_inside_block_ends(support):
    # no tail descriptor: the first all-zero window stops the read, which is
    # the last window of a block for support 384 (blocks end at 64, 192, 448
    # until they reach MAX_BLOCK)
    src = SequenceSource(
        fn=lambda idx: np.where(idx < support, 1.0 / support, 0.0),
        declared_monotone=True,
        vectorized=True,
    )
    # with max_terms at support + 36 the only zero window is short, and a
    # short window never stops the read
    for spec in ALL_SPECS:
        for max_terms in (10_000, support + 36):
            assert_blocked_is_windowed(src, functional_from_spec(spec), max_terms=max_terms)
    res = entropy_sequence(src, make_shannon())
    assert res.status is EntropyStatus.TRUNCATED_ESTIMATE
    assert res.terms_used == -(-support // STOP_WINDOW) * STOP_WINDOW + STOP_WINDOW


@pytest.mark.parametrize("max_block", [STOP_WINDOW, 65_536])
def test_array_stopping_checks_are_the_windowed_loop_at_other_blocks(monkeypatch, max_block):
    # the tests above run at the default MAX_BLOCK; one window per block and
    # blocks four times as long must stop on the same window
    assert MAX_BLOCK % STOP_WINDOW == 0 and max_block % STOP_WINDOW == 0
    monkeypatch.setattr("entrokit.classical.MAX_BLOCK", max_block)
    test_blocked_heavy_tail_and_finite_are_the_windowed_loop()
    for support in (64, 384, 400):
        test_zero_window_stops_on_and_inside_block_ends(support)


class CountingSource:
    """A source that records the (start, stop) of every read of its base."""

    def __init__(self, base):
        self.base = base
        self.reads = []

    def values(self, start, stop):
        self.reads.append((start, stop))
        return self.base.values(start, stop)

    def __getattr__(self, attr):  # tail, declared_monotone, vectorized, name
        return getattr(self.base, attr)


@pytest.mark.parametrize(
    "base,F,max_terms",
    [
        (SequenceSource.heavy_tail(), make_shannon(), 100_001),
        (SequenceSource.heavy_tail(), make_shannon(), 1_000_000),
        (SequenceSource.geometric(0.999), make_shannon(), 1_000_000),
        (SequenceSource.geometric(0.5), make_renyi(2), 10_000),
    ],
)
def test_sequence_reads_stay_within_max_terms_and_one_block(base, F, max_terms):
    src = CountingSource(base)
    res = entropy_sequence(src, F, max_terms=max_terms)
    starts, stops = zip(*src.reads)
    assert starts[0] == 0 and list(starts[1:]) == list(stops[:-1])
    assert stops[-1] <= max_terms
    assert all(b - a <= MAX_BLOCK for a, b in src.reads)
    # the last read holds the stopping window: read-ahead is within one block
    assert starts[-1] < res.terms_used <= stops[-1]
    if max_terms > MAX_BLOCK and res.terms_used == max_terms:
        assert len(src.reads) < 100
    if base.tail is None and max_terms == 1_000_000:
        assert res.status is EntropyStatus.DECLARED_DIVERGENT


def test_scalar_source_is_read_one_window_at_a_time():
    # a per-index function gains nothing from blocks, so it is never asked
    # for a value past the stopping window
    base = SequenceSource(fn=lambda i: 6.0 / (math.pi * (i + 1)) ** 2, declared_monotone=True)
    src = CountingSource(base)
    res = entropy_sequence(src, make_shannon(), max_terms=5000)
    assert all(b - a <= STOP_WINDOW for a, b in src.reads)
    assert src.reads[-1][1] == res.terms_used
    assert not base.vectorized and SequenceSource.geometric(0.5).vectorized
    with pytest.raises(AttributeError):
        base.vectorized = True


def test_heavy_tail_normalization():
    src = sequence_from_spec("heavytail")
    # the first 2^13 terms plus an Euler-Maclaurin tail define the normalizer;
    # the head alone must stay strictly below 1
    head = src.values(0, 4096).sum()
    assert 0.4 < head < 1.0
    assert _log_square_normalizer(2).hex() == "0x1.0e0c0d5724562p+1"
    # the terms are 1 / (c x ln^2 x), multiplied in the order written
    x = np.arange(2.0, 16_002.0)
    want = 1.0 / (_log_square_normalizer(2) * x * np.log(x) ** 2)
    assert np.array_equal(src.values(0, 16_000), want)
    assert [v.hex() for v in src.values(0, 2)] == ["0x1.f91d3834675c9p-2", "0x1.0c1891351c36ep-3"]
    # references: the sum of the first 2^21 terms plus the tail 1/L + 1/(2 x L^2)
    for offset, reference in (
        (3, "0x1.11adce321eb29p+0"),
        (10, "0x1.c6acb084f9336p-2"),
        (1000, "0x1.287ff4e85d5d5p-3"),
        (1_000_000, "0x1.287a76eaf8d4ap-4"),
    ):
        ref = float.fromhex(reference)
        assert abs(_log_square_normalizer(offset) - ref) <= 8 * math.ulp(ref), offset
    # one block of at most MAX_BLOCK terms at a time: building took 50 MB
    # when the normalizer summed its 2^21 terms in one array
    tracemalloc.start()
    try:
        src = SequenceSource.heavy_tail()
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        res = entropy_sequence(src, make_shannon(), max_terms=1_000_000)
        stream_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status is EntropyStatus.DECLARED_DIVERGENT and res.terms_used == 1_000_000
    assert build_peak < 2e6 and stream_peak < 2e6, (build_peak, stream_peak)


def test_sequence_spec_errors():
    for spec in (
        "geometric", "geometric:r=1", "geometric:q=0.5", "nosuch:r=0.5", "heavytail:offset=1",
        "geometric:r=nan", "heavytail:offset=inf", "heavytail:offset=nan", "heavytail:offset=2.9",
    ):
        with pytest.raises(ValueError):
            sequence_from_spec(spec)


def test_entropy_sequence_argument_validation():
    src = SequenceSource.geometric(0.5)
    with pytest.raises(ValueError):
        entropy_sequence(src, make_shannon(), max_terms=0)
    for bad in (True, False, math.nan, math.inf, -math.inf, 100.5, np.float64(64.5), "100", np.bool_(True)):
        with pytest.raises(ValueError, match="max_terms must be an integer"):
            entropy_sequence(SequenceSource.heavy_tail(), make_shannon(), max_terms=bad)
    want = entropy_sequence(SequenceSource.heavy_tail(), make_shannon(), max_terms=100)
    for count in (np.int64(100), np.int32(100), np.uint16(100), 100.0):
        got = entropy_sequence(SequenceSource.heavy_tail(), make_shannon(), max_terms=count)
        assert got == want and type(got.terms_used) is int
    # an infinite tolerance would stop a divergent stream after its first window
    for tol in (0.0, -1e-12, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="increment_tol must be finite and positive"):
            entropy_sequence(SequenceSource.heavy_tail(), make_shannon(), increment_tol=tol)
