"""Probability vectors, finite and sequence entropies, majorization, mixing."""

import collections
import dataclasses
import decimal
import math
import re
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest

from entrokit.classical import (
    MAX_BLOCK,
    STOP_WINDOW,
    BistochasticMatrix,
    EntropyResult,
    EntropyStatus,
    GeometricTail,
    ProbVector,
    SequenceSource,
    _bistochastic,
    _computed_rows,
    _join,
    _log_square_normalizer,
    _mix_rows,
    _probability_rows,
    _row_margins,
    _unitary_squares,
    apply_bistochastic,
    bistochastic_from_unitary,
    entropy_finite,
    entropy_sequence,
    entropy_table,
    STRUCTURE_TOL,
    ZERO_TOL,
    jensen_step_oracle,
    majorization_margin,
    majorizes,
    require_orthonormal,
    require_slices,
    require_stochastic_rows,
    sequence_from_spec,
)
from entrokit.functionals import (
    FunctionalCase,
    functional_from_spec,
    make_custom,
    make_kaniadakis,
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
def test_entropy_table_of_equal_length_rows_is_entropy_finite_bit_for_bit(F):
    rng = np.random.default_rng(73)
    for n in range(1, 40):
        dense = rng.dirichlet(np.ones(n), size=12)
        mask = rng.random((12, n)) < 0.5
        mask[:, 0] = True
        sparse = dense * mask
        sparse = sparse / sparse.sum(axis=1, keepdims=True)  # rows with exact zeros
        for rows in (dense, sparse):
            want = np.array([entropy_finite(row, F).value for row in rows])
            assert np.array_equal(entropy_table(rows, [F])[:, 0].view(np.int64), want.view(np.int64)), n


def test_entropy_table_validates_each_row_as_probvector_does():
    F = make_shannon()
    good = [0.5, 0.5]
    for bad in (
        [good, [math.nan, 1.0]],
        [good, [math.inf, 0.0]],
        [good, [1.0 + 1e-11, -1e-11]],  # below -ZERO_TOL
        [good, [0.5, 0.4]],  # off-sum row
        good,  # two 1-entry vectors, each summing to 0.5
        [[]],
        np.ones((2, 2, 2)) / 4,
    ):
        with pytest.raises(ValueError):
            entropy_table(bad, [F])
    # entries in [-ZERO_TOL, 0) are clipped to zero, as ProbVector clips them
    rows = [[1.0 + 5e-13, -5e-13], good]
    assert entropy_table(rows, [F])[:, 0].tolist() == [entropy_finite(row, F).value for row in rows]


def test_entropy_table_names_a_bad_vector_by_its_position():
    F = make_shannon()
    for vectors, name in (
        ([[0.5, 0.5], [1.0], [0.5, 0.4]], "vector 2: "),
        ([[1.0], [0.5, 0.4]], "vector 1: "),
        ([[0.5, 0.4], [0.5, 0.5]], "vector 0: "),
        ([[0.5, 0.4]], ""),
    ):
        with pytest.raises(ValueError, match=f"^{name}entries sum to 0.9, outside"):
            entropy_table(vectors, [F])
    with pytest.raises(ValueError, match="^vector 1: computed entry -0.001 below floor"):
        entropy_table([[1.0], [1.001, -0.001], [0.5, 0.5]], [F], computed=True)


def test_a_slice_is_named_only_when_it_fails():
    def unnamed(t):
        raise AssertionError(f"slice {t} named without a failure")

    require_slices(np.array([True, True]), lambda t: "bad", unnamed)
    with pytest.raises(ValueError, match="^vector 7: bad 1$"):
        require_slices(np.array([True, False]), lambda t: f"bad {t}", lambda t: f"vector {[3, 7][t]}")


def test_an_overflowing_total_is_a_value_error_not_a_warning():
    huge = [1e308, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in (
            (lambda: ProbVector(huge, renormalize=True), "cannot renormalize a vector with total above the float range"),
            (lambda: ProbVector.from_computation(huge), "computed vector has total above the float range"),
            (lambda: ProbVector(huge), "entries sum to inf, outside"),
            (lambda: entropy_table([[1.0], huge], [make_shannon()], computed=True), "vector 1: computed vector has total above"),
        ):
            with pytest.raises(ValueError, match=f"^{message}"):
                call()


def test_computed_rows_are_from_computation_row_by_row():
    rows = np.array([
        [0.5, 0.5, 0.0],
        [0.6, 0.4 + 3e-12, -5e-10],  # drift past ZERO_TOL and negative jitter
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.2, 0.3, 0.5 + 1e-13],  # drift within ZERO_TOL: kept as is
    ])
    out = _computed_rows(rows)
    assert not out.flags.writeable
    for row, want in zip(out, rows):
        assert row.tobytes() == ProbVector.from_computation(want).entries.tobytes()
    with pytest.raises(ValueError, match="below floor"):
        _computed_rows(np.array([[1.0 + 1e-8, -1e-8]]))
    with pytest.raises(ValueError, match="finite"):
        _computed_rows(np.array([[0.5, 0.5], [math.nan, 1.0]]))


def test_entropy_table_stacks_lengths_in_first_seen_order_and_never_pads(monkeypatch):
    items = [[0.5, 0.5], [1.0], [0.25, 0.75], [0.3, 0.3, 0.4], [0.1, 0.2, 0.7]]
    F = make_shannon()
    want = [entropy_finite(v, F).value for v in items]
    stacks = []

    def recording(rows, rule, *names):
        stacks.append(rows.tolist())
        return kernel(rows, rule, *names)

    kernel = _probability_rows
    monkeypatch.setattr("entrokit.classical._probability_rows", recording)
    assert entropy_table(items, [F])[:, 0].tolist() == want
    assert stacks == [[items[0], items[2]], [items[1]], items[3:]]
    stacks.clear()
    assert entropy_table([], [F]).shape == (0, 1)
    assert stacks == []


RULES = {
    "probvector": ("input", ProbVector),
    "renormalize": ("renormalize", lambda v: ProbVector(v, renormalize=True)),
    "from_computation": ("computed", ProbVector.from_computation),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_probability_rows_are_the_single_vectors_bit_for_bit(rule):
    name, single = RULES[rule]
    rng = np.random.default_rng(83)
    for n in (1, 2, 3, 7, 8, 9, 16, 33):
        base = rng.dirichlet(np.ones(n))
        candidates = [base * scale for scale in (1.0, 1 + 5e-13, 1 + 5e-11, 1 + 5e-9, 3.0, 0.0)]
        for low in (-5e-13, -5e-10, -1e-3, math.nan, math.inf):
            row = base.copy()
            row[0] = low
            candidates.append(row)
        accepted, rejected = [], []
        for row in candidates:
            try:
                accepted.append((row, single(row).entries))
            except ValueError as err:
                rejected.append((row, str(err)))
        assert accepted and rejected, (rule, n)
        out = _probability_rows(np.array([row for row, _ in accepted]), name)
        assert not out.flags.writeable
        for got, (_, want) in zip(out, accepted):
            assert got.tobytes() == want.tobytes(), (rule, n)
        for row, message in rejected:
            with pytest.raises(ValueError) as err:
                _probability_rows(np.array([accepted[0][0], row]), name)
            assert str(err.value) == f"row 1: {message}"


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


def test_majorizes_forgives_the_drift_between_accepted_totals():
    # The totals differ by 5e-10, within SUM_TOL, and so does the last partial sum.
    p, q = [0.5, 0.5], [0.5, 0.5 + 5e-10]
    assert majorization_margin(p, q) < -ZERO_TOL
    assert majorizes(p, q) and majorizes(q, p)
    # Only the drift is forgiven: a first partial sum 1e-9 above p's still counts.
    assert not majorizes(p, [0.5 + 1e-9, 0.5 - 5e-10])


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
        lambda: _join([p, q]),
        lambda: _join([q, p]),
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
        slack = ZERO_TOL + abs(float(np.sum(p)) - float(np.sum(q)))
        assert majorizes(p, q) == (majorization_margin(p, q) >= -slack)
        assert majorizes(q, p) == (majorization_margin(q, p) >= -slack)
        join = _join([p, q])
        assert majorizes(join, p) and majorizes(join, q)
        # the join of a comparable pair is the greater one, zero-padded
        if majorization_margin(p, q) > 0 and len(p) >= len(q):
            assert np.allclose(join, np.sort(p)[::-1], rtol=0, atol=1e-15)


def reference_join(vectors):
    """The join in exact rationals: each point of the least concave majorant is the highest chord over it."""
    rows = [sorted((Fraction(float(v)) for v in np.ravel(vec)), reverse=True) for vec in vectors]
    length = max(map(len, rows))
    top = [max(sum(row[:k], Fraction(0)) / sum(row, Fraction(0)) for row in rows) for k in range(length + 1)]

    def chord(i, j, k):
        return top[k] if i == j else top[i] + (top[j] - top[i]) * (k - i) / (j - i)

    hull = [max(chord(i, j, k) for i in range(k + 1) for j in range(k, length + 1)) for k in range(length + 1)]
    return np.array([float(b - a) for a, b in zip(hull, hull[1:])])


def random_vector_sets(seed, count):
    """Sets of one to six Dirichlet vectors of lengths 1 to 6, some with repeated entries or totals off 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        vectors = [rng.dirichlet(np.ones(int(rng.integers(1, 7)))) for _ in range(int(rng.integers(1, 7)))]
        if rng.random() < 0.3:
            vectors.append(np.full(len(vectors[0]), 1.0 / len(vectors[0])))
        if rng.random() < 0.3:
            vectors[0] = vectors[0] * (1.0 + float(rng.uniform(-2e-9, 2e-9)))
        yield vectors


def test_join_is_an_upper_bound_of_every_input():
    for vectors in random_vector_sets(29, 300):
        join = _join(vectors)
        assert join.shape == (max(len(v) for v in vectors),)
        assert np.all(np.diff(join) <= 1e-15) and abs(join.sum() - 1.0) <= 1e-15
        assert all(majorizes(join, v / v.sum()) for v in vectors)


def test_join_is_the_exact_least_concave_majorant():
    for vectors in random_vector_sets(31, 300):
        assert np.allclose(_join(vectors), reference_join(vectors), rtol=0, atol=1e-15)
    # incomparable spectra: partial sums (0.6, 0.9, 1) and (0.55, 0.95, 1)
    incomparable = [[0.6, 0.3, 0.1], [0.55, 0.4, 0.05]]
    assert np.allclose(_join(incomparable), [0.6, 0.35, 0.05], rtol=0, atol=1e-15)
    # the largest partial sums (0.5, 0.625, 0.75, 1, 1) are not concave: the
    # hull bridges lengths 1 to 4, so no input's entries appear past the first
    bridged = [[0.5, 0.125, 0.125, 0.125, 0.125], [0.25, 0.25, 0.25, 0.25]]
    assert np.allclose(_join(bridged), [0.5, 1 / 6, 1 / 6, 1 / 6, 0.0], rtol=0, atol=1e-15)


def test_join_rejects_empty_and_zero_total_inputs():
    for vectors in ([], [[]], [[0.0, 0.0], [1.0]]):
        with pytest.raises(ValueError):
            _join(vectors)


@pytest.mark.parametrize("n,width", [(1, 1), (3, 3), (4, 6), (6, 4), (5, 1)])
def test_row_margins_are_the_single_calls_bit_for_bit(n, width):
    rng = np.random.default_rng(100 * n + width)
    p = ProbVector.from_computation(rng.dirichlet(np.ones(n)))
    rows = _computed_rows(rng.dirichlet(np.ones(width), size=7)).copy()
    rows[3] = np.sort(rows[3])  # an ascending row, and one equal to p where it fits
    if width == n:
        rows[5] = p.entries
    # One p against every row, as the ensemble suite takes them.
    margins = _row_margins(p.entries[None], rows)
    assert margins.shape == (7,)
    for margin, row in zip(margins.tolist(), rows):
        assert margin == majorization_margin(p, row)
    # Row t of p against row t of q, as the schur suite takes them.
    leads = _computed_rows(rng.dirichlet(np.ones(n), size=7)).copy()
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
            with pytest.raises(ValueError, match="majorization input must be 1-d"):
                call(bad, p)
            with pytest.raises(ValueError, match="majorization input must be 1-d"):
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
    ps = _computed_rows(rng.dirichlet(np.ones(n), size=k))
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
        (with_entry(Q, (2, 0, 1), math.nan), "matrix 2: bistochastic matrix row entries must be finite"),
        (with_entry(with_entry(Q, (3, 1, 1), math.inf), (1, 0, 0), math.nan), "matrix 1: .*finite"),
        (with_entry(Q, (1, 0, 0), -1e-3), "matrix 1: .*nonnegative"),
        (with_entry(Q, (3, 2, 2), Q[3, 2, 2] + 10 * STRUCTURE_TOL), "matrix 3: bistochastic matrix row sums"),
        (with_entry(Q[:1], (0, 0, 0), -1e-3), "bistochastic matrix row entries must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            _bistochastic(stack)
    with pytest.raises(ValueError, match="non-empty"):
        _bistochastic(np.empty((0, 3, 3)))
    with pytest.raises(ValueError, match=r"^matrix 2: unitary is not orthonormal .*deviation"):
        _unitary_squares(with_entry(Us, (2, 0, 0), 2.0))
    with pytest.raises(ValueError, match=r"^matrix 1: unitary entries must be finite"):
        _unitary_squares(with_entry(Us, (1, 0, 0), math.inf))
    with pytest.raises(ValueError, match=r"^unitary is not orthonormal .*deviation"):
        _unitary_squares(with_entry(Us[:1], (0, 0, 0), 2.0))


@pytest.mark.parametrize("bad, value", [(2, math.nan), (3, math.inf)])
def test_a_non_finite_slice_is_named_by_both_structure_checks_without_a_warning(bad, value):
    # A passing stack clears each check in one pass; a failing one is still diagnosed finite entries first.
    rng = np.random.default_rng(73)
    U = np.array([random_unitary(3, rng) for _ in range(5)])
    Q = np.abs(U) ** 2
    U[bad, 1, 2] = Q[bad, 1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^matrix {bad}: row entries must be finite$"):
            require_stochastic_rows(Q, "row", "matrix")
        with pytest.raises(ValueError, match=f"^matrix {bad}: unitary entries must be finite$"):
            require_orthonormal(U, "unitary", "matrix")


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
                stack = jensen_step_oracle(Q.matrix[None], p.entries[None], F)
                assert all(isinstance(a, np.ndarray) and a.shape == (1, n) for a in stack)
                for i in range(n):
                    one = jensen_step_oracle(Q.matrix[i], p, F)
                    assert all(isinstance(v, float) for v in one)
                    assert tuple(a[0, i] for a in stack) == one


def test_jensen_takes_one_row_or_a_stack_only():
    rng = np.random.default_rng(23)
    F = make_shannon()
    Q = bistochastic_from_unitary(random_unitary(3, rng)).matrix
    p = random_prob_vector(3, rng)
    # a (1, n) slice, an (n, 1) column and a 4-d stack are neither
    for rows in (Q[1:2], Q[1].reshape(-1, 1), Q[None, None]):
        with pytest.raises(ValueError, match=re.escape(f"one row or a (k, r, n) stack, got shape {rows.shape}")):
            jensen_step_oracle(rows, p, F)


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
def test_jensen_stacked_batches_are_the_reference_rows(F):
    rng = np.random.default_rng(29)
    for n in range(1, 13):
        k = 5
        Qs = np.array([bistochastic_from_unitary(random_unitary(n, rng)).matrix for _ in range(k)])
        ps = np.array([random_prob_vector(n, rng).entries for _ in range(k)])
        stacked = jensen_step_oracle(Qs, ps, F)
        assert all(isinstance(a, np.ndarray) and a.shape == (k, n) for a in stacked)
        for t in range(k):
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
        (with_entry(Qs, (0, 3, 2), Qs[0, 3, 2] + 10 * STRUCTURE_TOL), ps),  # q row off its sum
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
            jensen_step_oracle(rows[None], p.entries[None], F)
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
    for fn in (lambda idx: np.full(idx.shape, 1.5), lambda idx: np.where(idx == 1, math.nan, 0.1)):
        src = SequenceSource(fn=fn, name="bad")
        with pytest.raises(ValueError, match="outside"):
            src.values(0, 3)


def test_sequence_needs_one_value_per_index():
    # a function of one index, called on the index array, gives one value for all of them
    for fn in (lambda i: 0.5, lambda idx: np.full((len(idx), 1), 0.5), lambda idx: np.full(len(idx) + 1, 0.5)):
        with pytest.raises(ValueError, match="one value per index"):
            SequenceSource(fn=fn, name="scalar").values(0, 3)


def test_finite_sequence_is_validated_as_a_probability_vector():
    for bad in ([0.9, 0.9], [1.5, -0.5], [math.nan, 1.0], []):
        with pytest.raises(ValueError):
            SequenceSource.from_vector(bad)


def test_sequence_monotone_probe_catches_lies():
    src = SequenceSource(fn=lambda idx: 0.01 * (idx % 7), declared_monotone=True, name="liar")
    with pytest.raises(ValueError):
        src.values(0, 10)


def test_monotone_probe_spans_chunk_boundary():
    # jump exactly at index 64 so the violation straddles two fetches
    src = SequenceSource(fn=lambda idx: np.where(idx < 64, 0.001, 0.002), declared_monotone=True, name="bump")
    src.values(0, 64)
    with pytest.raises(ValueError):
        src.values(64, 70)


def test_a_sequence_reads_each_index_once():
    # The step into a block is checked against the last value of the block
    # before, kept from that read: index 63 was once read a second time.
    calls = collections.Counter()

    def fn(idx):
        calls.update(idx.tolist())
        return 6.0 / (np.pi * (idx + 1.0)) ** 2

    for F in (make_shannon(), make_tsallis(2.0)):  # tsallis also sums each read's mass, for its unread-mass term
        calls.clear()
        entropy_sequence(SequenceSource(fn, declared_monotone=True), F, max_terms=300)
        assert sorted(calls) == list(range(300)) and set(calls.values()) == {1}
    bump = SequenceSource(fn=lambda idx: np.where(idx < 64, 0.001, 0.002), declared_monotone=True, name="bump")
    with pytest.raises(ValueError, match="declared monotone but increased"):
        entropy_sequence(bump, make_shannon(), max_terms=300)
    # A read that no read ended before still checks its first step.
    fresh = SequenceSource(fn=lambda idx: np.where(idx < 64, 0.001, 0.002), declared_monotone=True, name="bump")
    with pytest.raises(ValueError, match="declared monotone but increased"):
        fresh.values(64, 70)


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


def reference_geometric_remainder(r, F, n):
    """The geometric tail as one formula per built-in family, keyed by its tag."""

    def power_sum_tail(beta):
        return (1.0 - r) ** beta * r ** (beta * n) / -math.expm1(beta * math.log(r))

    if F.family == "shannon":
        return -(r**n * math.log(1.0 - r) + math.log(r) * r**n * (n + r / (1.0 - r)))
    if F.family == "renyi":
        return power_sum_tail(F.params["alpha"])
    if F.family == "tsallis":
        q = F.params["q"]
        return (power_sum_tail(1.0) - power_sum_tail(q)) / (q - 1.0)
    k = F.params["kappa"]
    return (power_sum_tail(1.0 - k) - power_sum_tail(1.0 + k)) / (2.0 * k)


TAIL_FUNCTIONALS = [
    make_shannon(), make_renyi(0.5), make_renyi(2.0), make_tsallis(0.5), make_tsallis(2.0),
    make_kaniadakis(-0.3), make_kaniadakis(0.5),
]


@pytest.mark.parametrize("F", TAIL_FUNCTIONALS, ids=[F.name for F in TAIL_FUNCTIONALS])
@pytest.mark.parametrize("r", [0.05, 0.5, 0.96, 0.999999])
def test_geometric_tail_is_the_per_family_formula_bit_for_bit(r, F):
    # The tail is summed from the pair's declared powers; it keeps every bit
    # of the formula written out for each family.
    for n in (0, 1, 64, 10_000):
        assert GeometricTail(r).remainder(F, n) == reference_geometric_remainder(r, F, n), n


def decimal_geometric_entropy(r, F):
    """The geometric entropy in closed form, at 50 digits from the exact doubles r and the pair's parameter."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        R, one = decimal.Decimal(r), decimal.Decimal(1)
        if F.family == "shannon":
            return -(one - R).ln() - R * R.ln() / (one - R)
        p = decimal.Decimal(next(iter(F.params.values())))

        def power_sum(beta):  # sum_i p_i**beta over the whole sequence
            return (one - R) ** beta / (one - R**beta)

        if F.family == "renyi":
            return power_sum(p).ln() / (one - p)
        if F.family == "tsallis":
            return (one - power_sum(p)) / (p - one)
        return (power_sum(one - p) - power_sum(one + p)) / (2 * p)


DECIMAL_SPECS = ["shannon", "renyi:alpha=0.5", "renyi:alpha=2", "tsallis:q=2", "kaniadakis:kappa=0.5", "tsallis:q=0.5"]


@pytest.mark.parametrize("spec", DECIMAL_SPECS)
@pytest.mark.parametrize("r", [0.05, 0.5, 0.9, 0.99, 0.9999, 0.999999])
def test_geometric_entropy_matches_the_decimal_closed_form(r, spec):
    # Near r = 1 the tail is nearly all of the value, and 1 - r**beta would
    # cancel there: 9e-11 relative at r = 0.999999.
    F = functional_from_spec(spec)
    res = entropy_sequence(SequenceSource.geometric(r), F)
    want = decimal_geometric_entropy(r, F)
    assert res.status is EntropyStatus.EXACT
    assert abs((decimal.Decimal(res.value) - want) / want) <= decimal.Decimal(1e-15), (res, want)


def test_geometric_tail_needs_declared_powers():
    tsallis = make_tsallis(2.0)
    custom = make_custom("tsallis-copy", tsallis.phi, tsallis.h, tsallis.case, tsallis.params)
    assert custom.powers is None and GeometricTail(0.5).remainder(custom, 3) is None


def test_geometric_exhaustion_folds_exact_tail():
    src = SequenceSource.geometric(0.5)
    res = entropy_sequence(src, make_shannon(), max_terms=10)
    assert res.terms_used == 10
    # the remainder formula is exact, so the folded value is the entropy
    assert res.status is EntropyStatus.EXACT
    assert abs(res.value - 2 * LN2) < 1e-12
    assert res.increment_at_stop == GeometricTail(0.5).remainder(make_shannon(), 10) > 1e-12


@pytest.mark.parametrize(
    "r,spec",
    [(0.999999, "shannon"), (0.99, "renyi:alpha=0.5"), (0.99, "kaniadakis:kappa=0.5"), (0.9999, "tsallis:q=2")],
)
def test_certified_tail_stops_only_on_its_remainder(r, spec):
    # The trailing-window rule once stopped the r = 0.99 streams 2.1e-13 short
    # of the closed form, and r = 0.999999 ended as a truncated estimate.
    F = functional_from_spec(spec)
    res = entropy_sequence(SequenceSource.geometric(r), F)
    assert res.status is EntropyStatus.EXACT
    closed = F.h(GeometricTail(r).remainder(F, 0))
    assert abs(res.value - closed) <= 1e-13 * max(1.0, abs(closed)), (res, closed)
    if r == 0.999999:
        assert res.terms_used == 10_000
        assert abs(res.value - (-math.log(1 - r) - r * math.log(r) / (1 - r))) <= 1e-9


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


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_heavy_tail_tsallis_above_one_is_bounded(q):
    # phi(x) = (x - x**q) / (q - 1) <= x / (q - 1), so the phi-sum stays below 1 / (q - 1).
    res = entropy_sequence(sequence_from_spec("heavytail"), make_tsallis(q), max_terms=20_000)
    assert res.status is EntropyStatus.TRUNCATED_ESTIMATE
    assert math.isfinite(res.value) and 0.0 < res.value <= 1.0 / (q - 1.0)
    assert res.terms_used == 20_000


@pytest.mark.parametrize(
    "q, want", [(1.5, (1.1378738214, 1.1378635879)), (2.0, (0.7328065022, 0.7328065000)), (3.0, (0.4387113067,) * 2)]
)
def test_truncated_heavy_tail_tsallis_folds_in_its_unread_mass(q, want):
    # phi(x) = (x - x**q) / (q - 1): the x terms left unread sum to the mass
    # m, and their x**q terms to at most k c**q + r**q, with c = p_{n-1} the
    # largest term left, k = floor(m / c) and r = m - k c (the tail of mass m
    # and cap c that majorizes all others).  The blocked sum rounds each term
    # through at most STOP_WINDOW additions in its window and n / STOP_WINDOW
    # in the running sum.
    src, F = sequence_from_spec("heavytail"), make_tsallis(q)
    for n, value in zip((10_000, 1_000_000), want):
        res = entropy_sequence(src, F, max_terms=n)
        assert res.status is EntropyStatus.TRUNCATED_ESTIMATE and res.terms_used == n
        p = src.values(0, n)
        m, c = -math.fsum([-1.0, *p.tolist()]), float(p[-1])
        k = math.floor(m / c)
        upper = math.fsum(F.phi(p).tolist()) + m / (q - 1.0)
        rounding = (STOP_WINDOW + n // STOP_WINDOW + 4) * 2.0**-52 * upper
        assert upper - (k * c**q + (m - k * c) ** q) / (q - 1.0) - rounding <= res.value <= upper + rounding
        assert abs(res.value - value) <= 1e-9


def test_truncated_tsallis_stream_keeps_no_values():
    # The unread mass is summed in the phi-sum's windows, so a read holds one
    # block at a time: keeping every value read for one fsum peaked at 16 MB.
    src = SequenceSource.heavy_tail()
    tracemalloc.start()
    try:
        res = entropy_sequence(src, make_tsallis(2.0), max_terms=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status is EntropyStatus.TRUNCATED_ESTIMATE and res.terms_used == 10**6
    assert peak < 2e6, peak


def test_heavy_tail_tsallis_below_one_and_custom_pairs_stay_divergent():
    src = sequence_from_spec("heavytail")
    shannon = make_shannon()
    custom = make_custom("tsallis-copy", make_tsallis(2.0).phi, lambda y: y, FunctionalCase.INCREASING_CONCAVE)
    for F in (make_tsallis(0.5), make_kaniadakis(0.5), make_kaniadakis(-0.5), make_renyi(0.5), shannon, custom):
        res = entropy_sequence(src, F, max_terms=1_000)
        assert res.status is EntropyStatus.DECLARED_DIVERGENT and res.value == math.inf, F.name


def reference_entropy_sequence(src, F, max_terms=10_000, increment_tol=1e-12):
    """The window-by-window loop: one read of STOP_WINDOW terms per step."""
    partial = 0.0
    n = 0
    last_chunk = math.inf
    mass = 0.0
    # tsallis with q > 1 is the built-in whose phi has a finite slope at 0+: its sum is bounded,
    # and a truncated read adds its x term's tail, the unread mass, over q - 1.  The mass read
    # is summed window by window, as the phi-sum is.
    bounded = F.family == "tsallis" and F.params["q"] > 1.0

    def truncated(partial, n, last_chunk):
        if bounded:
            partial += max(0.0, 1.0 - mass) / (F.params["q"] - 1.0)
        return EntropyResult(float(F.h(partial)), EntropyStatus.TRUNCATED_ESTIMATE, n, last_chunk)

    while n < max_terms:
        stop = min(n + STOP_WINDOW, max_terms)
        vals = src.values(n, stop)
        mass += float(np.sum(vals))
        chunk = float(np.sum(np.asarray(F.phi(vals))))
        partial += chunk
        full_window = stop - n == STOP_WINDOW
        n = stop
        last_chunk = abs(chunk)
        rem = None if src.tail is None else src.tail.remainder(F, n)
        if rem is not None:
            # a certified tail alone stops the read, the window rule never
            if abs(rem) < increment_tol:
                return EntropyResult(float(F.h(partial + rem)), EntropyStatus.EXACT, n, abs(rem))
        elif full_window and last_chunk < increment_tol:
            return truncated(partial, n, last_chunk)
    if rem is not None:
        return EntropyResult(float(F.h(partial + rem)), EntropyStatus.EXACT, n, abs(rem))
    if F.case is FunctionalCase.INCREASING_CONCAVE and not bounded:
        return EntropyResult(math.inf, EntropyStatus.DECLARED_DIVERGENT, n, last_chunk)
    return truncated(partial, n, last_chunk)


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
    for spec in ("shannon", "renyi:alpha=2", "tsallis:q=2"):
        for max_terms in (10, 1000, 100_001):
            assert_blocked_is_windowed(heavy, functional_from_spec(spec), max_terms=max_terms)
    rng = np.random.default_rng(23)
    for vec in ([1.0, 0.0, 0.0], [0.5, 0.25, 0.25], rng.dirichlet(np.ones(300))):
        for spec in ALL_SPECS:
            assert_blocked_is_windowed(SequenceSource.from_vector(vec), functional_from_spec(spec))


def test_blocked_custom_source_is_the_windowed_loop():
    src = SequenceSource(fn=lambda idx: 6.0 / (np.pi * (idx + 1.0)) ** 2, declared_monotone=True)
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

    def __getattr__(self, attr):  # tail, declared_monotone, name
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
        "geometric:r=0.5,r=0.9",
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
