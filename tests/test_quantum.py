"""Density operators, spectra, pinching, isometries, and pure-state ensembles."""

import math
import re

import numpy as np
import pytest

from entrokit.audit import run_audit
from entrokit.classical import ZERO_TOL, ProbVector, entropy_finite, majorizes
from entrokit.functionals import functional_from_spec, make_renyi, make_shannon
from entrokit.quantum import (
    DensityOperator,
    Ensemble,
    _conjugated,
    _eigensystems,
    _ensembles,
    _rank,
    conjugate_isometry,
    eigen_spectrum,
    haar_isometry,
    inf_ensemble_entropy,
    pinch,
    pinching_inequality_audit,
    pure_state,
    quantum_entropy,
    random_ensemble,
    spectral_ensemble,
)
from entrokit.rand import (
    as_rng,
    density_from_factor,
    ginibre,
    random_density,
    random_isometry,
    random_state_vector,
    random_unitary,
)

LN2 = 0.6931471805599453
ALL_SPECS = ["shannon", "renyi:alpha=0.5", "renyi:alpha=2", "tsallis:q=2", "kaniadakis:kappa=0.5"]

RHO_2x2 = np.array([[0.5, 0.25], [0.25, 0.5]])  # eigenvalues 3/4 and 1/4
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


# ------------------------------------------------------------ DensityOperator

def test_density_accepts_and_freezes():
    rho = DensityOperator(RHO_2x2)
    assert rho.dim == 2
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.9


def test_density_symmetrizes_hermitian_noise():
    noisy = RHO_2x2 + np.array([[0.0, 1e-12], [-1e-12, 0.0]])
    rho = DensityOperator(noisy)
    assert np.allclose(rho.matrix, rho.matrix.conj().T, rtol=0, atol=0)


def test_density_rejections():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.9, 0.0], [0.0, 0.0]]))  # trace
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.ones((2, 3)))
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        m = RHO_2x2.astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(m)


def test_pure_state_has_zero_entropy():
    # top eigenvalue comes back as 1 +- 2e-16, so demand criterion-level zero
    rng = as_rng(2)
    for d in (2, 5):
        psi = random_state_vector(d, rng)
        rho = pure_state(psi)
        assert abs(quantum_entropy(rho, make_shannon()).value) <= 1e-12


# ----------------------------------------------------------------- spectrum

def test_eigen_spectrum_frozen_2x2():
    rho = DensityOperator(RHO_2x2)
    spectrum, basis = eigen_spectrum(rho)
    assert np.allclose(spectrum.values, [0.75, 0.25], rtol=0, atol=1e-15)
    recon = (basis * spectrum.values) @ basis.conj().T
    assert np.max(np.abs(recon - rho.matrix)) < 1e-12


def test_spectrum_is_sorted_and_unit_sum():
    rng = as_rng(7)
    for _ in range(20):
        rho = random_density(int(rng.integers(2, 9)), rng)
        spectrum, _ = eigen_spectrum(rho)
        assert np.all(np.diff(spectrum.values) <= 1e-12)
        assert abs(spectrum.values.sum() - 1.0) <= 1e-8


def test_structural_zeros_are_exact():
    # rank-deficient state: solver jitter on null eigenvalues must be cleared,
    # otherwise sub-linear phi turns it into ~1e-8 entropy noise
    rng = as_rng(12)
    rho = random_density(6, rng, rank=3)
    spectrum, _ = eigen_spectrum(rho)
    assert np.count_nonzero(spectrum.values) == 3
    assert spectrum.values[3:].tolist() == [0.0, 0.0, 0.0]


def test_an_eigenvalue_of_exactly_zero_tol_is_zero_to_the_spectrum_the_rank_and_the_spectral_ensemble():
    # At most ZERO_TOL is zero, for an eigenvalue as for a weight; all three readers agree at the edge.
    rho = DensityOperator(np.diag([1.0 - ZERO_TOL, ZERO_TOL]))
    spectrum, _ = eigen_spectrum(rho)
    assert np.linalg.eigvalsh(rho.matrix)[0] == ZERO_TOL
    assert spectrum.entries[1] == 0.0
    assert np.count_nonzero(spectrum.entries) == _rank(spectrum) == len(spectral_ensemble(rho).weights) == 1


def test_eigen_spectrum_is_a_sorted_probvector_with_hard_zeros():
    rng = as_rng(31)
    for d, rank in ((2, 1), (4, 2), (6, 6), (7, 3)):
        rho = random_density(d, rng, rank=rank)
        spectrum, _ = eigen_spectrum(rho)
        assert isinstance(spectrum, ProbVector)
        assert spectrum.values is spectrum.entries
        assert np.all(np.diff(spectrum.entries) <= 0.0)
        raw = np.linalg.eigvalsh(rho.matrix)
        assert np.count_nonzero(spectrum.entries) == np.count_nonzero(raw > ZERO_TOL)
        assert np.all((spectrum.entries == 0.0) | (spectrum.entries > ZERO_TOL))


def reference_eigen_spectrum(rho):
    """A fresh solve: eigh, nonincreasing order, hard zeros at most ZERO_TOL."""
    w, v = np.linalg.eigh(rho.matrix)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    w[w <= ZERO_TOL] = 0.0
    return ProbVector.from_computation(w), v


def test_eigen_spectrum_is_cached_and_read_only():
    rho = random_density(5, as_rng(37))
    spectrum, basis = eigen_spectrum(rho)
    again, again_basis = eigen_spectrum(rho)
    assert again is spectrum
    assert again_basis is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0


def test_cached_spectrum_is_a_fresh_solve_bit_for_bit():
    rng = as_rng(41)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    states = [DensityOperator(RHO_2x2), DensityOperator(np.eye(3) / 3.0)]
    states += [random_density(d, rng, rank=rank) for d, rank in ((2, 1), (4, 2), (6, 6), (8, 3), (8, 8))]
    for rho in states:
        spectrum, basis = eigen_spectrum(rho)
        ref_spectrum, ref_basis = reference_eigen_spectrum(rho)
        assert np.array_equal(spectrum.entries, ref_spectrum.entries)
        assert np.array_equal(basis, ref_basis)
        for F in fs:
            assert quantum_entropy(rho, F) == entropy_finite(spectrum, F)


@pytest.mark.parametrize("suite", ["pinching", "isometry", "ensemble"])
def test_one_eigh_per_state_in_the_quantum_suites(monkeypatch, suite):
    counts = {"eigh": 0, "states": 0}
    eigh = np.linalg.eigh
    init = DensityOperator.__init__

    def counted_eigh(a):
        counts["eigh"] += 1
        return eigh(a)

    def counted_init(self, matrix):
        counts["states"] += 1
        init(self, matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(DensityOperator, "__init__", counted_init)
    run_audit(suite, trials=12, seed=5)
    assert counts["states"] > 0
    assert counts["eigh"] == counts["states"]


def test_quantum_entropy_frozen_values():
    rho = DensityOperator(RHO_2x2)
    # -(3/4 ln 3/4 + 1/4 ln 1/4)
    assert abs(quantum_entropy(rho, make_shannon()).value - 0.5623351446188083) < 1e-12
    # -ln(9/16 + 1/16)
    assert abs(quantum_entropy(rho, make_renyi(2)).value - 0.47000362924573563) < 1e-12
    mixed = DensityOperator(np.eye(4) / 4.0)
    assert abs(quantum_entropy(mixed, make_shannon()).value - 2 * LN2) < 1e-12


def test_quantum_equals_classical_on_spectrum():
    rng = as_rng(31)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(25):
        rho = random_density(int(rng.integers(2, 9)), rng)
        spectrum, _ = eigen_spectrum(rho)
        p = ProbVector(spectrum.values)
        for F in fs:
            assert quantum_entropy(rho, F).value == entropy_finite(p, F).value


# ----------------------------------------------------------- isometry moves

def test_unitary_conjugation_preserves_entropy():
    rng = as_rng(41)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(15):
        d = int(rng.integers(2, 8))
        rho = random_density(d, rng)
        U = random_unitary(d, rng)
        sigma = conjugate_isometry(rho, U)
        for F in fs:
            assert abs(quantum_entropy(sigma, F).value - quantum_entropy(rho, F).value) <= 1e-8


def test_embedding_isometry_preserves_entropy():
    rng = as_rng(43)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(10):
        d = int(rng.integers(2, 6))
        D = d + int(rng.integers(1, 4))
        rho = random_density(d, rng)
        V = random_isometry(D, d, rng)
        sigma = conjugate_isometry(rho, V)
        assert sigma.dim == D
        for F in fs:
            assert abs(quantum_entropy(sigma, F).value - quantum_entropy(rho, F).value) <= 1e-8


def test_conjugate_isometry_rejects_nonisometry():
    rho = DensityOperator(RHO_2x2)
    with pytest.raises(ValueError):
        conjugate_isometry(rho, np.array([[1.0, 0.1], [0.0, 1.0]]))


# ----------------------------------------------------------------- pinching

def test_pinch_in_hadamard_basis_frozen():
    rho = DensityOperator(np.diag([0.75, 0.25]))
    p = pinch(rho, HADAMARD)
    assert np.allclose(p.entries, [0.5, 0.5], rtol=0, atol=1e-15)


def test_pinch_rejects_nonorthonormal_basis():
    rho = DensityOperator(RHO_2x2)
    with pytest.raises(ValueError):
        pinch(rho, np.array([[1.0, 0.9], [0.0, 1.0]]))


def test_pinching_never_decreases_entropy():
    rng = as_rng(51)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(20):
        d = int(rng.integers(2, 8))
        rho = random_density(d, rng)
        U = random_unitary(d, rng)
        spectrum, _ = eigen_spectrum(rho)
        assert majorizes(spectrum.values, pinch(rho, U).entries)
        for F in fs:
            entry = pinching_inequality_audit(rho, U, F)
            assert entry.passed, entry


def test_pinch_in_eigenbasis_recovers_spectrum_entropy():
    rng = as_rng(53)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(15):
        rho = random_density(int(rng.integers(2, 8)), rng)
        _, basis = eigen_spectrum(rho)
        p = pinch(rho, basis)
        for F in fs:
            assert abs(entropy_finite(p, F).value - quantum_entropy(rho, F).value) <= 1e-9


# ------------------------------------------------------------------- stacks


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def mixed_rank_states(d, k, rng):
    """k states of dimension d; every third one has rank about d/2, so zeros appear."""
    return [random_density(d, rng, rank=max(1, d // 2) if t % 3 == 2 else None) for t in range(k)]


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_forms_are_the_single_calls_bit_for_bit(d):
    rng = as_rng(100 + d)
    k = 9
    states = mixed_rank_states(d, k, rng)
    stack = DensityOperator(np.array([rho.matrix for rho in states]))
    assert stack.stacked and stack.dim == d and stack.matrix.shape == (k, d, d)
    spectra, bases = _eigensystems(stack.matrix)
    bases_u = haar_isometry(np.array([ginibre(d, d, rng) for _ in range(k)]))
    pinched = pinch(stack, bases_u)
    pinned = pinch(stack, bases)
    for t, rho in enumerate(states):
        assert_same_bits(stack.matrix[t], rho.matrix)
        spectrum, basis = eigen_spectrum(rho)
        assert_same_bits(spectra[t], spectrum.entries)
        assert_same_bits(bases[t], basis)
        assert_same_bits(pinched[t], pinch(rho, bases_u[t]).entries)
        assert_same_bits(pinned[t], pinch(rho, basis).entries)
    for rows in range(d, d + 5):
        gaussians = np.array([ginibre(rows, d, rng) for _ in range(k)])
        V = haar_isometry(gaussians)
        moved = _conjugated(stack.matrix, V)
        assert moved.shape == (k, rows, rows)
        moved_spectra, _ = _eigensystems(DensityOperator(moved).matrix)
        for t, rho in enumerate(states):
            assert_same_bits(V[t], haar_isometry(gaussians[t]))
            single = conjugate_isometry(rho, V[t])
            assert_same_bits(DensityOperator(moved[t]).matrix, single.matrix)
            assert_same_bits(moved_spectra[t], eigen_spectrum(single)[0].entries)


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_density_draws_are_the_single_draws(d):
    rng = as_rng(200 + d)
    factors = [ginibre(d, d, rng) for _ in range(3)]
    stacked = density_from_factor(np.array(factors))
    for t, g in enumerate(factors):
        assert_same_bits(stacked[t], density_from_factor(g))
    drawn = DensityOperator(density_from_factor(ginibre(d, 1, as_rng(7))))
    assert_same_bits(random_density(d, as_rng(7), rank=1).matrix, drawn.matrix)


def test_ginibre_is_the_real_part_then_the_imaginary_part():
    # One standard_normal((2, rows, cols)) call reads the stream that two
    # (rows, cols) calls read, and leaves the generator where they leave it.
    for rows, cols in ((1, 1), (3, 3), (7, 4)):
        one, two = as_rng(9), as_rng(9)
        want = two.standard_normal((rows, cols)) + 1j * two.standard_normal((rows, cols))
        assert_same_bits(ginibre(rows, cols, one), want)
        assert one.standard_normal() == two.standard_normal()


def test_random_isometry_is_haar_isometry_of_its_draw():
    for rows, cols in ((1, 1), (3, 3), (7, 4)):
        want = haar_isometry(ginibre(rows, cols, as_rng(5)))
        assert_same_bits(random_isometry(rows, cols, as_rng(5)), want)
    assert_same_bits(random_unitary(4, as_rng(6)), haar_isometry(ginibre(4, 4, as_rng(6))))
    with pytest.raises(ValueError, match="rows >= cols"):
        random_isometry(2, 3, as_rng(1))
    with pytest.raises(ValueError, match="rows >= cols"):
        haar_isometry(np.ones((4, 2, 3)))


def test_a_stack_of_one_is_the_unstacked_call():
    rng = as_rng(211)
    for d in (1, 3, 6):
        g = ginibre(d, d, rng)
        rho = DensityOperator(density_from_factor(g))
        one = DensityOperator(density_from_factor(g[None]))
        assert not rho.stacked and one.stacked
        assert repr(one) == f"DensityOperator(dim={d}, stack=1)"
        assert_same_bits(one.matrix[0], rho.matrix)
        spectra, bases = _eigensystems(one.matrix)
        spectrum, basis = eigen_spectrum(rho)
        assert_same_bits(spectra[0], spectrum.entries)
        assert_same_bits(bases[0], basis)
        u = ginibre(d + 2, d, rng)
        assert_same_bits(haar_isometry(u[None])[0], haar_isometry(u))
        assert_same_bits(pinch(one, bases)[0], pinch(rho, basis).entries)
        V = haar_isometry(u)
        moved = DensityOperator(_conjugated(one.matrix, V[None])[0])
        assert_same_bits(moved.matrix, conjugate_isometry(rho, V).matrix)


def test_stacked_results_are_read_only_rows():
    stack = DensityOperator(np.array([RHO_2x2, np.eye(2) / 2.0]))
    spectra, bases = _eigensystems(stack.matrix)
    diag = pinch(stack, np.array([HADAMARD, np.eye(2)]))
    for a in (stack.matrix, spectra, bases, diag):
        assert not a.flags.writeable
    assert np.allclose(spectra, [[0.75, 0.25], [0.5, 0.5]], rtol=0, atol=1e-15)
    assert np.allclose(diag, [[0.75, 0.25], [0.5, 0.5]], rtol=0, atol=1e-15)
    rho = DensityOperator(RHO_2x2)
    assert eigen_spectrum(rho) is eigen_spectrum(rho)
    assert not eigen_spectrum(rho)[1].flags.writeable


def bad_stack(position, bad):
    states = [RHO_2x2.astype(complex) for _ in range(4)]
    states[position] = np.asarray(bad, dtype=complex)
    return np.array(states)


@pytest.mark.parametrize(
    "bad,message",
    [
        ([[0.5, 0.5j], [0.5j, 0.5]], "matrix is not Hermitian"),
        ([[0.5, math.nan], [math.nan, 0.5]], "density operator entries must be finite"),
        ([[0.9, 0.0], [0.0, 0.0]], "trace is 0.9"),
        ([[1.2, 0.0], [0.0, -0.2]], "eigenvalue -0.2"),
    ],
)
def test_a_stacked_density_error_names_the_first_bad_state(bad, message):
    stack = bad_stack(2, bad)
    stack[3] = stack[2]
    with pytest.raises(ValueError, match=f"^state 2: {re.escape(message)}"):
        DensityOperator(stack)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        DensityOperator(bad)


def test_stacked_basis_and_isometry_errors_name_the_state():
    stack = DensityOperator(np.array([RHO_2x2] * 3))
    bases = np.array([np.eye(2), np.eye(2), [[1.0, 0.9], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="^state 2: basis is not orthonormal"):
        pinch(stack, bases)
    with pytest.raises(ValueError, match="basis must be 3 x 2 x 2"):
        pinch(stack, np.eye(2))
    isometries = np.array([np.eye(2), [[1.0, 0.1], [0.0, 1.0]], np.eye(2)])
    with pytest.raises(ValueError, match="^state 1: isometry is not orthonormal"):
        _conjugated(stack.matrix, isometries)
    with pytest.raises(ValueError, match="^isometry is not orthonormal"):
        _conjugated(stack.matrix[:1], isometries[1:2])
    with pytest.raises(ValueError, match="^state 2: isometry entries must be finite"):
        _conjugated(stack.matrix, np.array([np.eye(2), np.eye(2), [[math.inf, 0.0], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="isometry maps dimension 3, state has 2"):
        _conjugated(stack.matrix, np.array([np.eye(3)] * 3))
    with pytest.raises(ValueError, match="at least as many rows"):
        _conjugated(stack.matrix, np.ones((3, 1, 2)))
    with pytest.raises(ValueError, match="expected one density operator, got a stack of 3"):
        conjugate_isometry(stack, isometries)
    for bad in (isometries, np.ones(2)):
        with pytest.raises(ValueError, match="^isometry must be a matrix$"):
            conjugate_isometry(DensityOperator(RHO_2x2), bad)


def test_density_rejects_shapes_that_are_no_stack():
    for bad in (np.ones(2), np.ones((2, 3)), np.ones((2, 2, 3)), np.ones((1, 1, 2, 2)), np.ones((0, 2, 2))):
        with pytest.raises(ValueError, match="square matrix or a stack"):
            DensityOperator(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: quantum_entropy(rho, make_shannon()),
        eigen_spectrum,
        lambda rho: conjugate_isometry(rho, np.eye(2)),
        lambda rho: random_ensemble(rho, 2, as_rng(1)),
        spectral_ensemble,
        lambda rho: inf_ensemble_entropy(rho, make_shannon(), trials=0),
        lambda rho: Ensemble(ProbVector([1.0]), np.array([[1.0, 0.0]])).check_reconstructs(rho),
        lambda rho: pinching_inequality_audit(rho, np.eye(2), make_shannon()),
    ],
    ids=[
        "quantum_entropy",
        "eigen_spectrum",
        "conjugate_isometry",
        "random_ensemble",
        "spectral_ensemble",
        "inf_ensemble_entropy",
        "check_reconstructs",
        "pinching_inequality_audit",
    ],
)
def test_single_state_functions_reject_a_stack(call):
    stack = DensityOperator(np.array([RHO_2x2, np.eye(2) / 2.0]))
    with pytest.raises(ValueError, match="expected one density operator, got a stack of 2"):
        call(stack)


# ---------------------------------------------------------------- ensembles

def test_spectral_ensemble_is_exact():
    rng = as_rng(61)
    rho = random_density(5, rng)
    spectrum, _ = eigen_spectrum(rho)
    ens = spectral_ensemble(rho)
    assert ens.check_reconstructs(rho) < 1e-10
    assert np.allclose(np.sort(ens.weights.entries)[::-1], spectrum.values, rtol=0, atol=1e-12)


def test_random_ensemble_reconstructs_and_is_majorized():
    rng = as_rng(67)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
        spectrum, _ = eigen_spectrum(rho)
        r = int(np.count_nonzero(spectrum.values > 1e-12))
        m = r + int(rng.integers(0, 4))
        ens = random_ensemble(rho, m, rng)
        assert len(ens.weights) == m
        ens.check_reconstructs(rho)
        assert majorizes(spectrum.values, ens.weights.entries)


def test_random_ensemble_rejects_small_m():
    rng = as_rng(71)
    rho = random_density(4, rng)  # full rank
    with pytest.raises(ValueError):
        random_ensemble(rho, 3, rng)


def test_random_ensemble_rejects_bad_mixing():
    rng = as_rng(73)
    rho = random_density(3, rng)
    with pytest.raises(ValueError):
        random_ensemble(rho, 3, mixing=np.ones((3, 3)))
    with pytest.raises(ValueError):
        random_ensemble(rho, 4, mixing=np.eye(3))


def test_identity_mixing_reduces_to_spectral():
    rng = as_rng(79)
    rho = random_density(4, rng)
    ens = random_ensemble(rho, 4, mixing=np.eye(4))
    spectrum, _ = eigen_spectrum(rho)
    assert np.allclose(ens.weights.entries, spectrum.values, rtol=0, atol=1e-12)


def test_hadamard_mixing_of_maximally_mixed_qubit():
    rho = DensityOperator(np.eye(2) / 2.0)
    ens = random_ensemble(rho, 2, mixing=HADAMARD.astype(complex))
    assert np.allclose(ens.weights.entries, [0.5, 0.5], rtol=0, atol=1e-15)


def test_ensemble_entropy_dominates_spectrum_entropy():
    rng = as_rng(83)
    fs = [functional_from_spec(s) for s in ALL_SPECS]
    for _ in range(10):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        base = {F.name: quantum_entropy(rho, F).value for F in fs}
        for _ in range(10):
            ens = random_ensemble(rho, d + 2, rng)
            for F in fs:
                assert entropy_finite(ens.weights, F).value >= base[F.name] - 1e-9


def test_inf_ensemble_entropy_attains_spectrum():
    rng = as_rng(89)
    for _ in range(5):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        for spec in ("shannon", "renyi:alpha=2"):
            F = functional_from_spec(spec)
            value, best = inf_ensemble_entropy(rho, F, trials=30, rng_seed=5)
            assert abs(value - quantum_entropy(rho, F).value) <= 1e-9
            best.check_reconstructs(rho)


def test_inf_ensemble_entropy_rejects_trials_that_are_not_counts():
    rho = DensityOperator(np.diag([0.7, 0.3]))
    for bad in (True, 2.5, math.nan, math.inf, "30"):
        with pytest.raises(ValueError, match="trials must be an integer"):
            inf_ensemble_entropy(rho, make_shannon(), trials=bad)
    want = inf_ensemble_entropy(rho, make_shannon(), trials=30)[0]
    assert inf_ensemble_entropy(rho, make_shannon(), trials=np.int64(30))[0] == want


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(weights=ProbVector([0.5, 0.5]), states=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        Ensemble(weights=ProbVector([1.0]), states=np.array([[0.7, 0.0]]))
    for bad in (math.nan, math.inf):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            Ensemble(weights=ProbVector([0.5, 0.5]), states=np.array([[bad, 0.0], [1.0, 0.0]]))


# ------------------------------------------------------- stacked ensembles

def state_stack(rhos):
    """The matrices, spectra and eigenbases of states, stacked as _ensembles takes them."""
    spectra, bases = zip(*(eigen_spectrum(rho) for rho in rhos))
    return (
        np.array([rho.matrix for rho in rhos]),
        np.array([spectrum.entries for spectrum in spectra]),
        np.array(bases),
    )


def ensembles_of(rho, mixing):
    """_ensembles with every slice of the stack taken from the one state rho."""
    return _ensembles(*state_stack([rho] * len(mixing)), mixing)


def assert_slices_are_single_calls(rho, m, mixing):
    weights, states = ensembles_of(rho, mixing)
    assert weights.shape == (len(mixing), m)
    assert states.shape == (len(mixing), m, rho.dim)
    assert not weights.flags.writeable and not states.flags.writeable
    for t, M in enumerate(mixing):
        single = random_ensemble(rho, m, mixing=M)
        assert len(single.weights) == m
        assert_same_bits(weights[t], single.weights.entries)
        assert_same_bits(states[t], single.states)
    return weights, states


@pytest.mark.parametrize("d", range(1, 9))
def test_ensemble_kernel_is_the_single_calls_bit_for_bit(d):
    rng = as_rng(100 + d)
    for rank in range(1, d + 1):
        rho = random_density(d, rng, rank=rank)
        r = int(np.sum(eigen_spectrum(rho)[0].entries > ZERO_TOL))
        for m in (r, r + 1, r + 2):
            mixing = haar_isometry(np.array([ginibre(m, r, rng) for _ in range(5)]))
            assert_slices_are_single_calls(rho, m, mixing)


def test_a_drawn_ensemble_is_the_stacked_slice_of_its_draw():
    rho = random_density(4, as_rng(3), rank=3)
    drawn = random_ensemble(rho, 5, as_rng(9))
    weights, states = ensembles_of(rho, haar_isometry(ginibre(5, 3, as_rng(9))[None]))
    assert_same_bits(weights[0], drawn.weights.entries)
    assert_same_bits(states[0], drawn.states)


def test_a_zero_weight_state_is_e0_in_a_stack_too():
    rho = random_density(3, as_rng(17), rank=2)
    padded = np.vstack([np.eye(2), np.zeros((1, 2))])
    mixing = np.array([padded, haar_isometry(ginibre(3, 2, as_rng(18))), padded[[2, 0, 1]]])
    with np.errstate(all="raise"):
        weights, states = assert_slices_are_single_calls(rho, 3, mixing)
    assert weights[0, 2] == 0.0 and weights[2, 0] == 0.0
    assert np.array_equal(states[0, 2], [1.0, 0.0, 0.0])
    assert np.array_equal(states[2, 0], [1.0, 0.0, 0.0])


def test_stacked_ensemble_errors_name_the_first_bad_slice():
    rho = random_density(2, as_rng(23))
    mixing = np.array([np.eye(2), HADAMARD, 2.0 * np.eye(2), np.ones((2, 2))])
    with pytest.raises(ValueError, match=r"^mixing 2: mixing is not orthonormal"):
        ensembles_of(rho, mixing)
    with pytest.raises(ValueError, match=r"^mixing is not orthonormal"):
        ensembles_of(rho, mixing[2:3])
    with pytest.raises(ValueError, match=r"^mixing 1: mixing entries must be finite"):
        ensembles_of(rho, np.array([np.eye(2), [[math.inf, 0.0], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="^mixing must be 2 x 2$"):
        random_ensemble(rho, 2, mixing=mixing)
    with pytest.raises(ValueError, match="^mixing must be 3 x 2$"):
        random_ensemble(rho, 3, mixing=np.eye(2))


@pytest.mark.parametrize("d,r,m", [(2, 2, 2), (4, 3, 5), (6, 2, 4), (5, 5, 7)])
def test_ensemble_kernel_takes_a_different_state_per_slice(d, r, m):
    # One stack, one (d, r, m): each slice has its own state, spectrum and basis.
    rng = as_rng(40 + d + r + m)
    rhos = [random_density(d, rng, rank=r) for _ in range(5)]
    assert all(int(np.sum(eigen_spectrum(rho)[0].entries > ZERO_TOL)) == r for rho in rhos)
    assert len({eigen_spectrum(rho)[0].entries.tobytes() for rho in rhos}) == len(rhos)
    mixing = haar_isometry(np.array([ginibre(m, r, rng) for _ in rhos]))
    weights, states = _ensembles(*state_stack(rhos), mixing)
    assert weights.shape == (len(rhos), m) and states.shape == (len(rhos), m, d)
    for t, (rho, M) in enumerate(zip(rhos, mixing)):
        single = random_ensemble(rho, m, mixing=M)
        assert_same_bits(weights[t], single.weights.entries)
        assert_same_bits(states[t], single.states)


def test_ensemble_kernel_names_the_slice_that_fails_to_reconstruct():
    rng = as_rng(61)
    rhos = [random_density(3, rng, rank=2) for _ in range(3)]
    matrices, spectra, bases = state_stack(rhos)
    mixing = haar_isometry(np.array([ginibre(3, 2, rng) for _ in rhos]))
    # Slice 1 keeps the spectrum and basis of state 1 but claims the matrix of state 2.
    claimed = matrices[[0, 2, 2]]
    with pytest.raises(ValueError, match=r"^ensemble 1: ensemble reconstructs rho only to"):
        _ensembles(claimed, spectra, bases, mixing)
    with pytest.raises(ValueError, match=r"^ensemble reconstructs rho only to"):
        _ensembles(claimed[1:2], spectra[1:2], bases[1:2], mixing[1:2])


def test_ensemble_holds_one_ensemble():
    plain = Ensemble(weights=[0.5, 0.5], states=np.eye(2))
    assert isinstance(plain.weights, ProbVector) and len(plain.weights) == 2
    assert not plain.states.flags.writeable
    assert plain.check_reconstructs(DensityOperator(np.eye(2) / 2)) == 0.0
    with pytest.raises(ValueError, match="probability vector must be 1-d"):
        Ensemble(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="one row per weight"):
        Ensemble(ProbVector([0.5, 0.5]), np.array([np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="^ensemble states must be finite unit vectors"):
        Ensemble(ProbVector([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 0.5]]))
    rho = DensityOperator(np.diag([0.7, 0.3]))
    spectral = spectral_ensemble(rho)
    swapped = Ensemble(spectral.weights.entries[::-1], spectral.states)
    with pytest.raises(ValueError, match=r"^ensemble reconstructs rho only to 4\.000e-01"):
        swapped.check_reconstructs(rho)
    assert type(spectral.check_reconstructs(rho)) is float


def test_random_ensemble_rejects_a_nan_mixing_as_no_isometry():
    rho = DensityOperator(np.diag([0.7, 0.3]))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^mixing entries must be finite$"):
        random_ensemble(rho, 2, mixing=[[math.nan, 0.0], [0.0, 1.0]])


def test_random_ensemble_takes_m_as_a_count():
    rho = DensityOperator(np.diag([0.7, 0.3]))
    for bad in (2.5, True, math.nan, "2"):
        with pytest.raises(ValueError, match="m must be an integer"):
            random_ensemble(rho, bad, as_rng(1))
    want = random_ensemble(rho, 3, as_rng(1))
    for m in (3.0, np.int64(3)):
        got = random_ensemble(rho, m, as_rng(1))
        assert np.array_equal(got.weights.entries, want.weights.entries)


def test_inf_ensemble_entropy_rejects_negative_trials():
    rho = DensityOperator(np.diag([0.7, 0.3]))
    with pytest.raises(ValueError, match="trials must be nonnegative"):
        inf_ensemble_entropy(rho, make_shannon(), trials=-5)
    value, best = inf_ensemble_entropy(rho, make_shannon(), trials=0)
    assert value == entropy_finite(spectral_ensemble(rho).weights, make_shannon()).value
    assert np.array_equal(best.weights.entries, spectral_ensemble(rho).weights.entries)
