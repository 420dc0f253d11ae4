"""Density operators, spectra, pinching, isometries, and ensembles.

The entropy of a state is the classical entropy of its eigenvalue spectrum,
computed through the same code path as entrokit.classical.entropy_finite, so
the quantum and classical values agree bit for bit.  Dimensions are expected
to stay small (default profile d <= 16); exactness is preferred over scale.

Public functions take and return one object, each by running a private
kernel with a leading stack axis on a stack of one; the audit calls the
kernels on whole stacks, which are cheaper than one state at a time.
DensityOperator and pinch alone still take a (k, d, d) stack, until the
benchmark stops tracing them (ROADMAP item 1); every other function
rejects a stacked DensityOperator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import (
    COMPUTED_FLOOR,
    PRODUCT_TOL,
    STRUCTURE_TOL,
    SUM_TOL,
    ZERO_TOL,
    EntropyResult,
    ProbVector,
    _computed_rows,
    _vector,
    entropy_finite,
    require_finite,
    require_orthonormal,
    require_slices,
)
from .functionals import EntropicFunctional, as_count
from .reporting import INEQ_TOL, AuditEntry


class DensityOperator:
    """A validated density matrix, or a stack of them: Hermitian, unit trace, positive.

    ``matrix`` of shape (d, d) is one state.  Shape (k, d, d) is a stack of
    k states of one dimension, validated together, with one stacked eigvalsh
    for positivity; an error names the first failing state of a stack of
    two or more.  The stack stays public until the benchmark, whose gates
    count eigensolves per constructor call, is reworked (ROADMAP item 1).
    The stored matrix is the Hermitian average (A + A*)/2 of the input,
    which is within the acceptance tolerance of it and keeps eigensolves
    stable.  The eigendecomposition of one state is computed on the first
    eigen_spectrum call and kept for every later one.
    """

    __slots__ = ("matrix", "dim", "_eigen")

    def __init__(self, matrix):
        rho = np.array(matrix, dtype=complex)
        if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2] or rho.size == 0:
            raise ValueError("density operator must be a square matrix or a stack of them")
        require_finite(rho, "density operator entries must be finite", "state")
        dev = np.abs(rho - _adjoint(rho)).max(axis=(-2, -1))
        require_slices(
            dev <= STRUCTURE_TOL,
            lambda t: f"matrix is not Hermitian within {STRUCTURE_TOL} (deviation {dev[t]:.3e})",
            "state",
        )
        rho = 0.5 * (rho + _adjoint(rho))
        trace = np.trace(rho, axis1=-2, axis2=-1).real
        require_slices(
            np.abs(trace - 1.0) <= SUM_TOL,
            lambda t: f"trace is {float(trace[t])!r}, outside 1 +/- {SUM_TOL}",
            "state",
        )
        low = np.linalg.eigvalsh(rho).min(axis=-1)
        require_slices(
            low >= -COMPUTED_FLOOR,
            lambda t: f"eigenvalue {float(low[t])} below the positivity floor -{COMPUTED_FLOOR}",
            "state",
        )
        rho.setflags(write=False)
        self.matrix = rho
        self.dim = rho.shape[-1]
        self._eigen = None

    @property
    def stacked(self) -> bool:
        return self.matrix.ndim == 3

    def __repr__(self) -> str:
        if self.stacked:
            return f"DensityOperator(dim={self.dim}, stack={len(self.matrix)})"
        return f"DensityOperator(dim={self.dim})"


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _one_state(rho: DensityOperator) -> None:
    if rho.stacked:
        raise ValueError(f"expected one density operator, got a stack of {len(rho.matrix)}")


def pure_state(psi) -> DensityOperator:
    """|psi><psi| for a (not necessarily normalized) state vector."""
    v = _vector(psi, "state vector", complex)
    if not np.isfinite(v).all():
        raise ValueError("state vector entries must be finite")
    # Scaled by its largest entry first, so the norm neither underflows nor overflows.
    top = float(np.max(np.abs(v), initial=0.0))
    if top <= 0.0:
        raise ValueError("state vector must be nonzero")
    v = v / top
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def eigen_spectrum(rho: DensityOperator) -> tuple[ProbVector, np.ndarray]:
    """Spectrum in nonincreasing order and matching eigenbasis (columns).

    Eigenvalues at most ZERO_TOL are set to exactly zero, and the spectrum is
    renormalized when its drift then exceeds ZERO_TOL (the computed rule).
    The hard zero matters: structurally null eigenvalues come back from the
    solver as +-1e-16 jitter, and sub-linear phi (x**alpha, alpha < 1)
    amplifies that jitter to ~1e-8 unless it is removed.  Degenerate
    clusters come out of the Hermitian solver already orthonormalized.

    The solve runs once per state: every call returns the same pair, and
    the basis is read-only.
    """
    _one_state(rho)
    if rho._eigen is None:
        spectra, bases = _eigensystems(rho.matrix[None])
        rho._eigen = (ProbVector(spectra[0]), bases[0])
    return rho._eigen


def _eigensystems(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigen_spectrum of each density matrix of a stack by one eigh: spectra as _computed_rows, bases."""
    w, v = np.linalg.eigh(matrices)
    w = w[..., ::-1].copy()
    v = v[..., ::-1].copy()
    w[w <= ZERO_TOL] = 0.0
    v.setflags(write=False)
    return _computed_rows(w), v


def quantum_entropy(rho: DensityOperator, F: EntropicFunctional) -> EntropyResult:
    """h(Tr phi(rho)), evaluated as the classical entropy of the spectrum."""
    spectrum, _ = eigen_spectrum(rho)
    return entropy_finite(spectrum, F)


def conjugate_isometry(rho: DensityOperator, V) -> DensityOperator:
    """V rho V* for an isometry V (D x d with V*V = I_d); entropy is preserved."""
    _one_state(rho)
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2:
        raise ValueError("isometry must be a matrix")
    return DensityOperator(_conjugated(rho.matrix[None], V[None])[0])


def _conjugated(matrices: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V[t] rho[t] V[t]* for (k, d, d) density matrices and (k, D, d) isometries."""
    rows, cols = V.shape[1:]
    if rows < cols:
        raise ValueError("isometry must have at least as many rows as columns")
    if cols != matrices.shape[-1]:
        raise ValueError(f"isometry maps dimension {cols}, state has {matrices.shape[-1]}")
    require_orthonormal(V, "isometry", "state")
    return V @ matrices @ _adjoint(V)


def haar_isometry(g) -> np.ndarray:
    """Orthonormal columns from a complex Gaussian matrix, or from each of a stack.

    QR of ``g`` (rows >= cols) with the phases of R's diagonal moved into Q,
    which makes the square case Haar-distributed.  Slice t of a stacked
    result is, bit for bit, the call on g[t].
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[-2] < g.shape[-1]:
        raise ValueError("an isometry needs rows >= cols")
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A rows x cols complex Gaussian from one standard_normal((2, rows, cols)) draw, real part first."""
    return _complex_pairs(rng.standard_normal((2, rows, cols)))


def _complex_pairs(z: np.ndarray) -> np.ndarray:
    """z[..., 0, :, :] + i z[..., 1, :, :]: the matrix of each (2, rows, cols) real pair, real part first."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def random_isometry(rows: int, cols: int, rng=None) -> np.ndarray:
    """A rows x cols matrix with orthonormal columns, rows >= cols.

    haar_isometry of ginibre(rows, cols).  ``rng`` is a Generator, used as
    is, or a seed for np.random.default_rng.
    """
    return haar_isometry(ginibre(rows, cols, np.random.default_rng(rng)))


def pinch(rho: DensityOperator, basis) -> ProbVector | np.ndarray:
    """Diagonal of rho in an orthonormal basis (columns are basis vectors).

    For a stack of k states, ``basis`` is a (k, d, d) stack of bases, one
    per state, and the result a read-only (k, d) array, each row after
    from_computation's rule; row t is, bit for bit, the single call on
    (state t, basis[t]).  The stacked form stays public until the benchmark
    stops tracing this name (ROADMAP item 1).
    """
    B = np.asarray(basis, dtype=complex)
    if B.shape != rho.matrix.shape:
        raise ValueError(f"basis must be {' x '.join(map(str, rho.matrix.shape))}")
    require_orthonormal(B, "basis", "state")
    diag = np.einsum("...ij,...jk,...ki->...i", _adjoint(B), rho.matrix, B).real
    return _computed_rows(diag) if diag.ndim == 2 else ProbVector.from_computation(diag)


def pinching_inequality_audit(
    rho: DensityOperator,
    basis,
    F: EntropicFunctional,
    tolerance: float = INEQ_TOL,
) -> AuditEntry:
    """Record H(pinched diagonal) - H(rho), which must be >= -tolerance.

    A stack is rejected by quantum_entropy, its first call.
    """
    lhs = quantum_entropy(rho, F).value
    rhs = entropy_finite(pinch(rho, basis), F).value
    return AuditEntry.check(
        case="pinching-inequality",
        margin=rhs - lhs,
        tolerance=tolerance,
        functional=F.name,
        dim=rho.dim,
    )


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted pure states; row i of ``states`` is the unit vector of weight i.

    ``weights`` may be given as any probability vector; it is stored as a
    ProbVector, and ``states`` as a read-only (m, d) copy.  Its mixture
    sum_i w_i |psi_i><psi_i| is compared with a state by check_reconstructs.
    """

    weights: ProbVector
    states: np.ndarray

    def __post_init__(self):
        weights = self.weights if isinstance(self.weights, ProbVector) else ProbVector(self.weights)
        states = np.array(self.states, dtype=complex)
        if states.ndim != 2 or len(states) != len(weights):
            raise ValueError("states must be one row per weight")
        message = f"ensemble states must be finite unit vectors within {STRUCTURE_TOL}"
        require_finite(states, message, "ensemble")
        if not float(np.abs(np.linalg.norm(states, axis=-1) - 1.0).max()) <= STRUCTURE_TOL:
            raise ValueError(message)
        states.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        """The number m of pure states in the ensemble."""
        return len(self.weights)

    def check_reconstructs(self, rho: DensityOperator) -> float:
        """Largest entry of |sum_i w_i |psi_i><psi_i| - rho|; ValueError if it exceeds PRODUCT_TOL."""
        _one_state(rho)
        return float(_require_reconstructs(self.weights.entries, self.states, rho.matrix))


def _require_reconstructs(weights: np.ndarray, states: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Largest entry of |sum_i w_i |psi_i><psi_i| - rho| per ensemble (one or a stack), each <= PRODUCT_TOL."""
    mixture = (states.swapaxes(-1, -2) * weights[..., None, :]) @ states.conj()
    dev = np.abs(mixture - rho).max(axis=(-2, -1))
    message = f"ensemble reconstructs rho only to {{:.3e}} (> {PRODUCT_TOL})"
    require_slices(dev <= PRODUCT_TOL, lambda t: message.format(dev[t]), "ensemble")
    return dev


def _rank(spectrum: ProbVector) -> int:
    """The number of eigenvalues above ZERO_TOL in a spectrum from eigen_spectrum."""
    return int(np.sum(spectrum.entries > ZERO_TOL))


def random_ensemble(rho: DensityOperator, m: int, rng=None, mixing=None) -> Ensemble:
    """Sample a size-m pure-state ensemble for rho via an isometric mixing.

    With r the number of eigenvalues above ZERO_TOL, any m x r matrix M
    with M*M = I turns the scaled eigenvectors sqrt(lambda_i) v_i into an
    ensemble of m states averaging back to rho; M defaults to a random
    isometry.  Pass mixing=np.eye(r) to obtain the spectral decomposition.
    Requires m >= r.  A state of zero weight is reported as e_0.
    """
    m = as_count(m, "m")
    spectrum, basis = eigen_spectrum(rho)
    r = _rank(spectrum)
    if m < r:
        raise ValueError(f"ensemble size m={m} is below the rank {r}")
    M = random_isometry(m, r, rng) if mixing is None else np.asarray(mixing, dtype=complex)
    if M.shape != (m, r):
        raise ValueError(f"mixing must be {m} x {r}")
    weights, states = _ensembles(rho.matrix[None], spectrum.entries[None], basis[None], M[None])
    return Ensemble(ProbVector(weights[0]), states[0])


def _ensembles(matrices, spectra, bases, mixings) -> tuple[np.ndarray, np.ndarray]:
    """Weights, as _computed_rows, and states of random_ensemble(state t, m, mixing=mixings[t]).

    State t, which may differ from slice to slice, is given as its (k, d, d)
    density matrix and its (k, d) spectrum and (k, d, d) basis from
    eigen_spectrum; the (k, m, r) mixings share r, the rank of every state.
    """
    r = mixings.shape[-1]
    require_orthonormal(mixings, "mixing", "mixing")
    scaled = bases[..., :r] * np.sqrt(spectra[:, None, :r])
    tilde = mixings @ scaled.swapaxes(-1, -2)  # rows are unnormalized ensemble states
    weights = np.linalg.norm(tilde, axis=-1) ** 2
    kept = weights > 1e-30
    # The divisor is 1 where the weight is dropped, so no 0/0 is ever taken.
    norms = np.sqrt(np.where(kept, weights, 1.0))[..., None]
    states = np.where(kept[..., None], tilde / norms, np.eye(1, matrices.shape[-1])[0])
    states.setflags(write=False)
    weights = _computed_rows(weights)
    _require_reconstructs(weights, states, matrices)
    return weights, states


def spectral_ensemble(rho: DensityOperator) -> Ensemble:
    """The eigendecomposition of rho presented as an ensemble."""
    r = _rank(eigen_spectrum(rho)[0])
    return random_ensemble(rho, r, mixing=np.eye(r))


def inf_ensemble_entropy(
    rho: DensityOperator,
    F: EntropicFunctional,
    trials: int = 200,
    rng_seed=0,
) -> tuple[float, Ensemble]:
    """Minimize H(weights) over sampled ensembles of rho.

    Each trial draws an ensemble of size m in [r, r + 2], r the rank.  The
    spectral decomposition is always trial 0, and since every ensemble
    weight vector is majorized by the spectrum it attains the infimum; the
    returned value therefore matches quantum_entropy(rho, F) within 1e-9.
    """
    trials = as_count(trials, "trials")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rng = np.random.default_rng(rng_seed)
    r = _rank(eigen_spectrum(rho)[0])
    best_ensemble = spectral_ensemble(rho)
    best_value = entropy_finite(best_ensemble.weights, F).value
    for _ in range(trials):
        m = int(rng.integers(r, r + 3))
        candidate = random_ensemble(rho, m, rng=rng)
        value = entropy_finite(candidate.weights, F).value
        if value < best_value:
            best_value = value
            best_ensemble = candidate
    return best_value, best_ensemble
