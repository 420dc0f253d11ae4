"""Density operators, spectra, pinching, isometries, and ensembles.

The entropy of a state is the classical entropy of its eigenvalue spectrum,
computed through the same code path as entrokit.classical.entropy_finite, so
the quantum and classical values agree bit for bit.  Dimensions are expected
to stay small (default profile d <= 16); exactness is preferred over scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import EntropyResult, ProbVector, as_count, entropy_finite
from .functionals import EntropicFunctional
from .reporting import AuditEntry

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-9
ISOMETRY_TOL = 1e-8
BASIS_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-8
STATE_NORM_TOL = 1e-10
RANK_CUTOFF = 1e-12


class DensityOperator:
    """A validated density matrix: Hermitian, unit trace, positive.

    The stored matrix is the Hermitian average (A + A*)/2 of the input, which
    is within the acceptance tolerance of it and keeps eigensolves stable.
    The eigendecomposition is computed on the first eigen_spectrum call and
    kept for every later one.
    """

    __slots__ = ("matrix", "dim", "_eigen")

    def __init__(self, matrix):
        rho = np.array(matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density operator must be a square matrix")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density operator entries must be finite")
        dev = float(np.max(np.abs(rho - rho.conj().T)))
        if dev > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL} (deviation {dev:.3e})")
        rho = 0.5 * (rho + rho.conj().T)
        trace = complex(np.trace(rho)).real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {trace!r}, outside 1 +/- {TRACE_TOL}")
        low = float(np.linalg.eigvalsh(rho).min())
        if low < -EIGENVALUE_FLOOR:
            raise ValueError(f"eigenvalue {low} below the positivity floor -{EIGENVALUE_FLOOR}")
        rho.setflags(write=False)
        self.matrix = rho
        self.dim = rho.shape[0]
        self._eigen = None

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def pure_state(psi) -> DensityOperator:
    """|psi><psi| for a (not necessarily normalized) state vector."""
    v = np.asarray(psi, dtype=complex).ravel()
    norm = float(np.linalg.norm(v))
    if norm <= 0.0:
        raise ValueError("state vector must be nonzero")
    v = v / norm
    return DensityOperator(np.outer(v, v.conj()))


def eigen_spectrum(rho: DensityOperator) -> tuple[ProbVector, np.ndarray]:
    """Spectrum in nonincreasing order and matching eigenbasis (columns).

    Eigenvalues below RANK_CUTOFF are set to exactly zero, and
    ProbVector.from_computation renormalizes when the resulting drift exceeds
    PARTIAL_SUM_TOL.  The hard zero matters: structurally null eigenvalues
    come back from the solver as +-1e-16 jitter, and sub-linear phi
    (x**alpha, alpha < 1) amplifies that jitter to ~1e-8 unless it is
    removed.  Degenerate clusters come out of the Hermitian solver already
    orthonormalized.

    The solve runs once per state: every call returns the same pair, and the
    basis is read-only.
    """
    if rho._eigen is None:
        w, v = np.linalg.eigh(rho.matrix)
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
        w[w < RANK_CUTOFF] = 0.0
        v.setflags(write=False)
        rho._eigen = (ProbVector.from_computation(w), v)
    return rho._eigen


def quantum_entropy(rho: DensityOperator, F: EntropicFunctional) -> EntropyResult:
    """h(Tr phi(rho)), evaluated as the classical entropy of the spectrum."""
    spectrum, _ = eigen_spectrum(rho)
    return entropy_finite(spectrum, F)


def conjugate_isometry(rho: DensityOperator, V) -> DensityOperator:
    """V rho V* for an isometry V (D x d with V*V = I_d); entropy is preserved."""
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2:
        raise ValueError("isometry must be a matrix")
    rows, cols = V.shape
    if rows < cols:
        raise ValueError("isometry must have at least as many rows as columns")
    if cols != rho.dim:
        raise ValueError(f"isometry maps dimension {cols}, state has {rho.dim}")
    dev = float(np.max(np.abs(V.conj().T @ V - np.eye(cols))))
    if dev > ISOMETRY_TOL:
        raise ValueError(f"V*V deviates from identity by {dev:.3e} (> {ISOMETRY_TOL})")
    return DensityOperator(V @ rho.matrix @ V.conj().T)


def random_isometry(rows: int, cols: int, rng=None) -> np.ndarray:
    """A rows x cols matrix with orthonormal columns, rows >= cols.

    QR of a complex Gaussian with the phases of R's diagonal moved into Q,
    which makes the square case Haar-distributed.  ``rng`` is a Generator,
    used as is, or a seed for np.random.default_rng.
    """
    if rows < cols:
        raise ValueError("an isometry needs rows >= cols")
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def pinch(rho: DensityOperator, basis) -> ProbVector:
    """Diagonal of rho in an orthonormal basis (columns are basis vectors)."""
    B = np.asarray(basis, dtype=complex)
    if B.shape != (rho.dim, rho.dim):
        raise ValueError(f"basis must be {rho.dim} x {rho.dim}")
    dev = float(np.max(np.abs(B.conj().T @ B - np.eye(rho.dim))))
    if dev > BASIS_TOL:
        raise ValueError(f"basis is not orthonormal within {BASIS_TOL} (deviation {dev:.3e})")
    diag = np.einsum("ij,jk,ki->i", B.conj().T, rho.matrix, B).real
    return ProbVector.from_computation(diag)


def pinching_inequality_audit(
    rho: DensityOperator,
    basis,
    F: EntropicFunctional,
    tolerance: float = 1e-9,
) -> AuditEntry:
    """Record H(pinched diagonal) - H(rho), which must be >= -tolerance."""
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
    """Weighted pure states; rows of ``states`` are unit vectors."""

    weights: ProbVector
    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2 or states.shape[0] != len(self.weights):
            raise ValueError("states must be one row per weight")
        norms = np.linalg.norm(states, axis=1)
        # Written to be false for NaN, so non-finite states are rejected too.
        if not (float(np.max(np.abs(norms - 1.0))) <= STATE_NORM_TOL):
            raise ValueError(f"ensemble states must be finite unit vectors within {STATE_NORM_TOL}")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return len(self.weights)

    def reconstruct(self) -> np.ndarray:
        w = self.weights.entries
        return (self.states.T * w) @ self.states.conj()

    def check_reconstructs(self, rho: DensityOperator) -> float:
        dev = float(np.max(np.abs(self.reconstruct() - rho.matrix)))
        if dev > RECONSTRUCTION_TOL:
            raise ValueError(f"ensemble reconstructs rho only to {dev:.3e} (> {RECONSTRUCTION_TOL})")
        return dev


def random_ensemble(rho: DensityOperator, m: int, rng=None, mixing=None) -> Ensemble:
    """Sample a size-m pure-state ensemble for rho via an isometric mixing.

    With r the number of eigenvalues above RANK_CUTOFF, any m x r matrix M
    with M*M = I turns the scaled eigenvectors sqrt(lambda_i) v_i into an
    ensemble of m states averaging back to rho; M defaults to a random
    isometry.  Pass mixing=np.eye(r) to obtain the spectral decomposition.
    Requires m >= r.
    """
    spectrum, basis = eigen_spectrum(rho)
    lam = spectrum.entries
    r = int(np.sum(lam > RANK_CUTOFF))
    if r == 0:
        raise ValueError("state has no eigenvalue above the rank cutoff")
    if m < r:
        raise ValueError(f"ensemble size m={m} is below the rank {r}")
    if mixing is None:
        M = random_isometry(m, r, rng)
    else:
        M = np.asarray(mixing, dtype=complex)
        if M.shape != (m, r):
            raise ValueError(f"mixing must be {m} x {r}")
        dev = float(np.max(np.abs(M.conj().T @ M - np.eye(r))))
        if dev > ISOMETRY_TOL:
            raise ValueError(f"mixing is not an isometry within {ISOMETRY_TOL}")
    scaled = basis[:, :r] * np.sqrt(lam[:r])
    tilde = M @ scaled.T  # rows are unnormalized ensemble states
    weights = np.linalg.norm(tilde, axis=1) ** 2
    states = np.empty_like(tilde)
    for k in range(m):
        w = weights[k]
        if w > 1e-30:
            states[k] = tilde[k] / np.sqrt(w)
        else:
            states[k] = 0.0
            states[k, 0] = 1.0
    ensemble = Ensemble(weights=ProbVector.from_computation(weights), states=states)
    ensemble.check_reconstructs(rho)
    return ensemble


def spectral_ensemble(rho: DensityOperator) -> Ensemble:
    """The eigendecomposition of rho presented as an ensemble."""
    spectrum, _ = eigen_spectrum(rho)
    r = int(np.sum(spectrum.entries > RANK_CUTOFF))
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
    rng = np.random.default_rng(rng_seed)
    spectrum, _ = eigen_spectrum(rho)
    r = int(np.sum(spectrum.entries > RANK_CUTOFF))
    best_ensemble = spectral_ensemble(rho)
    best_value = entropy_finite(best_ensemble.weights, F).value
    for _ in range(max(0, as_count(trials, "trials"))):
        m = int(rng.integers(r, r + 3))
        candidate = random_ensemble(rho, m, rng=rng)
        value = entropy_finite(candidate.weights, F).value
        if value < best_value:
            best_value = value
            best_ensemble = candidate
    return best_value, best_ensemble
