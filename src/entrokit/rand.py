"""Seedable random objects used by the audit suites and tests."""

from __future__ import annotations

import numpy as np

from .classical import ProbVector
from .functionals import as_count
from .gpt import PIVOT_TOL, ConvexModel, _norm
from .quantum import DensityOperator, ginibre, random_isometry  # ginibre and random_isometry are re-exported

SPHERE_MIN_GAP = 0.05  # least distance between two sphere-model vertices


def as_rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed), which returns a Generator unaltered, as quantum reads ``rng``."""
    return np.random.default_rng(seed)


def random_unitary(d: int, rng=None) -> np.ndarray:
    """Haar-distributed unitary: the square case of random_isometry."""
    return random_isometry(d, d, rng)


def random_state_vector(d: int, rng=None) -> np.ndarray:
    rng = as_rng(rng)
    v = ginibre(d, 1, rng).ravel()
    return v / np.linalg.norm(v)


def density_from_factor(g) -> np.ndarray:
    """G G* / Tr(G G*) for one factor G, or for each of a (k, d, r) stack.

    Slice t of a stacked result is, bit for bit, the call on g[t].
    """
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_density(d: int, rng=None, rank: int | None = None) -> DensityOperator:
    """rho = G G* / Tr(G G*) for G = ginibre(d, ``rank``), the rank read by as_count and d by default."""
    r = d if rank is None else as_count(rank, "rank")
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in [1, {d}], got {r}")
    return DensityOperator(density_from_factor(ginibre(d, r, as_rng(rng))))


def random_prob_vector(n: int, rng=None) -> ProbVector:
    """Uniform draw from the simplex."""
    rng = as_rng(rng)
    return ProbVector.from_computation(rng.dirichlet(np.ones(n)))


def _sphere_points(n_vertices: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors in R^dim, pairwise at least SPHERE_MIN_GAP apart: random_sphere_model's vertices."""
    for _ in range(256):
        pts = rng.standard_normal((n_vertices, dim))
        pts = pts / _norm(pts, 1)[:, None]
        gaps = _norm(pts[:, None, :] - pts[None, :, :], 2) + np.eye(n_vertices)  # the diagonal is ignored
        if float(gaps.min()) >= SPHERE_MIN_GAP:
            return pts
    raise RuntimeError("failed to place well-separated sphere vertices")


def random_sphere_model(n_vertices: int, dim: int, rng=None) -> ConvexModel:
    """A polytope whose vertices sit on the unit sphere, hence all extreme, each certified without a subset solve."""
    return ConvexModel(_sphere_points(n_vertices, dim, as_rng(rng)))


def random_simplex_model(dim: int, rng=None) -> ConvexModel:
    """dim + 1 affinely independent random vertices."""
    rng = as_rng(rng)
    for _ in range(256):
        pts = rng.standard_normal((dim + 1, dim))
        diffs = pts[1:] - pts[0]
        if np.linalg.matrix_rank(diffs, tol=PIVOT_TOL) == dim:
            return ConvexModel(pts)
    raise RuntimeError("failed to draw an affinely independent simplex")


def random_interior_point(model: ConvexModel, rng=None) -> np.ndarray:
    """A hull point sampled by Dirichlet weights over all vertices."""
    rng = as_rng(rng)
    w = rng.dirichlet(np.ones(model.n_vertices))
    return w @ model.vertices
