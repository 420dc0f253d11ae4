"""Convex polytope state spaces with exact decomposition entropies.

A model is the convex hull of finitely many extreme points in R^d.  The
entropy of a state is the infimum of h(sum_k phi(w_k)) over its convex
decompositions into extreme points.  The objective is a monotone transform
of a sum that is concave (or convex) in the weights, so the optimum over the
decomposition polytope sits at one of its extreme points; those are exactly
the basic decompositions, the ones supported on affinely independent vertex
subsets of size at most d + 1.  Enumerating them is exact and cheap at the
supported scale (README, "Why basic decompositions suffice").

Each subset size is built into stacked systems [V_S^T; 1] and screened by
batched SVDs.  Only the subsets the screen cannot rule out reach the exact
solve, which alone accepts a decomposition and supplies its weights: one
stacked rank test per screen block on the same systems, then lstsq on each
kept subset of full rank.  The extremality check at model
construction first tries a separating hyperplane per vertex; a vertex it
certifies is one the exact solve provably rejects over every support, so
only the others are screened and solved.  Decompositions are scored with
one entropy_rows call per support length, never one call per decomposition.

A model keeps the basic decompositions of the last state it was asked
about, so the entropy and the majorant of one state share one enumeration.
The entry is safe to share because the vertices, the Decomposition objects
and their weights are all read-only, and every caller gets a fresh list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .classical import entropy_table, majorant_index, majorizes
from .functionals import EntropicFunctional

PIVOT_TOL = 1e-10
RESIDUAL_TOL = 1e-9
WEIGHT_FLOOR = 1e-12
VERTEX_CAP = 12
DIM_CAP = 4
# Screen slack.  On a system with s_min/s_max >= SCREEN_COND, lstsq truncates
# no singular value, and it and the batched pseudo-inverse are both backward
# stable: for weights of norm <= 1 (any the exact solve accepts) they differ
# by about (s_max/s_min) * eps <= 1e6 * eps ~ 2e-10, and their residuals by
# about s_max * eps.  Worse-conditioned systems skip the screen.
SCREEN_COND = 1e-6
SCREEN_RESIDUAL = 1e3 * RESIDUAL_TOL
SCREEN_WEIGHT = 1e-6
# Subsets per batched SVD: at the caps one block holds every subset of a
# size (at most C(12, 5) = 792); raising a cap keeps memory bounded.
SCREEN_BLOCK = 4096
# Largest coordinate magnitude at which the hyperplane certificate of
# _certified_extreme holds despite rounding; larger models skip it.
CERTIFY_SCALE = 1e8


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex weights over a support of vertex indices."""

    support: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(self.support) != w.size or w.size == 0:
            raise ValueError("support and weights must have matching nonzero length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support indices must be distinct")
        # Both tests are written to be false for NaN, so NaN weights are rejected.
        if not (float(w.min()) > WEIGHT_FLOOR):
            raise ValueError(f"weights must exceed {WEIGHT_FLOOR}")
        if not (abs(float(w.sum()) - 1.0) <= 1e-10):
            raise ValueError("weights must sum to 1 within 1e-10")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))

    def barycenter(self, model: "ConvexModel") -> np.ndarray:
        return self.weights @ model.vertices[list(self.support)]


def _systems(V: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """The systems [V[S]^T; 1] for the row-index ``subsets`` of V, stacked as (count, d + 1, k)."""
    (count, k), d = subsets.shape, V.shape[1]
    a = np.ones((count, d + 1, k))
    a[:, :d, :] = V[subsets].transpose(0, 2, 1)
    return a


def _exact_solutions(a: np.ndarray, x: np.ndarray):
    """(position, weights) of each stacked system in ``a`` that writes x, in order.

    The exact solve, which alone accepts a support and supplies its weights.
    It rejects affinely dependent supports (rank below the support size at
    pivot tolerance PIVOT_TOL), inconsistent systems (lstsq residual above
    RESIDUAL_TOL), and solutions touching the weight floor; those belong to
    a smaller support that is enumerated separately.  The rank test is one
    stacked matrix_rank call: numpy's stacked SVD gives each matrix bit for
    bit the singular values of a call on that matrix alone.
    """
    if not len(a):
        return
    b = np.concatenate([x, [1.0]])
    full = np.linalg.matrix_rank(a, tol=PIVOT_TOL) == a.shape[2]
    for c in np.flatnonzero(full).tolist():
        w, *_ = np.linalg.lstsq(a[c], b, rcond=None)
        if float(np.max(np.abs(a[c] @ w - b))) > RESIDUAL_TOL or float(w.min()) <= WEIGHT_FLOOR:
            continue
        yield c, w


def _subset_blocks(n: int, k: int):
    """The k-subsets of range(n) in lex order, as (<= SCREEN_BLOCK, k) arrays."""
    combos = itertools.combinations(range(n), k)
    while block := list(itertools.islice(combos, SCREEN_BLOCK)):
        yield np.array(block, dtype=np.intp)


def _screen(a: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Which of the stacked systems ``a`` (from _systems) may write each row of ``targets``.

    Solves a[c] w = [t; 1] for every system c and every target t through one
    batched SVD.  ``keep[c, j]`` is False only when the exact solve certainly
    rejects system c for target j: the pseudo-inverse solution leaves a
    residual above SCREEN_RESIDUAL * s_max or a weight below -SCREEN_WEIGHT.
    Systems with s_min/s_max below SCREEN_COND are always kept.  As
    s_max >= 1 (the row of ones), every system judged here passes the rank
    test at PIVOT_TOL.
    """
    b = np.vstack([targets.T, np.ones((1, targets.shape[0]))])
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    ill = s[:, -1] < SCREEN_COND * s[:, 0]
    s = np.where(ill[:, None], 1.0, s)
    w = vh.transpose(0, 2, 1) @ ((u.transpose(0, 2, 1) @ b) / s[:, :, None])
    residual = np.abs(a @ w - b).max(axis=1)
    keep = (residual <= SCREEN_RESIDUAL * s[:, :1]) & (w.min(axis=1) > -SCREEN_WEIGHT)
    return keep | ill[:, None]


def _certified_extreme(V: np.ndarray) -> np.ndarray:
    """Which vertices a separating hyperplane proves extreme for the exact solve.

    For an anchor a (the origin, then the vertex centroid), vertex i is
    certified when c = v_i - a gives
        m = c.v_i - M > SCREEN_RESIDUAL * (|c|_1 + |M|),  M = max_{j != i} c.v_j.
    Then the exact solve rejects v_i over every support S of other vertices.
    Suppose it accepted weights w.  They are positive, and both its residual
    tests use RESIDUAL_TOL, so with r = sum_S w_j v_j - v_i and
    s = sum_S w_j - 1 we have |r|_inf <= t and |s| <= t, where t is
    RESIDUAL_TOL plus the rounding of the computed residual.  Hence
        c.v_i + c.r = sum_S w_j c.v_j <= (1 + s) M,
    so m <= s M - c.r <= t (|M| + |c|_1).  As 0 < w_j, sum w_j <= 1 + t and
    supports hold at most d + 1 <= 5 points, the residual's rounding is below
    12 eps max|V|, and the computed m and M are off by at most
    2 d eps |c|_1 max|V|.  With max|V| <= CERTIFY_SCALE and d <= DIM_CAP,
    (12 + 2 d) eps max|V| < 4.5e-7 < SCREEN_RESIDUAL - RESIDUAL_TOL, so a
    certified margin exceeds every margin an accepted support allows.
    """
    n = V.shape[0]
    certified = np.zeros(n, dtype=bool)
    if n < 2 or float(np.abs(V).max()) > CERTIFY_SCALE:
        return certified
    for anchor in (np.zeros(V.shape[1]), V.mean(axis=0)):
        C = V - anchor
        G = C @ V.T
        own = G.diagonal().copy()
        np.fill_diagonal(G, -np.inf)
        M = G.max(axis=1)
        certified |= own - M > SCREEN_RESIDUAL * (np.abs(C).sum(axis=1) + np.abs(M))
    return certified


def _first_non_extreme(V: np.ndarray) -> int | None:
    """Smallest index of a vertex that is a convex combination of the others.

    Vertices _certified_extreme proves extreme are skipped; the rest go
    through the screen and the exact solve, in index order, so the answer is
    that of the exact solve on every vertex.
    """
    n, d = V.shape
    uncertified = np.flatnonzero(~_certified_extreme(V))
    if not uncertified.size:
        return None
    screens = []
    for k in range(1, min(n - 1, d + 1) + 1):
        for subsets in _subset_blocks(n, k):
            a = _systems(V, subsets)
            keep = _screen(a, V[uncertified])
            keep &= ~np.any(subsets[:, :, None] == uncertified, axis=1)  # a vertex never counts itself
            screens.append((a, keep))
    for t, i in enumerate(uncertified.tolist()):
        for a, keep in screens:
            if next(_exact_solutions(a[keep[:, t]], V[i]), None) is not None:
                return i
    return None


class ConvexModel:
    """Convex hull of validated extreme points (rows of ``vertices``).

    At most VERTEX_CAP vertices in at most DIM_CAP dimensions, which keeps the
    subset enumeration exact and fast.  Each vertex is verified extreme at
    construction by checking it has no convex decomposition over the
    remaining vertices; check_extreme=False skips that check for inputs
    known to be extreme.

    The model holds one cache entry: the basic decompositions of the last
    state enumerate_basic_decompositions was asked about, keyed by the
    state's bytes.  It relies on the vertices being read-only.
    """

    __slots__ = ("vertices", "_decompositions")

    def __init__(self, vertices, check_extreme: bool = True):
        V = np.array(vertices, dtype=float)
        if V.ndim != 2:
            raise ValueError("vertices must be a 2-d array, one point per row")
        n, d = V.shape
        if n < 1 or d < 1:
            raise ValueError("model needs at least one vertex and one dimension")
        if n > VERTEX_CAP:
            raise ValueError(f"{n} vertices exceed the cap {VERTEX_CAP}")
        if d > DIM_CAP:
            raise ValueError(f"ambient dimension {d} exceeds the cap {DIM_CAP}")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        if check_extreme:
            i = _first_non_extreme(V)
            if i is not None:
                raise ValueError(f"vertex {i} is a convex combination of the others")
        V.setflags(write=False)
        self.vertices = V
        self._decompositions = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def is_simplex(self) -> bool:
        n, d = self.vertices.shape
        if n != d + 1:
            return False
        a = np.vstack([self.vertices.T, np.ones((1, n))])
        return int(np.linalg.matrix_rank(a, tol=PIVOT_TOL)) == n

    def __repr__(self) -> str:
        return f"ConvexModel(n={self.n_vertices}, dim={self.ambient_dim})"


def _iter_solutions(V: np.ndarray, x: np.ndarray, d: int):
    # Lexicographic subset order fixes tie-breaking everywhere downstream.
    n = V.shape[0]
    for k in range(1, min(n, d + 1) + 1):
        for subsets in _subset_blocks(n, k):
            a = _systems(V, subsets)
            keep = _screen(a, x[None, :])[:, 0]
            kept = subsets[keep]
            for c, w in _exact_solutions(a[keep], x):
                yield tuple(kept[c].tolist()), w


def _check_point(model: ConvexModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.ambient_dim:
        raise ValueError(f"state has dimension {x.size}, model is {model.ambient_dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("state must be finite")
    return x


def membership(model: ConvexModel, x) -> Decomposition | None:
    """First basic decomposition of x, or None when x is outside the hull."""
    x = _check_point(model, x)
    found = next(_iter_solutions(model.vertices, x, model.ambient_dim), None)
    if found is None:
        return None
    support, w = found
    return Decomposition(support=support, weights=w)


def enumerate_basic_decompositions(model: ConvexModel, x) -> list[Decomposition]:
    """All decompositions of x on affinely independent supports, in lex order.

    The result for the last state asked about is kept on the model; asking
    again for the same state returns a new list of the same Decomposition
    objects without enumerating.
    """
    x = _check_point(model, x)
    key = x.tobytes()
    if model._decompositions is None or model._decompositions[0] != key:
        decs = tuple(
            Decomposition(support=s, weights=w)
            for s, w in _iter_solutions(model.vertices, x, model.ambient_dim)
        )
        model._decompositions = (key, decs)
    return list(model._decompositions[1])


def gpt_entropy(
    model: ConvexModel, x, F: EntropicFunctional
) -> tuple[float, Decomposition | None]:
    """Minimum of h(sum phi(weights)) over basic decompositions of x.

    Returns (+inf, None) when x is outside the hull.  Ties are broken by
    the lexicographically first support.
    """
    return minimize_entropy(enumerate_basic_decompositions(model, x), F)


def minimize_entropy(
    decs: list[Decomposition], F: EntropicFunctional
) -> tuple[float, Decomposition | None]:
    """Minimum of h(sum phi(weights)) over ``decs``, and the first that attains it.

    Each weight vector is taken through ProbVector.from_computation's rule,
    and all of one support length are scored in one entropy_rows call
    (entropy_table with computed=True); first_least picks the minimum.
    Returns (+inf, None) for an empty list.  Enumerate once and call this per
    functional to evaluate several functionals on one state.
    """
    if not decs:
        return np.inf, None
    values = entropy_table([d.weights for d in decs], [F], computed=True)[:, 0]
    i = int(first_least(values))
    return (np.inf, None) if i < 0 else (float(values[i]), decs[i])


def first_least(values: np.ndarray) -> np.ndarray:
    """Along axis 0, the first position holding the least value below +inf, or -1.

    NaN never counts.  For a 2-d array the pick is made in each column.
    """
    below = np.where(values < np.inf, values, np.inf)
    return np.where(below.min(axis=0) < np.inf, below.argmin(axis=0), -1)


def gpt_majorant(model: ConvexModel, x) -> np.ndarray | None:
    """A basic weight spectrum majorizing every other one, if it exists.

    Spectra are the sorted weight vectors of the basic decompositions,
    zero-padded as needed.  Returns None when x is outside the hull or no
    spectrum dominates all others.
    """
    decs = enumerate_basic_decompositions(model, x)
    if not decs:
        return None
    spectra = [np.sort(d.weights)[::-1] for d in decs]
    best = majorant_index(spectra)
    return None if best is None else spectra[best]


def gpt_majorization(model: ConvexModel, x, y) -> bool | None:
    """Whether x majorizes y, judged by their majorant spectra.

    Returns True iff the spectrum of y is majorized by the spectrum of x
    (argument order matches classical.majorizes), None when either state
    lacks a majorant.
    """
    sx = gpt_majorant(model, x)
    sy = gpt_majorant(model, y)
    if sx is None or sy is None:
        return None
    return majorizes(sx, sy)
