"""Convex polytope state spaces with exact decomposition entropies.

A model is the convex hull of finitely many extreme points in R^d.  The
entropy of a state is the infimum of h(sum_k phi(w_k)) over its convex
decompositions into extreme points.  The objective is a monotone transform
of a sum that is concave (or convex) in the weights, so the optimum over the
decomposition polytope sits at one of its extreme points; those are exactly
the basic decompositions, the ones supported on affinely independent vertex
subsets of size at most d + 1.  Enumerating them is exact and cheap at the
supported scale (README, "Why basic decompositions suffice").

Every state is first screened through the model's (d + 1)-vertex simplices,
or those of its affine hull when it is flat: barycentric coordinates prove
most supports unable to write it (_screen).  Only the rest reach the exact
solve (stacked rank test, lstsq), which alone accepts a decomposition and
supplies its weights.  Model construction screens only the vertices no
separating hyperplane certifies, all at once.  Each support length is
scored in one entropy_rows call.

A model keeps the basic decompositions of the last state it was asked
about, so the entropy and the majorant of one state share one enumeration.
The entry is safe to share because the vertices, the Decomposition objects
and their weights are all read-only, and every caller gets a fresh list.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .classical import entropy_table, majorant_index, majorizes
from .functionals import EntropicFunctional

PIVOT_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# Coordinates below SOLVE_SCALE are solved as given; larger ones are centered
# and scaled first (_screened_solutions).
SOLVE_SCALE = 2.0**16
WEIGHT_FLOOR = 1e-12
VERTEX_CAP = 12
DIM_CAP = 4
# Screen slack (the bounds are in _screen).
SCREEN_COND = 1e-6
SCREEN_RESIDUAL = 1e3 * RESIDUAL_TOL
# Largest coordinate magnitude at which the hyperplane certificate of
# _certified_extreme holds despite rounding and s_i; larger models skip it.
CERTIFY_SCALE = 2.0**24


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
        if not (abs(float(w.sum()) - 1.0) <= RESIDUAL_TOL):
            raise ValueError(f"weights must sum to 1 within {RESIDUAL_TOL}")
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


@functools.lru_cache(maxsize=VERTEX_CAP * (DIM_CAP + 1))
def _subsets(n: int, k: int) -> tuple:
    """The k-subsets of range(n) in lex order and their bitmasks (bit i: vertex i), read-only."""
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    masks = (1 << subsets).sum(axis=1)
    subsets.flags.writeable = masks.flags.writeable = False
    return subsets, masks


def _screen(a: np.ndarray, b: np.ndarray):
    """(keep, proof, ill) for square systems ``a`` and each right-hand side row of ``b``.

    ``a`` holds _systems of (d + 1)-subsets, or of k-subsets projected into
    the affine hull, each coordinate i divided by a power of two S_i >=
    max(1, |V_i|), exactly.  One stacked LU solve of a [w | X] = [b | I] gives
    barycentric coordinates w and the inverse X.  Unless a is singular or
    kappa = |a|_F |X|_F >= 1/SCREEN_COND (ill), proof[c, p, j] = |w_p| >
    (1 + 1e-6) |X|_F (3 RESIDUAL_TOL + rho) shows that the exact solve rejects
    target j on every subset of c without p, and on all of them if w_p < 0
    (keep[c, j] False); rho bounds |a w - b|_2: as computed, plus 1e-14
    (|a|_F (1 + |w|_2) + |b|_2).  Proof (Higham, ch. 7, 9, 14): with |L| <= 1
    and growth <= 2^4 up to 5 x 5, each column of X solves (a + E) x = e_i,
    |E|_F < 6.7e-13 |a|_F, so |a^-1|_2 < (1 + 7e-7) |X|_F.  The exact solve
    holds row i to RESIDUAL_TOL in units of s_i <= S_i, plus rounding below
    12 eps |V_i|, so an accepted u >= 0 with u_p = 0, or u_p > 0 > w_p, has
    |a u - b|_2 < 2.3e-9 (a projection adds 2e-15 (|a|_F + |b|_2)), so |w_p| <=
    |u - w|_2 <= |a^-1|_2 (|a u - b|_2 + |a w - b|_2), below the bound.
    det == 0 comes first: an exact zero pivot makes solve raise for the stack.
    """
    m, eye = len(b), np.eye(a.shape[1])
    with np.errstate(all="ignore"):
        singular = ~(np.abs(np.linalg.det(a)) > 0)
        z = np.linalg.solve(np.where(singular[:, None, None], eye, a), np.c_[b.T, eye])
        w, inv = z[:, :, :m], np.linalg.norm(z[:, :, m:], axis=(1, 2))
        size = np.linalg.norm(a, axis=(1, 2))
        ill = singular | ~(size * inv * SCREEN_COND < 1)
        rho = np.linalg.norm(a @ w - b.T, axis=1)
        rho += 1e-14 * (size[:, None] * (1 + np.linalg.norm(w, axis=1)) + np.linalg.norm(b, axis=1))
        bound = (1 + 1e-6) * inv[:, None] * (3 * RESIDUAL_TOL + rho)
        proof = (np.abs(w) > bound[:, None]) & ~ill[:, None, None]
    return ~np.any(proof & (w < 0), axis=1), proof, ill


def _screened_solutions(V: np.ndarray, targets: np.ndarray, exclude: int | np.ndarray = 0):
    """(target position, support, weights) of each basic decomposition of each row of ``targets``.

    Coordinates are _centered, and the exact solve divides coordinate i by
    s_i = max(1, S_i / SOLVE_SCALE), S_i the screen's power of two: row i
    is held to RESIDUAL_TOL * s_i, above its rounding, and lstsq sees no
    rows that dwarf the weight-sum row.  Targets in order, then supports
    by size and lex order.  cleared[j] holds the 2^n bitmasks the proofs
    rule out for target j, closed downward, and those meeting exclude[j].
    A model with n <= d sends every support.  If every simplex is ill (a
    flat model), eigh(A A^T) splits off the hull Q (all but the smallest
    eigenvalue and any below SCREEN_COND^2 times the largest) from the
    rest R: Q's k-subsets are screened too, and a state with |R^T b| >
    max_i |R^T a_i| + SCREEN_RESIDUAL |b| has no support, as an accepted u
    has |R^T b| <= |R^T a u| + 2.4e-9.
    """
    n, d = V.shape
    V, targets = _centered(V, targets)
    scale = 2.0 ** np.maximum(0, np.frexp(np.abs(V).max(axis=0))[1])
    A, B = (np.vstack([(P / scale).T, np.ones(len(P))]) for P in (V, targets))
    cleared = np.zeros((len(targets), 1 << n), dtype=bool)
    Q, k = None, d + 1
    while n > d:
        subsets, masks = _subsets(n, k)
        a = A[:, subsets].transpose(1, 0, 2)
        keep, proof, ill = _screen(a, B.T) if Q is None else _screen(Q.T @ a, (Q.T @ B).T)
        c, p, j = np.nonzero(proof)
        cleared[j, masks[c] - (1 << subsets[c, p])] = True
        c, j = np.nonzero(~keep)
        cleared[j, masks[c]] = True
        if Q is not None or not ill.all():
            break
        lam, vecs = np.linalg.eigh(A @ A.T)
        k = d + 1 - max(1, int(np.sum(lam <= SCREEN_COND**2 * lam[-1])))
        R, Q = vecs[:, :-k].T, vecs[:, -k:]
        far = np.linalg.norm(R @ B, axis=0) - SCREEN_RESIDUAL * np.linalg.norm(B, axis=0)
        cleared[far > np.linalg.norm(R @ A, axis=0).max()] = True
    for pairs in (cleared.reshape(len(targets), -1, 2, 1 << bit) for bit in range(n)):
        pairs[:, :, 0] |= pairs[:, :, 1]
    cleared |= np.arange(1 << n) & np.asarray(exclude)[..., None] != 0
    solve_scale = np.maximum(1.0, scale / SOLVE_SCALE)
    V, targets = V / solve_scale, targets / solve_scale
    for t, x in enumerate(targets):
        for subsets, masks in (_subsets(n, k) for k in range(1, min(n, d + 1) + 1)):
            kept = subsets[~cleared[t, masks]]
            for c, w in _exact_solutions(_systems(V, kept), x):
                yield t, tuple(kept[c].tolist()), w


def _centered(V: np.ndarray, points: np.ndarray):
    """V and points less c, c_i the midpoint of coordinate i's range if max|V_i| >= SOLVE_SCALE, else 0.

    Uncentered, a weight sum RESIDUAL_TOL off 1 moves an offset model's
    barycenter by RESIDUAL_TOL * max|V_i|: 0.1 near 1e8.
    """
    if float(np.abs(V).max()) < SOLVE_SCALE:
        return V, points
    lo, hi = V.min(axis=0), V.max(axis=0)
    c = np.where(np.maximum(-lo, hi) >= SOLVE_SCALE, 0.5 * lo + 0.5 * hi, 0.0)
    return V - c, points - c


def _certified_extreme(V: np.ndarray) -> np.ndarray:
    """Which vertices a separating hyperplane proves extreme for the exact solve.

    V is taken in the centered coordinates (_centered) the exact solve
    works in.  For an anchor a (the origin, then the vertex centroid),
    vertex i is certified when c = v_i - a gives
        m = c.v_i - M > SCREEN_RESIDUAL * (|c|_1 + |M|),  M = max_{j != i} c.v_j.
    Then the exact solve rejects v_i over every support S of other vertices.
    Suppose it accepted weights w.  They are positive, and its residual
    tests hold coordinate i to RESIDUAL_TOL * s_i and the weight sum to
    RESIDUAL_TOL, so with r = sum_S w_j v_j - v_i and s = sum_S w_j - 1 we
    have |r|_inf <= t and |s| <= t, where t is RESIDUAL_TOL * max_i s_i plus
    the rounding of the computed residual.  Hence
        c.v_i + c.r = sum_S w_j c.v_j <= (1 + s) M,
    so m <= s M - c.r <= t (|M| + |c|_1).  As 0 < w_j, sum w_j <= 1 + t and
    supports hold at most d + 1 <= 5 points, the residual's rounding is below
    12 eps max|V|, and the computed m and M are off by at most
    2 d eps |c|_1 max|V|.  With max|V| <= CERTIFY_SCALE = 2^24, s_i <= 2^9
    and d <= DIM_CAP, so 2^9 RESIDUAL_TOL + (12 + 2 d) eps max|V| < 5.9e-7
    < SCREEN_RESIDUAL, and a certified margin exceeds every margin an
    accepted support allows.
    """
    n = V.shape[0]
    V, _ = _centered(V, V)
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

    The vertices _certified_extreme leaves are screened together and solved
    in index order: the answer is that of the exact solve on every vertex.
    """
    uncertified = np.flatnonzero(~_certified_extreme(V))
    if not uncertified.size:
        return None
    found = next(_screened_solutions(V, V[uncertified], 1 << uncertified), None)
    return None if found is None else int(uncertified[found[0]])


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


def _iter_solutions(V: np.ndarray, x: np.ndarray):
    # Lexicographic subset order fixes tie-breaking everywhere downstream.
    for _, support, w in _screened_solutions(V, x[None, :]):
        yield support, w


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
    found = next(_iter_solutions(model.vertices, x), None)
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
            for s, w in _iter_solutions(model.vertices, x)
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
