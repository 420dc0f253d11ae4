"""Convex polytope state spaces with exact decomposition entropies.

A model is the convex hull of finitely many extreme points in R^d.  The
entropy of a state is the infimum of h(sum_k phi(w_k)) over its convex
decompositions into extreme points.  The objective is a monotone transform
of a sum that is concave (or convex) in the weights, so the optimum over the
decomposition polytope sits at one of its extreme points; those are exactly
the basic decompositions, the ones supported on affinely independent vertex
subsets of size at most d + 1.  Enumerating them is exact and cheap at the
supported scale (README, "Why basic decompositions suffice").

Each state is screened, in one pass per model, through the simplices of its
model's affine hull: barycentric coordinates prove most supports unable to
write it (_screen).  Only the rest reach the exact solve, which alone
accepts a decomposition and supplies its weights, one stack per support size
across the models of one vertex shape: one rank test, lstsq on each
full-rank support of two or more points (one point has weight 1.0), one
residual and weight-floor test, bit for bit the per-support tests
(_exact_solutions).  Decompositions wrap each block's rows, checked once.
Model construction screens only the vertices no separating hyperplane
certifies: one certificate per stack of models, then one screened solve
for every vertex it leaves (_require_extreme).  Each support length is
scored in one kernel call (entropy_table).

A model keeps the basic decompositions of the last state enumerated for it,
alone or in a batch (_enumerate), so the entropy and the majorant of one
state share one enumeration.  The entry is safe to share because the
vertices, the Decomposition objects and their weights are all read-only, and
every caller gets a fresh list.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .classical import ZERO_TOL, _join, _vector, entropy_table, positions_by_key
from .functionals import EntropicFunctional, as_count

# The solve's own tolerances (README, "Tolerances"); its weight floor is classical's ZERO_TOL.
PIVOT_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# Coordinates below SOLVE_SCALE are solved as given; larger ones are centered
# and scaled first (_screened_solutions).
SOLVE_SCALE = 2.0**16
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
    """Convex weights over a support of vertex indices; they write weights @ vertices[list(support)].

    The indices, read by as_count, are distinct and nonnegative; the weights are kept as a read-only copy.
    """

    support: tuple
    weights: np.ndarray

    def __post_init__(self):
        support = tuple(as_count(i, "support index") for i in self.support)
        w = _vector(self.weights, "weights").copy()
        if len(support) != w.size or w.size == 0:
            raise ValueError("support and weights must have matching nonzero length")
        if len(set(support)) != len(support) or min(support) < 0:
            raise ValueError("support indices must be distinct and nonnegative")
        # Both tests are written to be false for NaN, so NaN weights are rejected.
        if not (np.minimum.reduce(w) > ZERO_TOL):
            raise ValueError(f"weights must exceed {ZERO_TOL}")
        if not (abs(np.add.reduce(w) - 1.0) <= RESIDUAL_TOL):
            raise ValueError(f"weights must sum to 1 within {RESIDUAL_TOL}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "support", support)

    @classmethod
    def _rows(cls, supports: np.ndarray, W: np.ndarray) -> list:
        """A Decomposition per row of an exact-solve block, wrapping W's rows read-only.

        The floor and sum tests above run once on the block, bit for bit per
        row: min is exact, and numpy sums a row of at most DIM_CAP + 1 entries
        as it sums that row alone.  The first failing row raises their error.
        """
        ok = (np.minimum.reduce(W, axis=1) > ZERO_TOL) & (abs(np.add.reduce(W, axis=1) - 1.0) <= RESIDUAL_TOL)
        for i in np.flatnonzero(~ok)[:1]:
            cls(support=supports[i].tolist(), weights=W[i])
        W.setflags(write=False)
        decs = [object.__new__(cls) for _ in W]
        for dec, support, w in zip(decs, supports.tolist(), W):
            dec.__dict__.update(support=tuple(support), weights=w)
        return decs


def _systems(V: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """The systems [V[S]^T; 1] for the row-index ``subsets`` of V, stacked as (count, d + 1, k)."""
    (count, k), d = subsets.shape, V.shape[1]
    a = np.ones((count, d + 1, k))
    a[:, :d, :] = V[subsets].transpose(0, 2, 1)
    return a


def _exact_solutions(a: np.ndarray, x: np.ndarray):
    """(positions, W): where in ``a`` the stacked systems that write [x_c; 1] are, in order, and their weights as rows.

    x holds one state per system c, or one for all.  The exact solve, which
    alone accepts a support and supplies its weights.  It rejects affinely
    dependent supports (rank below the support size at pivot tolerance
    PIVOT_TOL), inconsistent systems (lstsq residual above RESIDUAL_TOL),
    and solutions touching the weight floor; those belong to a smaller
    support that is enumerated separately.  One point has rank 1 (its
    weight-sum entry 1 is above PIVOT_TOL) and weight 1.0, the only one
    summing to one; larger supports take one stacked matrix_rank call
    (numpy's stacked SVD gives each matrix bit for bit the singular values
    of a call on that matrix alone) and lstsq on each full-rank system.  The
    residual and floor tests run once, on the stacked solutions: numpy's
    stacked matmul gives each product bit for bit what a @ w on that system
    alone gives, and max and min are exact, so each support is accepted or
    rejected as its own tests would.
    """
    b = np.ones(a.shape[:2])
    b[:, :-1] = x
    one_point = a.shape[2] == 1
    full = np.arange(len(a)) if one_point else np.flatnonzero(np.linalg.matrix_rank(a, tol=PIVOT_TOL) == a.shape[2])
    W = np.ones((len(full), a.shape[2]))
    for i, c in enumerate(() if one_point else full.tolist()):
        W[i], *_ = np.linalg.lstsq(a[c], b[c], rcond=None)
    residual = np.abs((a[full] @ W[..., None])[..., 0] - b[full]).max(axis=1)
    accepted = ~((residual > RESIDUAL_TOL) | (W.min(axis=1) <= ZERO_TOL))
    return full[accepted], W[accepted]


@functools.lru_cache(maxsize=VERTEX_CAP * (DIM_CAP + 1))
def _subsets(n: int, top: int) -> tuple:
    """Each k-subset of range(n) for k = 1..top, in lex order, and its bitmask (bit i: vertex i).

    Returns the subsets of each size, all their masks in one array and each size's start in it, read-only.
    """
    subsets = [np.array(list(itertools.combinations(range(n), k)), dtype=np.intp) for k in range(1, top + 1)]
    masks = np.concatenate([(1 << s).sum(axis=1) for s in subsets])
    for array in (*subsets, masks):
        array.flags.writeable = False
    return tuple(subsets), masks, tuple(np.cumsum([0] + [len(s) for s in subsets]).tolist())


def _norm(x: np.ndarray, axis) -> np.ndarray:
    """np.linalg.norm(x, axis=axis) of real x (vector or Frobenius): its sum, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _screen(a: np.ndarray, b: np.ndarray):
    """(keep, proof) for each model's square systems ``a`` (m, C, k, k) and right-hand side rows ``b`` (m, t, k).

    ``a`` holds the systems of k-subsets in the model's affine hull (the
    _systems of (d + 1)-subsets when it is full-dimensional), each
    coordinate i divided by a power of two S_i >= max(1, |V_i|), exactly.
    One stacked LU solve of a [w | X] = [b | I] gives barycentric
    coordinates w and the inverse X.  Unless a is singular or kappa =
    |a|_F |X|_F >= 1/SCREEN_COND (ill), proof[i, c, p, j] = |w_p| >
    (1 + 1e-6) |X|_F (3 RESIDUAL_TOL + rho) shows that the exact solve
    rejects model i's target j on every subset of c without p, and on all
    of them if w_p < 0 (keep[i, c, j] False); rho bounds |a w - b|_2: as
    computed, plus 1e-14 (|a|_F (1 + |w|_2) + |b|_2).  Proof (Higham, ch. 7,
    9, 14): with |L| <= 1 and growth <= 2^4 up to 5 x 5, each column of X
    solves (a + E) x = e_i, |E|_F < 6.7e-13 |a|_F, so |a^-1|_2 < (1 + 7e-7)
    |X|_F.  The exact solve holds row i to RESIDUAL_TOL in units of
    s_i <= S_i, plus rounding below 12 eps |V_i|, so an accepted u >= 0
    with u_p = 0, or u_p > 0 > w_p, has |a u - b|_2 < 2.3e-9 (a projection
    adds 2e-15 (|a|_F + |b|_2)), so |w_p| <= |u - w|_2 <= |a^-1|_2
    (|a u - b|_2 + |a w - b|_2), below the bound.  solve raises for the
    stack only at an exact zero pivot, which is det == 0; those systems
    alone are then swapped for I and the stack solved again, the rest to
    the same bits, since each system of a stack is solved alone.
    """
    t, eye = b.shape[1], np.eye(a.shape[-1])
    rhs = np.concatenate([b.transpose(0, 2, 1), np.broadcast_to(eye, (len(b), *eye.shape))], axis=2)[:, None]
    with np.errstate(all="ignore"):
        try:
            z, singular = np.linalg.solve(a, rhs), False
        except np.linalg.LinAlgError:
            singular = np.linalg.det(a) == 0
            z = np.linalg.solve(np.where(singular[..., None, None], eye, a), rhs)
        w, inv = z[..., :t], _norm(z[..., t:], (2, 3))
        size = _norm(a, (2, 3))
        ill = singular | ~(size * inv * SCREEN_COND < 1)
        rho = _norm(a @ w - rhs[..., :t], 2)
        rho += 1e-14 * (size[..., None] * (1 + _norm(w, 2)) + _norm(b, 2)[:, None])
        bound = (1 + 1e-6) * inv[..., None] * (3 * RESIDUAL_TOL + rho)
        proof = (np.abs(w) > bound[:, :, None]) & ~ill[..., None, None]
    return ~(proof & (w < 0)).any(axis=2), proof


def _solve_frame(V: np.ndarray, points: np.ndarray):
    """(V - c, points - c, S, s) for V (n, d) or a stack (m, n, d), each model taken on its own.

    c_i is the midpoint of coordinate i's range if max|V_i| >= SOLVE_SCALE,
    else 0: uncentered, a weight sum RESIDUAL_TOL off 1 moves an offset
    model's barycenter by RESIDUAL_TOL * max|V_i|, 0.1 near 1e8.  The screen
    divides coordinate i by a power of two S_i >= max(1, max|V_i - c_i|),
    the exact solve by s_i = max(1, S_i / SOLVE_SCALE): row i is held to
    RESIDUAL_TOL * s_i, above its rounding, and lstsq sees no rows that
    dwarf the weight-sum row.
    """
    if float(np.abs(V).max()) >= SOLVE_SCALE:
        lo, hi = V.min(axis=-2, keepdims=True), V.max(axis=-2, keepdims=True)
        c = np.where(np.maximum(-lo, hi) >= SOLVE_SCALE, 0.5 * lo + 0.5 * hi, 0.0)
        V, points = V - c, points - c
    scale = 2.0 ** np.maximum(0, np.frexp(np.abs(V).max(axis=-2, keepdims=True))[1])
    return V, points, scale, np.maximum(1.0, scale / SOLVE_SCALE)


def _screened_solutions(V: np.ndarray, targets: np.ndarray, exclude: int | np.ndarray = 0):
    """(problems, supports, W) for the basic decompositions of each target, one block per support size.

    V stacks m models of one vertex shape, (m, n, d), and targets their
    states, (m, t, d); problem p is target p % t of model p // t, and
    exclude[i, j] masks vertices out of model i's target j.  Sizes ascend;
    in a block, problems ascend and each one's supports are in lex order.
    The screen runs once per model, in its affine hull (coordinates as
    _solve_frame gives them): one stacked eigh(A A^T) gives each model's
    hull dimension k, the count of eigenvalues above SCREEN_COND^2 times its
    largest, and the models of one k share one _screen call.  When k <= d
    the eigenvectors split the hull Q from the rest R; a state with
    |R^T b| > max_i |R^T a_i| + SCREEN_RESIDUAL |b| has no support, as an
    accepted u has |R^T b| <= |R^T a u| + 2.4e-9, and A, B become Q^T A,
    Q^T B.  Any orthonormal Q keeps the proofs valid; the eigenvectors make
    them strong.  For a generic interior state every support smaller than
    the hull's simplices is then proven empty, so the exact solve runs once
    per simplex that holds the state.  cleared[p] holds the
    2^n bitmasks the proofs rule out for problem p, closed downward, and
    those meeting its exclude mask.  Per support size, every problem's open
    supports make one _exact_solutions stack.
    """
    (m, n, d), t = V.shape, targets.shape[1]
    V, targets, scale, solve_scale = _solve_frame(V, targets)
    A, B = np.ones((m, d + 1, n)), np.ones((m, d + 1, t))
    A[:, :d], B[:, :d] = (V / scale).transpose(0, 2, 1), (targets / scale).transpose(0, 2, 1)
    cleared = np.zeros((m, t, 1 << n), dtype=bool)
    lam, vecs = np.linalg.eigh(A @ A.transpose(0, 2, 1))
    hull = np.sum(lam > SCREEN_COND**2 * lam[:, -1:], axis=1)
    for k in sorted(set(hull.tolist())):  # np.unique imports numpy.ma on first use: a cost per CLI process
        group = np.flatnonzero(hull == k)
        a, b = A[group], B[group]
        if k <= d:
            R, Q = np.split(vecs[group].transpose(0, 2, 1), [d + 1 - k], axis=1)  # as rows: R^T and Q^T
            far = _norm(R @ b, 1) - SCREEN_RESIDUAL * _norm(b, 1)
            cleared[group] |= (far > _norm(R @ a, 1).max(axis=1, keepdims=True))[..., None]
            a, b = Q @ a, Q @ b
        subsets, masks, starts = _subsets(n, k)
        subsets, masks = subsets[-1], masks[starts[-2] :]
        keep, proof = _screen(a[:, :, subsets].transpose(0, 2, 1, 3), b.transpose(0, 2, 1))
        i, c, p, j = np.nonzero(proof)
        cleared[group[i], j, masks[c] - (1 << subsets[c, p])] = True
        i, c, j = np.nonzero(~keep)
        cleared[group[i], j, masks[c]] = True
    cleared = cleared.reshape(m * t, 1 << n)
    for pairs in (cleared.reshape(m * t, -1, 2, 1 << bit) for bit in range(n)):
        pairs[:, :, 0] |= pairs[:, :, 1]
    if np.any(exclude):
        cleared |= np.arange(1 << n) & np.reshape(exclude, (-1, 1)) != 0
    V, X = (V / solve_scale).reshape(m * n, d), (targets / solve_scale).reshape(m * t, d)
    subsets, masks, starts = _subsets(n, min(n, d + 1))
    open_ = ~cleared[:, masks]
    for of_size, first, last in zip(subsets, starts, starts[1:]):
        p, c = np.nonzero(open_[:, first:last])
        if len(p):
            supports = of_size[c]
            positions, W = _exact_solutions(_systems(V, supports + n * (p // t)[:, None]), X[p])
            if len(positions):
                yield p[positions], supports[positions], W


def _certified_extreme(V: np.ndarray) -> np.ndarray:
    """Which vertices a separating hyperplane proves extreme for the exact solve, (m, n) for a stack V (m, n, d).

    Each model of the stack is taken on its own, in the centered
    coordinates (_solve_frame) the exact solve works in, and the stack
    shares one Gram stack (m, 2, n, n) and one comparison: row k is bit for
    bit the call on V[k:k + 1].  For an anchor a (the origin, then the
    vertex centroid), vertex i is certified when c = v_i - a gives
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
    V = _solve_frame(V, V)[0]
    # A model beyond CERTIFY_SCALE is zeroed, and certifies nothing, as n = 1 does (M = -inf);
    # the screen, blind to scale, still proves a well-conditioned one extreme.
    V = np.where(np.abs(V).max(axis=(1, 2), keepdims=True) <= CERTIFY_SCALE, V, 0.0)
    C = np.stack([V, V - V.mean(axis=1, keepdims=True)], axis=1)  # anchored at the origin, then the centroid
    G = C @ V[:, None].transpose(0, 1, 3, 2)
    M = np.where(np.eye(V.shape[1], dtype=bool), -np.inf, G).max(axis=3)
    return (G.diagonal(axis1=2, axis2=3) - M > SCREEN_RESIDUAL * (np.abs(C).sum(axis=3) + np.abs(M))).any(axis=1)


def _require_extreme(V: np.ndarray) -> None:
    """Raise ConvexModel's error for the first model of V (m, n, d) with a non-extreme vertex, naming its smallest.

    One certificate runs on the stack; one screened solve then takes every
    vertex of the models it leaves, each excluding its own bit, or every
    bit if certified: the first problem solved is the one to name.
    """
    certified, n = _certified_extreme(V), V.shape[1]
    left = np.flatnonzero(~certified.all(axis=1))
    exclude = np.where(certified[left], (1 << n) - 1, 1 << np.arange(n))
    found = [p[0] for p, _, _ in _screened_solutions(V[left], V[left], exclude)] if left.size else []
    if found:
        raise ValueError(f"vertex {min(found) % n} is a convex combination of the others")


class ConvexModel:
    """Convex hull of validated extreme points (rows of ``vertices``).

    At most VERTEX_CAP vertices in at most DIM_CAP dimensions, which keeps
    the subset enumeration exact and fast.  Each vertex is verified extreme
    at construction by checking it has no convex decomposition over the
    remaining vertices (_require_extreme); check_extreme=False skips that
    check for inputs known to be extreme or certified as a stack, as the
    gpt-argmin audit's are.  A simplex needs no test of its own: each of its
    states has one basic decomposition, its barycentric coordinates.

    The model holds one cache entry: the basic decompositions of the last
    state enumerated for it, keyed by the state's bytes.  It relies on the
    vertices being read-only.
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
            _require_extreme(V[None])
        V.setflags(write=False)
        self.vertices = V
        self._decompositions = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    def __repr__(self) -> str:
        return f"ConvexModel(n={self.n_vertices}, dim={self.ambient_dim})"


def _check_point(model: ConvexModel, x) -> np.ndarray:
    x = _vector(x, "state")
    if x.size != model.ambient_dim:
        raise ValueError(f"state has dimension {x.size}, model is {model.ambient_dim}")
    if not np.isfinite(x).all():
        raise ValueError("state must be finite")
    return x


def membership(model: ConvexModel, x) -> Decomposition | None:
    """First basic decomposition of x, or None when x is outside the hull."""
    return next(iter(enumerate_basic_decompositions(model, x)), None)


def enumerate_basic_decompositions(model: ConvexModel, x) -> list[Decomposition]:
    """All decompositions of x on affinely independent supports, by support size, then in lex order.

    The result for the last state enumerated for the model, here or in a
    batch (_enumerate), is kept on it; asking again for the same state
    returns a new list of the same Decomposition objects without enumerating.
    """
    x = _check_point(model, x)
    if model._decompositions is None or model._decompositions[0] != x.tobytes():
        _enumerate([model], [x])
    return list(model._decompositions[1])


def _enumerate(models, states) -> list[list[Decomposition]]:
    """enumerate_basic_decompositions(models[i], states[i]) for every i, bit for bit, one kernel call per vertex shape.

    The states are as _check_point returns them, and each list is left in
    its model's cache.  Supports by size, then in lex order within a size:
    this order fixes tie-breaking everywhere downstream.
    """
    found = [[] for _ in models]
    for group in positions_by_key(model.vertices.shape for model in models):
        V, X = np.stack([models[i].vertices for i in group]), np.stack([states[i] for i in group])[:, None]
        for problems, supports, W in _screened_solutions(V, X):
            for i, dec in zip(problems.tolist(), Decomposition._rows(supports, W)):
                found[group[i]].append(dec)
    for model, x, decs in zip(models, states, found):
        model._decompositions = (x.tobytes(), tuple(decs))
    return found


def gpt_entropy(
    model: ConvexModel, x, F: EntropicFunctional
) -> tuple[float, Decomposition | None]:
    """Minimum of h(sum phi(weights)) over basic decompositions of x.

    Returns (+inf, None) when x is outside the hull.  A tie goes to the
    first decomposition in enumeration order: by support size, then lex order.
    """
    return minimize_entropy(enumerate_basic_decompositions(model, x), F)


def minimize_entropy(
    decs: list[Decomposition], F: EntropicFunctional
) -> tuple[float, Decomposition | None]:
    """Minimum of h(sum phi(weights)) over ``decs``, and the first that attains it.

    Each weight vector is taken through ProbVector.from_computation's rule,
    and all of one support length are scored in one kernel call
    (entropy_table with computed=True).  The first least value below +inf
    wins; NaN never counts.  Returns (+inf, None) for an empty list or when
    no value is below +inf.  Enumerate once and call this per functional to
    evaluate several functionals on one state.
    """
    if not decs:
        return np.inf, None
    values = entropy_table([d.weights for d in decs], [F], computed=True)[:, 0]
    below = np.where(values < np.inf, values, np.inf)
    i = int(below.argmin())
    return (float(values[i]), decs[i]) if below[i] < np.inf else (np.inf, None)


def gpt_majorant(model: ConvexModel, x) -> np.ndarray | None:
    """The join of the basic weight spectra: the least vector majorizing each one.

    The spectra are the weight vectors of the basic decompositions, sorted
    nonincreasing and each scaled to total one.  Under majorization they
    always have a join (classical._join), with the largest support's length,
    so this returns None only when x is outside the hull.  By Schur
    concavity its entropy is at most gpt_entropy's, with equality when one
    basic spectrum majorizes all the others, since the join is then that one.
    """
    decs = enumerate_basic_decompositions(model, x)
    return _join([d.weights for d in decs]) if decs else None
