"""Convex polytope models: decompositions, entropies, majorants."""

import dataclasses
import functools
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from entrokit import audit, gpt
from entrokit.audit import DEFAULT_FUNCTIONAL_SPECS, run_audit
from entrokit.classical import (
    ZERO_TOL,
    ProbVector,
    _join,
    entropy_finite,
    entropy_table,
    majorization_margin,
    majorizes,
)
from entrokit.functionals import functional_from_spec, make_shannon
from entrokit.gpt import (
    VERTEX_CAP,
    ConvexModel,
    Decomposition,
    PIVOT_TOL,
    RESIDUAL_TOL,
    enumerate_basic_decompositions,
    gpt_entropy,
    gpt_majorant,
    membership,
    minimize_entropy,
)
from entrokit.quantum import DensityOperator, quantum_entropy
from entrokit.rand import as_rng, random_interior_point, random_simplex_model, random_sphere_model
from oracles import entropy_error_bound, exact_decompositions, exact_entropy

LN2 = 0.6931471805599453

SQUARE = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
# quadrilateral built so that (0.4, 1.2) has exactly two decompositions with
# weight spectra (0.6, 0.3, 0.1) and (0.55, 0.4, 0.05), which are incomparable:
# partial sums (0.6, 0.9, 1) vs (0.55, 0.95, 1)
INCOMPARABLE_QUAD = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [-4.5, 2.5]]
INCOMPARABLE_POINT = [0.4, 1.2]


def oracle_decompositions(vertices, x, tol=1e-9):
    """Enumerate supports independently: pinv solve + explicit SVD rank check."""
    verts = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = verts.shape
    target = np.concatenate([x, [1.0]])
    out = []
    for size in range(1, min(n, d + 1) + 1):
        for support in itertools.combinations(range(n), size):
            A = np.vstack([verts[list(support)].T, np.ones(size)])
            sv = np.linalg.svd(A, compute_uv=False)
            if sv[-1] <= 1e-10 * max(1.0, sv[0]):
                continue  # affinely dependent subset
            w = np.linalg.pinv(A) @ target
            if np.max(np.abs(A @ w - target)) > tol:
                continue
            if np.min(w) <= 1e-12:
                continue
            out.append((support, w))
    return out


def reference_solve_support(points, x):
    """The exact solve of one support, written out on its own: rank, lstsq (two or more points), checks."""
    k = points.shape[0]
    a = np.vstack([points.T, np.ones((1, k))])
    if np.linalg.matrix_rank(a, tol=PIVOT_TOL) < k:
        return None
    b = np.concatenate([x, [1.0]])
    # A one-point support's weight is 1.0, the only weight that sums to one.
    w = np.ones(1) if k == 1 else np.linalg.lstsq(a, b, rcond=None)[0]
    if float(np.max(np.abs(a @ w - b))) > RESIDUAL_TOL:
        return None
    if float(w.min()) <= ZERO_TOL:
        return None
    return w


def reference_solutions(V, x, d):
    """The unscreened enumeration: the exact solve on every subset, lex order."""
    n = V.shape[0]
    for k in range(1, min(n, d + 1) + 1):
        for support in itertools.combinations(range(n), k):
            w = reference_solve_support(V[list(support)], x)
            if w is not None:
                yield support, w


def reference_first_non_extreme(V):
    """The unscreened extremality check: each vertex against the others."""
    n, d = V.shape
    for i in range(n):
        others = np.delete(V, i, axis=0)
        if others.shape[0] and next(reference_solutions(others, V[i], d), None) is not None:
            return i
    return None


def first_non_extreme(V):
    """The vertex _require_extreme names for the one model V (n, d), or None when it raises nothing."""
    try:
        gpt._require_extreme(V[None])
    except ValueError as error:
        return int(re.fullmatch(r"vertex (\d+) is a convex combination of the others", str(error))[1])
    return None


def facet_point(V, rng):
    """A random point on some facet of the hull of V (V in general position)."""
    n, d = V.shape
    for support in itertools.combinations(range(n), d):
        P = V[list(support)]
        normal = np.linalg.svd(P[1:] - P[0])[2][-1] if d > 1 else np.ones(1)
        side = (V - P[0]) @ normal
        if np.all(side <= 1e-12) or np.all(side >= -1e-12):
            return rng.dirichlet(np.ones(d)) @ P
    raise AssertionError("no facet found")


def assert_enumeration_is_the_reference(model, x):
    got = enumerate_basic_decompositions(model, x)
    want = list(reference_solutions(model.vertices, x, model.ambient_dim))
    assert [dec.support for dec in got] == [s for s, _ in want]
    assert all(np.array_equal(dec.weights, w) for dec, (_, w) in zip(got, want))
    return want


def screen_targets(model, rng):
    V = model.vertices
    n = V.shape[0]
    yield from (random_interior_point(model, rng) for _ in range(3))
    yield from V
    yield from (0.5 * (V[i] + V[(i + 1) % n]) for i in range(0, n, 3))  # some on edges
    yield facet_point(V, rng)
    yield 3.0 * V[0]  # sphere models: outside the hull


# ------------------------------------------------------------------- models

def test_model_accepts_square():
    model = ConvexModel(SQUARE)
    assert model.ambient_dim == 2
    assert model.n_vertices == 4


def test_model_rejects_interior_vertex():
    with pytest.raises(ValueError):
        ConvexModel(SQUARE + [[0.0, 0.0]])


def test_model_rejects_duplicate_vertex():
    with pytest.raises(ValueError):
        ConvexModel(SQUARE + [[1.0, 1.0]])


def test_model_caps():
    with pytest.raises(ValueError):
        ConvexModel(np.random.default_rng(0).normal(size=(13, 2)))
    with pytest.raises(ValueError):
        ConvexModel(np.eye(5) * 2.0)  # dim 5 exceeds the cap


@pytest.mark.parametrize("offset", [1e8, -1e8])
def test_offset_triangle_writes_its_mean_on_all_three_vertices(offset):
    # the raw [V^T; 1] of the triangle has rank 2 at PIVOT_TOL; the exact
    # solve, centered and scaled, sees rank 3 and writes the vertex mean on all three
    triangle = ConvexModel(offset + 1e-6 * np.array(TRIANGLE))
    assert gpt_entropy(triangle, triangle.vertices.mean(axis=0), make_shannon())[1].support == (0, 1, 2)


# ------------------------------------------------------------ decompositions

def test_square_center_decompositions_frozen():
    model = ConvexModel(SQUARE)
    decs = enumerate_basic_decompositions(model, [0.0, 0.0])
    assert [d.support for d in decs] == [(0, 3), (1, 2)]
    for d in decs:
        assert np.allclose(d.weights, [0.5, 0.5], rtol=0, atol=1e-12)


def test_square_edge_midpoint_decompositions_frozen():
    model = ConvexModel(SQUARE)
    decs = enumerate_basic_decompositions(model, [0.5, 0.0])
    assert [d.support for d in decs] == [(0, 1, 2), (0, 1, 3)]
    assert np.allclose(decs[0].weights, [0.25, 0.5, 0.25], rtol=0, atol=1e-12)
    assert np.allclose(decs[1].weights, [0.5, 0.25, 0.25], rtol=0, atol=1e-12)


def test_vertex_decomposes_as_itself():
    model = ConvexModel(SQUARE)
    decs = enumerate_basic_decompositions(model, [1.0, 1.0])
    assert len(decs) == 1
    assert decs[0].support == (0,)
    assert decs[0].weights[0] == 1.0


def test_one_point_supports_take_no_rank_test(monkeypatch):
    # a one-point support's weight-sum entry 1 makes its rank 1, so only the
    # stacks of larger supports are ranked
    ranked, matrix_rank = [], np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a, **kw: ranked.append(a.shape) or matrix_rank(a, **kw))
    model = ConvexModel(TRIANGLE)
    for spec in ("shannon", "renyi:alpha=0.5"):
        value, dec = gpt_entropy(model, [1.0, 0.0], functional_from_spec(spec))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0 and dec.support == (1,), spec
    assert ranked and all(shape[1:] != (3, 1) for shape in ranked), ranked


def test_every_vertex_has_entropy_plus_zero():
    # a vertex's one-point support has the weight 1.0 exactly, so every
    # functional is +0.0 there
    rng = as_rng(127)
    functionals = [functional_from_spec(spec) for spec in DEFAULT_FUNCTIONAL_SPECS]
    models = [ConvexModel(TRIANGLE), ConvexModel(SQUARE)]
    models += [random_simplex_model(d, rng) for d in range(1, 5)]
    models += [random_sphere_model(n, d, rng) for d in range(2, 5) for n in (d + 2, 8, VERTEX_CAP)]
    for model in models:
        for v in model.vertices:
            for F in functionals:
                value, dec = gpt_entropy(model, v, F)
                assert len(dec.support) == 1 and dec.weights[0] == 1.0, (model, F.name)
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, (model, F.name)


def test_outside_point_has_no_decomposition():
    model = ConvexModel(SQUARE)
    assert enumerate_basic_decompositions(model, [3.0, 0.0]) == []
    assert membership(model, [3.0, 0.0]) is None


UNIT_CUBE = [list(corner) for corner in itertools.product([0.0, 1.0], repeat=3)]


@pytest.mark.parametrize(
    "x,count", [([0.5, 0.5, 0.5], 6), ([0.5, 0.5, 0.0], 2)], ids=["center", "face-center"]
)
def test_cube_coplanar_subsets_reach_the_stacked_rank_test(x, count):
    # the 12 coplanar 4-subsets (6 faces, 6 diagonal planes) are singular, so
    # the screen keeps them and the stacked rank test must reject each
    model = ConvexModel(UNIT_CUBE)
    V, x = model.vertices, np.array(x)
    subsets = np.array(list(itertools.combinations(range(8), 4)))
    a = gpt._systems(V, subsets)
    deficient = np.array([np.linalg.matrix_rank(m, tol=PIVOT_TOL) < 4 for m in a])
    assert deficient.sum() == 12
    assert gpt._screen(a[None], np.append(x, 1.0)[None, None, :])[0][0, deficient, 0].all()
    assert len(assert_enumeration_is_the_reference(model, x)) == count
    # the exact solve on every support of a size at once, unscreened
    for k in range(1, 5):
        subsets = np.array(list(itertools.combinations(range(8), k)))
        positions, W = gpt._exact_solutions(gpt._systems(V, subsets), x)
        assert W.shape == (len(positions), k)
        got = dict(zip(positions.tolist(), W))
        for c, support in enumerate(subsets):
            want = reference_solve_support(V[support], x)
            assert (c in got) == (want is not None), support
            assert want is None or np.array_equal(got[c], want), support


def det_first_screen(a, b):
    """_screen with det taken ahead of the solve, singular systems swapped for I before it."""
    m, eye = len(b), np.eye(a.shape[1])
    with np.errstate(all="ignore"):
        singular = ~(np.abs(np.linalg.det(a)) > 0)
        square = np.where(singular[:, None, None], eye, a) if singular.any() else a
        z = np.linalg.solve(square, np.concatenate([b.T, eye], axis=1))
        w, inv = z[:, :, :m], gpt._norm(z[:, :, m:], (1, 2))
        size = gpt._norm(a, (1, 2))
        ill = singular | ~(size * inv * gpt.SCREEN_COND < 1)
        rho = gpt._norm(a @ w - b.T, 1)
        rho += 1e-14 * (size[:, None] * (1 + gpt._norm(w, 1)) + gpt._norm(b, 1))
        bound = (1 + 1e-6) * inv[:, None] * (3 * RESIDUAL_TOL + rho)
        proof = (np.abs(w) > bound[:, None]) & ~ill[:, None, None]
    return ~(proof & (w < 0)).any(axis=1), proof


def test_screen_solves_first_and_keeps_the_det_first_bits():
    # the cube's 12 coplanar 4-subsets are exactly singular, so the stacked
    # solve raises and the screen falls back to det; without them it does not
    V = ConvexModel(UNIT_CUBE).vertices
    a = gpt._systems(V, np.array(list(itertools.combinations(range(8), 4))))
    singular = np.linalg.det(a) == 0
    assert singular.sum() == 12
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, np.eye(4))
    b = np.array([[0.5, 0.5, 0.5, 1.0], [0.5, 0.5, 0.0, 1.0], [0.2, 0.7, 0.4, 1.0], [2.0, 0.5, 0.5, 1.0]])
    for stack in (a, a[~singular]):
        keep, proof = gpt._screen(stack[None], b[None])
        want_keep, want_proof = det_first_screen(stack, b)
        assert np.array_equal(keep, want_keep[None]) and np.array_equal(proof, want_proof[None])
        assert proof.any() and not keep.all()


def test_enumeration_matches_independent_oracle():
    rng = as_rng(17)
    for _ in range(12):
        n = int(rng.integers(4, 8))
        model = random_sphere_model(n, 2, rng)
        x = random_interior_point(model, rng)
        got = enumerate_basic_decompositions(model, x)
        want = oracle_decompositions(model.vertices, x)
        assert [d.support for d in got] == [s for s, _ in want]
        for d, (_, w) in zip(got, want):
            assert np.max(np.abs(d.weights - w)) < 1e-8
            assert np.max(np.abs(d.weights @ model.vertices[list(d.support)] - np.asarray(x))) < 1e-9


def count_enumerations(monkeypatch):
    """The state of each problem the kernel enumerates; the extremality check, which passes exclude masks, is not counted."""
    runs = []
    kernel = gpt._screened_solutions

    def counted(V, targets, *exclude):
        if not exclude:
            runs.extend(targets.reshape(-1, targets.shape[-1]).copy())
        return kernel(V, targets, *exclude)

    monkeypatch.setattr(gpt, "_screened_solutions", counted)
    return runs


def test_repeated_state_is_served_from_the_model(monkeypatch):
    runs = count_enumerations(monkeypatch)
    model = ConvexModel(SQUARE)
    first = enumerate_basic_decompositions(model, [0.5, 0.0])
    second = enumerate_basic_decompositions(model, np.array([0.5, 0.0]))
    assert len(runs) == 1
    assert second == first and second is not first
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    third = enumerate_basic_decompositions(model, [0.5, 0.0])
    assert [dec.support for dec in second] == [dec.support for dec in third] == [(0, 1, 2), (0, 1, 3)]
    assert len(runs) == 1
    assert not second[0].weights.flags.writeable


def test_alternating_states_re_enumerate_and_match_the_reference(monkeypatch):
    runs = count_enumerations(monkeypatch)
    rng = as_rng(67)
    model = random_sphere_model(7, 3, rng)
    x, y = random_interior_point(model, rng), 0.5 * (model.vertices[0] + model.vertices[1])
    for state in (x, y, x):
        assert_enumeration_is_the_reference(model, state)
    assert [r.tobytes() for r in runs] == [x.tobytes(), y.tobytes(), x.tobytes()]
    other = ConvexModel(model.vertices, check_extreme=False)
    assert_enumeration_is_the_reference(other, x)  # one entry per model
    assert len(runs) == 4


def test_state_outside_the_hull_caches_the_empty_list(monkeypatch):
    runs = count_enumerations(monkeypatch)
    model = ConvexModel(SQUARE)
    assert enumerate_basic_decompositions(model, [3.0, 0.0]) == []
    assert gpt_entropy(model, [3.0, 0.0], make_shannon()) == (math.inf, None)
    assert gpt_majorant(model, [3.0, 0.0]) is None
    assert len(runs) == 1


def test_gpt_argmin_enumerates_once_per_trial(monkeypatch):
    # one problem per trial reaches the kernel, the trials stacked by vertex
    # shape, and the batch is joined in one call; gpt_majorant's call is then
    # served, join and all, from each model's cache
    runs = count_enumerations(monkeypatch)
    enumerations, joins, majorants = [], [], []
    enumerate_, joins_, majorant = gpt._enumerate, gpt._joins, gpt.gpt_majorant
    for module in (gpt, audit):
        monkeypatch.setattr(module, "_enumerate", lambda *args: enumerations.append(1) or enumerate_(*args))
    monkeypatch.setattr(gpt, "_joins", lambda *args: joins.append(1) or joins_(*args))
    monkeypatch.setattr(audit, "gpt_majorant", lambda *args: majorants.append(1) or majorant(*args))
    assert run_audit("gpt-argmin", trials=20, seed=5).cases
    assert len(runs) == len(majorants) == 20
    assert len(joins) == len(enumerations) == 1


def hull_targets(V, rng):
    """States in, on and just off the hull of V, which need not be full-dimensional."""
    center = V.mean(axis=0)
    yield from (rng.dirichlet(np.ones(len(V))) @ V for _ in range(3))
    yield from V
    yield V[0] + 1e-9
    yield 0.5 * (V[0] + V[-1])
    yield center + 1e-3 * rng.normal(size=V.shape[1])  # off the hull of a flat model
    yield 3.0 * V[0] - 2.0 * center


def assert_screened_is_unscreened(model, targets):
    for x in targets:
        want = assert_enumeration_is_the_reference(model, x)
        first = membership(model, x)
        assert (first is None) == (not want)
        if first is not None:
            assert first.support == want[0][0]
            assert np.array_equal(first.weights, want[0][1])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_screened_enumeration_is_bitwise_the_unscreened_one(d):
    rng = as_rng(41 + d)
    for n in (d + 2, VERTEX_CAP):
        model = random_sphere_model(n, d, rng)
        assert_screened_is_unscreened(model, screen_targets(model, rng))
    # a sphere model mapped into one more dimension by an isometry plus an offset
    if d < gpt.DIM_CAP:
        for n in (d + 2, VERTEX_CAP):
            turn = np.linalg.qr(rng.normal(size=(d + 1, d + 1)))[0][:, :d]
            V = random_sphere_model(n, d, rng).vertices @ turn.T + 5.0 * rng.normal(size=d + 1)
            assert_screened_is_unscreened(ConvexModel(V), hull_targets(V, rng))
    # models with n <= d, whose hull has dimension n - 1
    for n in range(1, d + 1):
        V = rng.normal(size=(n, d))
        assert_screened_is_unscreened(ConvexModel(V), hull_targets(V, rng))


def stacked_kernel_models(rng):
    """Vertex arrays of every kind the kernel stacks, several of each (n, d).

    Sphere models with d 1-4 and n up to VERTEX_CAP; flat, turned models
    beside full-dimensional ones of their shape, so that hull dimensions
    mix in one call; thin ones; ones scaled to 3e5 or offset to 1e8 beside
    plain ones, so that their solve frames differ within a stack;
    the cube beside a sphere model of its shape, whose stack then holds
    exactly singular screen systems; and models with n <= d.
    """
    yield random_sphere_model(2, 1, rng).vertices
    for d in (2, 3, 4):
        for n in (d + 1, d + 2, 8, VERTEX_CAP):
            for _ in range(2):
                yield random_sphere_model(n, d, rng).vertices
        for n in (d + 2, 8):
            if d > 2:
                yield flat_model(n, d, rng, turned=True)
            for squash in (1e-5, 1e-7):
                yield random_sphere_model(n, d, rng).vertices * np.r_[np.ones(d - 1), squash]
            yield random_sphere_model(n, d, rng).vertices + 1e8
            yield random_sphere_model(n, d, rng).vertices * 3e5
        for n in range(1, d + 1):
            yield rng.normal(size=(n, d))
    yield np.array(UNIT_CUBE)


def stacked_kernel_states(V, rng):
    """Interior, at the vertices, V[0] + 1e-9, just off the hull and outside it."""
    center = V.mean(axis=0)
    yield rng.dirichlet(np.ones(len(V))) @ V
    yield from (V[0], V[-1], V[0] + 1e-9)
    yield V[0] + 1e-6 * (V[0] - center)
    yield 3.0 * V[0] - 2.0 * center


def test_stacked_enumeration_is_the_per_state_enumeration(monkeypatch):
    rng = as_rng(107)
    vertex_sets = [ConvexModel(V).vertices for V in stacked_kernel_models(rng)]
    pairs = [(V, x) for V in vertex_sets for x in stacked_kernel_states(V, rng)]
    models = [ConvexModel(V, check_extreme=False) for V, _ in pairs]
    states = [x for _, x in pairs]
    starts, screened, singular = [], [], []
    kernel, screen, det = gpt._screened_solutions, gpt._screen, np.linalg.det
    monkeypatch.setattr(gpt, "_screened_solutions", lambda *args: starts.append(len(screened)) or kernel(*args))
    monkeypatch.setattr(gpt, "_screen", lambda a, b: screened.append(a.shape) or screen(a, b))
    monkeypatch.setattr(np.linalg, "det", lambda a: singular.append(a.shape) or det(a))
    found = gpt._enumerate(models, states)
    monkeypatch.undo()
    # one kernel call per vertex shape; where flat and full-dimensional models
    # share one, its screen runs once per hull dimension; the cube's stack raised
    per_call = [screened[a:b] for a, b in zip(starts, starts[1:] + [len(screened)])]
    assert len(per_call) == len({V.shape for V in vertex_sets})
    assert max(len({shape[2] for shape in call}) for call in per_call) == 2 and singular
    for model, x, decs in zip(models, states, found):
        want = enumerate_basic_decompositions(ConvexModel(model.vertices, check_extreme=False), x)
        assert [dec.support for dec in decs] == [dec.support for dec in want]
        assert all(a.weights.tobytes() == b.weights.tobytes() for a, b in zip(decs, want))
        key, cached_decs, join = model._decompositions
        assert (key, cached_decs) == (x.tobytes(), tuple(decs))
        # the batch's join, kept beside the decompositions, is the per-state join, read-only
        if decs:
            assert not join.flags.writeable and join.tobytes() == _join([dec.weights for dec in decs]).tobytes()
        else:
            assert join is None
        cached = enumerate_basic_decompositions(model, x)
        assert cached == decs and all(a is b for a, b in zip(cached, decs))
    assert sum(map(len, found)) > len(models)
    # the extremality check, on the models and with an interior vertex added;
    # the unscreened check works in raw coordinates, so offset models skip it
    for V in vertex_sets:
        unscreened = len(V) <= 6 and np.abs(V).max() < gpt.SOLVE_SCALE
        assert first_non_extreme(V) is None
        assert not unscreened or reference_first_non_extreme(V) is None
        if len(V) > V.shape[1] + 1:
            W = _with_vertex(V, 1, V[: V.shape[1] + 1].mean(axis=0))
            assert first_non_extreme(W) == 1
            assert not unscreened or reference_first_non_extreme(W) == 1


def _with_vertex(V, position, point):
    return np.insert(V, position, point, axis=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_extremality_names_the_same_vertex_as_the_unscreened_check(d):
    rng = as_rng(53 + d)
    V = random_sphere_model(d + 4, d, rng).vertices
    # the model itself, then shifted and scaled copies
    for scale, shift in ((1.0, 0.0), (1.0, 3.0), (1e3, -40.0), (1e-2, 0.5)):
        _assert_extremality_is_the_unscreened_check(scale * V + shift * np.linspace(1.0, -1.0, d))


def _assert_extremality_is_the_unscreened_check(V):
    d = V.shape[1]
    assert reference_first_non_extreme(V) is None
    assert first_non_extreme(V) is None
    ConvexModel(V)
    a, b = hull_edge(V)
    nudge = np.full(d, 1e-11 / math.sqrt(d))
    bad = {
        "interior": _with_vertex(V, 2, V[:d + 1].mean(axis=0)),
        "duplicate": _with_vertex(V, 1, V[4]),
        "edge-midpoint": _with_vertex(V, 3, 0.5 * (V[a] + V[b])),
        "near-duplicate": _with_vertex(V, 2, V[3] + nudge),
        # vertex 1 needs a larger support than the duplicate at the end
        "two-faults": _with_vertex(_with_vertex(V, 1, V[:d + 1].mean(axis=0)), len(V) + 1, V[3]),
    }
    for label, W in bad.items():
        i = reference_first_non_extreme(W)
        assert i is not None, label
        assert first_non_extreme(W) == i, label
        with pytest.raises(ValueError, match=f"^vertex {i} is a convex combination of the others$"):
            ConvexModel(W)


def _screen_must_not_run(*args):
    raise AssertionError("the screen ran on a model the certificate should cover")


def test_sphere_models_at_audit_sizes_are_fully_certified(monkeypatch):
    monkeypatch.setattr(gpt, "_screen", _screen_must_not_run)
    rng = as_rng(59)
    for d in range(2, gpt.DIM_CAP + 1):
        for n in (*range(d + 2, 9), VERTEX_CAP):
            for _ in range(5):
                model = random_sphere_model(n, d, rng)  # builds a checked ConvexModel
                assert gpt._certified_extreme(model.vertices[None]).all()
    # beyond CERTIFY_SCALE rounding could outgrow the bound, so nothing is certified
    assert not gpt._certified_extreme(2.0 * gpt.CERTIFY_SCALE * model.vertices[None]).any()


@pytest.mark.parametrize("push", [1e-10, 1e-7])
def test_vertex_pushed_out_of_a_face_by_less_than_the_bound_goes_to_the_exact_solve(monkeypatch, push):
    # (1 + push, 0) lies outside the square's right edge; the exact solve
    # accepts the edge for it when push is within RESIDUAL_TOL and rejects it
    # otherwise, and the certificate, which needs a margin near 2e-6 here,
    # leaves the verdict to it either way
    V = np.array(SQUARE + [[1.0 + push, 0.0]])
    assert list(np.flatnonzero(~gpt._certified_extreme(V[None])[0])) == [4]
    screened = []
    screen = gpt._screen
    monkeypatch.setattr(gpt, "_screen", lambda *args: screened.append(1) or screen(*args))
    want = reference_first_non_extreme(V)
    assert want == (4 if push < gpt.RESIDUAL_TOL else None)
    assert first_non_extreme(V) == want
    assert screened


def hull_edge(V):
    """Two vertices whose midpoint has exactly one basic decomposition, over them."""
    return next(
        pair for pair in itertools.combinations(range(len(V)), 2)
        if len(list(reference_solutions(V, V[list(pair)].mean(axis=0), V.shape[1]))) == 1
    )


def record_screens_and_solves(monkeypatch):
    """The stack shape of each _screen call and one entry per lstsq call, as they happen."""
    screened, solves = [], []
    screen, lstsq = gpt._screen, np.linalg.lstsq
    monkeypatch.setattr(gpt, "_screen", lambda a, b: screened.append(a.shape) or screen(a, b))
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: solves.append(1) or lstsq(*args, **kw))
    return screened, solves


@pytest.mark.parametrize(
    "vertices",
    [
        [[0.0, 0.0], [1.0, 2.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.25]],
    ],
    ids=["segment-in-R2", "triangle-in-R3", "tetrahedron-in-R4"],
)
def test_models_with_n_at_most_d_are_screened_in_their_hull(monkeypatch, vertices):
    # the hull has dimension n - 1, so its one simplex, the model, is the screen
    model = ConvexModel(vertices)
    screened, solves = record_screens_and_solves(monkeypatch)
    V = model.vertices
    n = len(V)
    off = np.zeros(model.ambient_dim)
    off[-1] = 1e-3
    # the last two straddle the residual threshold: support (0,) is accepted at the first, rejected at the second
    for x in (
        *V, V.mean(axis=0), 0.3 * V[0] + 0.7 * V[-1], V.mean(axis=0) + off,
        V[0] + 0.5 * RESIDUAL_TOL, V[0] + 1.0 * RESIDUAL_TOL, V[0] + 1.0000001 * RESIDUAL_TOL,
    ):
        screened.clear()
        assert_enumeration_is_the_reference(model, x)
        assert screened == [(1, 1, n, n)]
    # at the centroid the screen proves every smaller support empty: one lstsq, on the model itself
    solves.clear()
    assert [dec.support for dec in enumerate_basic_decompositions(model, V.mean(axis=0))] == [tuple(range(n))]
    assert len(solves) == 1


def flat_model(n, d, rng, turned, height=0.0):
    """n points in general position on the hyperplane x_d = 0 of R^d, turned and shifted if asked.

    A nonzero height lifts them alternately to +height and -height.
    """
    V = np.c_[random_sphere_model(n, d - 1, rng).vertices, height * (-1.0) ** np.arange(n)]
    if turned:
        V = V @ np.linalg.qr(rng.normal(size=(d, d)))[0] + rng.normal(size=d)
    return V


FLAT = pytest.mark.parametrize(
    "turned,height", [(False, 0.0), (True, 0.0), (True, 1e-7)], ids=["on-an-axis", "turned", "nearly-flat"]
)


@FLAT
def test_flat_models_are_screened_in_their_affine_hull(monkeypatch, turned, height):
    # 12 (nearly) coplanar points in R^3 have a plane for their hull, so the
    # screen takes the plane's own triangles alone; a state off the plane
    # has no support, and only the 4-subsets of the nearly flat model, which
    # pass the rank test, reach lstsq unproven
    rng = as_rng(101)
    model = ConvexModel(flat_model(VERTEX_CAP, 3, rng, turned, height))
    V = model.vertices
    normal = np.linalg.svd(V[1:] - V[0])[2][-1]
    screened, solves = record_screens_and_solves(monkeypatch)
    for x in (random_interior_point(model, rng) for _ in range(4)):
        screened.clear()
        solves.clear()
        found = len(enumerate_basic_decompositions(model, x))
        assert screened == [(1, math.comb(VERTEX_CAP, 3), 3, 3)]
        assert 0 < found <= len(solves) <= found + (math.comb(VERTEX_CAP, 4) if height else 0)
        assert len(assert_enumeration_is_the_reference(model, x)) == found
    a, b = hull_edge(V)
    for x in (V[0], V[-1], 0.5 * (V[a] + V[b])):
        assert assert_enumeration_is_the_reference(model, x)
    for x in (random_interior_point(model, rng) + 1e-3 * normal, 3.0 * V[0] - 2.0 * V.mean(axis=0)):
        solves.clear()
        assert enumerate_basic_decompositions(model, x) == []
        assert len(solves) <= (math.comb(VERTEX_CAP, 4) if height else 0)
        assert assert_enumeration_is_the_reference(model, x) == []


@FLAT
def test_extremality_in_flat_models_is_the_unscreened_check(monkeypatch, turned, height):
    rng = as_rng(103)
    V = flat_model(8, 3, rng, turned, height)
    _assert_extremality_is_the_unscreened_check(V)
    # beyond CERTIFY_SCALE nothing is certified, and the hull screen proves
    # every support of a flat model empty
    screened, solves = record_screens_and_solves(monkeypatch)
    assert not gpt._certified_extreme(3e8 * V[None]).any()
    assert first_non_extreme(3e8 * V) is None
    assert screened == [(1, math.comb(8, 3), 3, 3)]
    assert height or not solves


def test_cube_faces_edges_and_vertices_are_the_reference():
    rng = as_rng(73)
    model = ConvexModel(UNIT_CUBE)
    for axis, side in itertools.product(range(3), (0.0, 1.0)):
        for x in (np.full(3, 0.5), rng.uniform(size=3)):
            x[axis] = side  # the face center, then a point on the face
            assert assert_enumeration_is_the_reference(model, x)
    for corner in model.vertices:
        assert len(assert_enumeration_is_the_reference(model, corner)) == 1
        assert len(assert_enumeration_is_the_reference(model, 0.5 * (corner + model.vertices[0]))) >= 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vertex_edge_and_facet_at_the_vertex_cap_are_the_reference(d):
    rng = as_rng(79 + d)
    model = random_sphere_model(VERTEX_CAP, d, rng)
    V = model.vertices
    a, b = hull_edge(V)
    for x in (V[0], V[VERTEX_CAP - 1], 0.5 * (V[a] + V[b]), facet_point(V, rng)):
        assert assert_enumeration_is_the_reference(model, x)


def test_state_just_outside_an_edge_is_accepted_as_the_exact_solve_accepts_it():
    # the edge (0, 1) writes (1 + 5e-10, 0.5) with residual 2.5e-10 <= RESIDUAL_TOL
    # and a weight sum 2.5e-10 off 1, which Decomposition once refused
    model = ConvexModel(SQUARE)
    x = [1.0 + 5e-10, 0.5]
    want = assert_enumeration_is_the_reference(model, x)
    assert [support for support, _ in want] == [(0, 1)]
    value, dec = gpt_entropy(model, x, make_shannon())
    assert dec.support == (0, 1) and np.array_equal(dec.weights, want[0][1])
    assert value == entropy_finite(ProbVector.from_computation(want[0][1]), make_shannon()).value


@pytest.mark.parametrize("offset", [1e6, 1e8, -1e8])
def test_offset_models_keep_their_entropy_and_their_hull(offset):
    # Near 1e8 a residual's rounding exceeds RESIDUAL_TOL, and a weight sum
    # 1e-9 off 1 moves the barycenter by 0.1: the exact solve centers and
    # scales such coordinates.
    square = 3.0 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    x = square.mean(axis=0) + [0.3, 0.1]
    want, _ = gpt_entropy(ConvexModel(square), x, make_shannon())
    model = ConvexModel(square + offset)
    value, dec = gpt_entropy(model, x + offset, make_shannon())
    assert abs(value - want) <= 1e-6 and len(dec.support) == 3
    # 1e-3 below the bottom edge, the model's scale and rounding notwithstanding
    assert gpt_entropy(model, [offset + 1.5, offset - 1e-3], make_shannon()) == (math.inf, None)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generic_states_screen_only_the_simplices_and_solve_once_per_decomposition(monkeypatch, d):
    rng = as_rng(89 + d)
    screened, solves = record_screens_and_solves(monkeypatch)
    for n in (d + 2, VERTEX_CAP):
        model = random_sphere_model(n, d, rng)
        for _ in range(4):
            screened.clear()
            solves.clear()
            decs = enumerate_basic_decompositions(model, random_interior_point(model, rng))
            assert screened == [(1, math.comb(n, d + 1), d + 1, d + 1)]
            assert len(solves) == len(decs) > 0


@pytest.mark.parametrize("squash", [1.0, 1e-7], ids=["round", "flat-along-an-axis"])
def test_models_beyond_the_certify_scale_are_proven_extreme_without_a_solve(monkeypatch, squash):
    # the hyperplane certificate stops at CERTIFY_SCALE; the simplex screen,
    # on coordinates rescaled by powers of two, needs no exact solve here
    V = random_sphere_model(8, 3, as_rng(97)).vertices * np.array([3e8, 3e8, 3e8 * squash])
    assert not gpt._certified_extreme(V[None]).any()
    assert reference_first_non_extreme(V) is None
    sent, exact = [], gpt._exact_solutions
    monkeypatch.setattr(gpt, "_exact_solutions", lambda a, x: sent.append(len(a)) or exact(a, x))
    assert first_non_extreme(V) is None
    assert sum(sent) == 0


def reference_certified_extreme(V):
    """The hyperplane certificate of one model (n, d), written out an anchor at a time."""
    n, d = V.shape
    V = gpt._solve_frame(V, V)[0]
    certified = np.zeros(n, dtype=bool)
    if n < 2 or float(np.abs(V).max()) > gpt.CERTIFY_SCALE:
        return certified
    for anchor in (np.zeros(d), V.mean(axis=0)):
        C = V - anchor
        G = C @ V.T
        own = G.diagonal().copy()
        np.fill_diagonal(G, -np.inf)
        M = G.max(axis=1)
        certified |= own - M > gpt.SCREEN_RESIDUAL * (np.abs(C).sum(axis=1) + np.abs(M))
    return certified


def mixed_scale_models(n, d, rng):
    """Models of one vertex shape at the scales the certificate meets, beyond CERTIFY_SCALE included."""
    points = rng.standard_normal((n, d))
    sphere = points / np.linalg.norm(points, axis=1, keepdims=True)
    flat = sphere * np.r_[np.ones(d - 1), 1e-7]
    return [sphere, sphere + 1e8, sphere * 3e7, flat, points, np.round(points), sphere * 2.0 * gpt.CERTIFY_SCALE]


def test_stacked_certificate_is_each_models_own():
    # every row of a stacked call is, bit for bit, the stack of one of that
    # model and the per-anchor certificate; the stacks mix scales, so some
    # models skip the certificate while others in the same call take it
    rng = as_rng(109)
    seen = set()
    for d in range(1, gpt.DIM_CAP + 1):
        for n in range(1, VERTEX_CAP + 1):
            for _ in range(4):
                pool = mixed_scale_models(n, d, rng)
                for m in range(1, 6):
                    stack = np.stack([pool[i] for i in rng.integers(0, len(pool), m)])
                    got = gpt._certified_extreme(stack)
                    assert got.shape == (m, n)
                    for V, mask in zip(stack, got):
                        assert np.array_equal(mask, gpt._certified_extreme(V[None])[0])
                        assert np.array_equal(mask, reference_certified_extreme(V))
                        seen.add((bool(mask.all()), bool(mask.any())))
    assert seen == {(True, True), (False, True), (False, False)}


def test_stacked_certificate_names_the_first_non_extreme_model_and_vertex():
    rng = as_rng(113)
    spheres = [random_sphere_model(5, 2, rng).vertices for _ in range(3)]
    gpt._require_extreme(np.stack(spheres))
    midpoint = _with_vertex(np.array(SQUARE), 1, [1.0, 0.0])  # vertex 1 halves the edge (0, 2)
    center = _with_vertex(np.array(SQUARE), 3, [0.0, 0.0])
    assert reference_first_non_extreme(midpoint) == 1 and reference_first_non_extreme(center) == 3
    for position in range(len(spheres) + 1):
        stack = np.stack(spheres[:position] + [midpoint] + spheres[position:])
        with pytest.raises(ValueError, match="^vertex 1 is a convex combination of the others$"):
            gpt._require_extreme(stack)
    for first, i in ((midpoint, 1), (center, 3)):
        with pytest.raises(ValueError, match=f"^vertex {i} is a convex combination of the others$"):
            gpt._require_extreme(np.stack([spheres[0], first, midpoint, center]))
        with pytest.raises(ValueError, match=f"^vertex {i} is a convex combination of the others$"):
            ConvexModel(first)


def test_gpt_argmin_certifies_every_model_once_per_vertex_shape(monkeypatch):
    # sphere vertices are all certified, so no model goes on to the screened
    # solve of _require_extreme, and each shape takes one certificate
    stacks, masks, certified_extreme = [], [], gpt._certified_extreme

    def certify(V):
        stacks.append(V.shape)
        masks.append(certified_extreme(V))
        return masks[-1]

    monkeypatch.setattr(gpt, "_certified_extreme", certify)
    report = run_audit("gpt-argmin", trials=40)
    assert report.cases and report.violations == 0
    assert all(mask.all() for mask in masks)
    assert sum(m for m, _, _ in stacks) == 40
    assert len(stacks) == len({shape[1:] for shape in stacks})


def test_one_certificate_per_stack(monkeypatch):
    # the circle is certified; scaled past CERTIFY_SCALE it is extreme but
    # uncertified; the square's appended center is the stack's one fault
    circle = random_sphere_model(5, 2, as_rng(127)).vertices
    stack = np.stack([circle, 3e8 * circle, np.array(SQUARE + [[0.0, 0.0]])])
    calls, certify = [], gpt._certified_extreme
    assert [mask.all() for mask in certify(stack)] == [True, False, False]
    monkeypatch.setattr(gpt, "_certified_extreme", lambda V: calls.append(V.shape) or certify(V))
    with pytest.raises(ValueError, match="^vertex 4 is a convex combination of the others$"):
        gpt._require_extreme(stack)
    assert calls == [(3, 5, 2)]


def test_decomposition_validation():
    model = ConvexModel(SQUARE)
    with pytest.raises(ValueError):
        Decomposition(support=(0, 0), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Decomposition(support=(0, 1), weights=np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        Decomposition(support=(0, 1), weights=np.array([0.4, 0.4]))
    with pytest.raises(ValueError):
        Decomposition(support=(0, 1), weights=np.array([math.nan, math.nan]))
    d = Decomposition(support=(0, 3), weights=np.array([0.5, 0.5]))
    assert np.allclose(d.weights @ model.vertices[list(d.support)], [0.0, 0.0], rtol=0, atol=1e-15)


# Five vertices whose origin has basic decompositions of sizes 2 and 3: the
# two-point one comes first although (0, 1, 2) is lexicographically smaller.
ORDER_MODEL = [[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0], [-2.0, 0.0], [2.0, 0.0]]


def test_enumeration_is_by_support_size_then_lexicographic():
    model = ConvexModel(ORDER_MODEL)
    decs = enumerate_basic_decompositions(model, [0.0, 0.0])
    assert [dec.support for dec in decs] == [(3, 4), (0, 1, 2), (0, 2, 4), (1, 2, 3)]
    assert membership(model, [0.0, 0.0]).support == (3, 4)
    assert gpt_entropy(model, [0.0, 0.0], make_shannon())[1].support == (3, 4)
    # (0, 2, 4) and (1, 2, 3) both have weights (0.4, 0.4, 0.2) up to rounding, and tie under
    # these functionals: the first in that order wins the tie
    for F in (make_shannon(), functional_from_spec("renyi:alpha=2")):
        assert minimize_entropy(decs[2:3], F)[0] == minimize_entropy(decs[3:], F)[0]
        assert minimize_entropy(decs[2:], F)[1] is decs[2]


def gpt_blocks(rng):
    """Random (supports, weights) blocks of the exact solve's shapes: sizes 1..DIM_CAP + 1, 1 to 40 rows."""
    for k in range(1, gpt.DIM_CAP + 2):
        for m in (1, 2, 3, 7, 40):
            supports = np.array([np.sort(rng.choice(VERTEX_CAP, size=k, replace=False)) for _ in range(m)])
            yield supports, rng.dirichlet(np.ones(k), size=m)


def near_threshold_rows(w, rng):
    """Copies of one weight row moved to either side of the floor and sum thresholds, and a NaN row."""
    k = len(w)
    for floor in (ZERO_TOL, np.nextafter(ZERO_TOL, 1.0), np.nextafter(ZERO_TOL, 0.0), 0.5 * ZERO_TOL):
        row = w.copy()
        i = int(rng.integers(k))
        row[(i + 1) % k] += row[i] - floor  # the sum stays within rounding of 1 when k > 1
        row[i] = floor
        yield row
    for off in (RESIDUAL_TOL, -RESIDUAL_TOL, 1.5 * RESIDUAL_TOL, -1.5 * RESIDUAL_TOL):
        row = w.copy()
        row[0] += off
        for _ in range(4):  # walk the last bits of the sum across the threshold
            yield row.copy()
            row[0] = np.nextafter(row[0], np.inf if off < 0 else -np.inf)
    row = w.copy()
    row[-1] = math.nan
    yield row


def constructor_error(support, w):
    try:
        Decomposition(support=tuple(support), weights=w)
    except ValueError as err:
        return str(err)
    return None


def test_block_checks_are_the_constructor_checks_bit_for_bit():
    rng = as_rng(29)
    rejected = accepted = 0
    for supports, W in gpt_blocks(rng):
        for row in near_threshold_rows(W[0], rng):
            at = int(rng.integers(len(W)))
            block = W.copy()
            block[at] = row
            want = constructor_error(supports[at], row)
            if want is None:
                accepted += 1
                decs = Decomposition._rows(supports, block)
                assert [dec.support for dec in decs] == [tuple(s) for s in supports.tolist()]
            else:
                rejected += 1
                with pytest.raises(ValueError) as err:
                    Decomposition._rows(supports, block)
                assert str(err.value) == want
    assert accepted > 100 and rejected > 100


@pytest.mark.parametrize(
    "row,message",
    [
        ([0.5, 0.5 - RESIDUAL_TOL, math.nan], "exceed"),
        ([0.5, 0.5 - ZERO_TOL, ZERO_TOL], "exceed"),
        ([0.5, 0.5 + 2 * RESIDUAL_TOL, 0.25], "sum to 1"),
    ],
    ids=["nan", "at-floor", "sum-off"],
)
def test_block_check_raises_the_constructor_error_of_the_first_failing_row(row, message):
    supports = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
    good = np.array([0.5, 0.3, 0.2])
    bad = np.array(row)
    block = np.array([good, bad, good, [0.5, 0.5, math.nan]])
    want = constructor_error((1, 2, 3), bad)
    assert message in want
    with pytest.raises(ValueError) as err:
        Decomposition._rows(supports, block)
    assert str(err.value) == want


def test_block_decompositions_are_the_constructed_ones():
    model = random_sphere_model(8, 3, as_rng(31))
    x = random_interior_point(model, as_rng(32))
    decs = enumerate_basic_decompositions(model, x)
    assert len(decs) > 1
    for dec in decs:
        built = Decomposition(support=dec.support, weights=np.array(dec.weights))
        assert type(dec) is Decomposition
        assert not dec.weights.flags.writeable and dec.weights.ndim == 1
        assert all(type(i) is int for i in dec.support) and type(dec.support) is tuple
        assert dec.support == built.support and np.array_equal(dec.weights, built.weights)
        assert repr(dec) == repr(built)
        with pytest.raises(ValueError):
            dec.weights[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.support = (0,)


# ------------------------------------------------------------------ entropy

def test_square_golden_entropies():
    model = ConvexModel(SQUARE)
    F = make_shannon()
    center_value, center_dec = gpt_entropy(model, [0.0, 0.0], F)
    assert abs(center_value - LN2) <= 1e-9
    assert center_dec.support == (0, 3)  # lexicographic tie-break
    edge_value, edge_dec = gpt_entropy(model, [0.5, 0.0], F)
    assert abs(edge_value - 1.5 * LN2) <= 1e-9
    vertex_value, vertex_dec = gpt_entropy(model, [1.0, 1.0], F)
    assert vertex_value == 0.0
    assert vertex_dec.support == (0,)


def test_center_is_entropy_minimal_on_its_cross_section():
    # the two-point diagonal split at the center beats the three-point
    # decompositions forced at off-center points like (1/2, 0)
    model = ConvexModel(SQUARE)
    F = make_shannon()
    center_value, _ = gpt_entropy(model, [0.0, 0.0], F)
    for x in ([0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]):
        value, _ = gpt_entropy(model, x, F)
        assert value > center_value


def test_one_enumeration_gives_every_functional_its_gpt_entropy():
    rng = as_rng(61)
    functionals = [functional_from_spec(spec) for spec in DEFAULT_FUNCTIONAL_SPECS]
    for _ in range(8):
        d = int(rng.integers(2, 4))
        model = random_sphere_model(int(rng.integers(d + 2, 9)), d, rng)
        x = random_interior_point(model, rng)
        decs = enumerate_basic_decompositions(model, x)
        # a fresh model enumerates anew, so the cached list is not compared with itself
        fresh = ConvexModel(model.vertices, check_extreme=False)
        for F in functionals:
            value, dec = minimize_entropy(decs, F)
            want_value, want_dec = gpt_entropy(fresh, x, F)
            assert value == want_value
            assert dec.support == want_dec.support
            assert np.array_equal(dec.weights, want_dec.weights)
    assert minimize_entropy([], make_shannon()) == (math.inf, None)


def reference_minimize_entropy(decs, F):
    """The per-decomposition loop: one entropy_finite call each, first minimum kept."""
    best_value, best = math.inf, None
    for dec in decs:
        value = entropy_finite(ProbVector.from_computation(dec.weights), F).value
        if value < best_value:
            best_value, best = value, dec
    return best_value, best


def test_batched_minimize_entropy_is_the_per_decomposition_loop():
    rng = as_rng(83)
    functionals = [functional_from_spec(spec) for spec in (*DEFAULT_FUNCTIONAL_SPECS, "tsallis:q=0.5")]
    mixed_lengths = 0
    for d in (2, 3, 4):
        for _ in range(6):
            model = random_sphere_model(int(rng.integers(d + 2, 9)), d, rng)
            V = model.vertices
            # a chord midpoint adds a two-point support to the (d + 1)-point ones
            for x in (random_interior_point(model, rng), 0.5 * (V[0] + V[1])):
                decs = enumerate_basic_decompositions(model, x)
                mixed_lengths += len({len(dec.support) for dec in decs}) > 1
                for F in functionals:
                    value, dec = minimize_entropy(decs, F)
                    want_value, want = reference_minimize_entropy(decs, F)
                    assert np.float64(value).view(np.int64) == np.float64(want_value).view(np.int64)
                    assert dec is want
    assert mixed_lengths


def test_minimize_entropy_keeps_the_first_of_tied_decompositions():
    decs = [
        Decomposition(support=(0, 1, 2), weights=np.array([0.4, 0.35, 0.25])),
        Decomposition(support=(3, 4), weights=np.array([0.7, 0.3])),
        Decomposition(support=(1, 2, 4), weights=np.array([0.6, 0.3, 0.1])),
        Decomposition(support=(0, 5), weights=np.array([0.3, 0.7])),  # ties with (3, 4)
    ]
    for F in (make_shannon(), functional_from_spec("renyi:alpha=2")):
        value, dec = minimize_entropy(decs, F)
        assert dec is decs[1]
        assert (value, dec) == reference_minimize_entropy(decs, F)
        assert minimize_entropy(decs[2:], F)[1] is decs[3]


def test_minimize_entropy_divides_out_drift_as_from_computation_does():
    # Decomposition admits a weight sum 1 +/- 1e-10; drift above ZERO_TOL is divided out
    dec = Decomposition(support=(0, 1), weights=np.array([0.7, 0.3 + 5e-11]))
    for F in (make_shannon(), functional_from_spec("renyi:alpha=2")):
        value, _ = minimize_entropy([dec], F)
        assert value == reference_minimize_entropy([dec], F)[0]
        assert value != entropy_finite(dec.weights, F).value


def test_gpt_entropy_outside_hull():
    model = ConvexModel(SQUARE)
    value, dec = gpt_entropy(model, [3.0, 0.0], make_shannon())
    assert value == math.inf
    assert dec is None


def test_fan_point_matches_quantum_diagonal():
    # two-outcome fan: segment between (1,0) and (0,1); the point
    # (lam, 1-lam) has the unique weight vector (lam, 1-lam), so its
    # entropy must agree with the diagonal density matrix diag(lam, 1-lam)
    fan = ConvexModel([[1.0, 0.0], [0.0, 1.0]])
    specs = ("shannon", "renyi:alpha=2", "tsallis:q=0.5", "kaniadakis:kappa=0.25")
    for lam in (0.3, 0.75):
        rho = DensityOperator(np.diag([lam, 1.0 - lam]))
        for spec in specs:
            F = functional_from_spec(spec)
            value, dec = gpt_entropy(fan, [lam, 1.0 - lam], F)
            assert dec is not None
            assert abs(value - quantum_entropy(rho, F).value) <= 1e-9


def test_simplex_entropy_equals_classical():
    F = make_shannon()
    model = ConvexModel(TRIANGLE)
    value, dec = gpt_entropy(model, [0.2, 0.3], F)
    direct = entropy_finite(ProbVector([0.5, 0.2, 0.3]), F).value
    assert abs(value - direct) <= 1e-9
    assert dec.support == (0, 1, 2)

    rng = as_rng(23)
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        model = random_simplex_model(dim, rng)
        x = random_interior_point(model, rng)
        decs = enumerate_basic_decompositions(model, x)
        assert len(decs) == 1  # simplex: unique decomposition
        value, _ = gpt_entropy(model, x, F)
        assert abs(value - entropy_finite(ProbVector.from_computation(decs[0].weights), F).value) <= 1e-9


def test_argmin_depends_on_functional_without_majorant():
    model = ConvexModel(INCOMPARABLE_QUAD)
    value_sh, dec_sh = gpt_entropy(model, INCOMPARABLE_POINT, make_shannon())
    assert dec_sh.support == (1, 2, 3)
    expected_sh = -(0.55 * math.log(0.55) + 0.4 * math.log(0.4) + 0.05 * math.log(0.05))
    assert abs(value_sh - expected_sh) <= 1e-9
    value_r5, dec_r5 = gpt_entropy(model, INCOMPARABLE_POINT, functional_from_spec("renyi:alpha=5"))
    assert dec_r5.support == (0, 1, 2)
    expected_r5 = math.log(0.6**5 + 0.3**5 + 0.1**5) / (1.0 - 5.0)
    assert abs(value_r5 - expected_r5) <= 1e-9


# ----------------------------------------------------------------- majorant

def test_square_center_majorant():
    model = ConvexModel(SQUARE)
    spectrum = gpt_majorant(model, [0.0, 0.0])
    assert np.allclose(spectrum, [0.5, 0.5], rtol=0, atol=1e-12)


def test_majorant_of_incomparable_spectra_is_their_join():
    model = ConvexModel(INCOMPARABLE_QUAD)
    decs = enumerate_basic_decompositions(model, INCOMPARABLE_POINT)
    spectra = [np.sort(d.weights)[::-1] for d in decs]
    assert np.allclose(spectra[0], [0.6, 0.3, 0.1], rtol=0, atol=1e-9)
    assert np.allclose(spectra[1], [0.55, 0.4, 0.05], rtol=0, atol=1e-9)
    # neither spectrum majorizes the other; the join takes the larger partial sums (0.6, 0.95, 1)
    assert np.allclose(gpt_majorant(model, INCOMPARABLE_POINT), [0.6, 0.35, 0.05], rtol=0, atol=1e-9)


def test_majorant_on_simplex_is_the_unique_spectrum():
    rng = as_rng(29)
    model = random_simplex_model(3, rng)
    x = random_interior_point(model, rng)
    dec = membership(model, x)
    spectrum = gpt_majorant(model, x)
    assert np.allclose(spectrum, np.sort(dec.weights)[::-1], rtol=0, atol=1e-12)


def test_majorant_entropy_is_minimal_across_decompositions():
    model = ConvexModel(SQUARE)
    F = make_shannon()
    for x in ([0.0, 0.0], [0.25, 0.25], [0.5, 0.0]):
        spectrum = gpt_majorant(model, x)
        if spectrum is None:
            continue
        h_maj = entropy_finite(ProbVector.from_computation(spectrum), F).value
        for dec in enumerate_basic_decompositions(model, x):
            h_dec = entropy_finite(ProbVector.from_computation(dec.weights), F).value
            assert h_dec >= h_maj - 1e-9


def exact_majorant(spectra):
    """The first spectrum whose partial sums are, without tolerance, at least every other one's."""
    for candidate in spectra:
        if all(majorization_margin(candidate, other) >= 0.0 for other in spectra):
            return candidate
    return None


def sphere_states(seed, per_dim):
    """(model, interior point) pairs of random sphere models with 2 to 4 dimensions and up to 8 vertices."""
    rng = as_rng(seed)
    for d in (2, 3, 4):
        for _ in range(per_dim):
            model = random_sphere_model(int(rng.integers(d + 2, 9)), d, rng)
            yield model, random_interior_point(model, rng)


def test_join_is_the_basic_majorant_where_one_exists():
    found = missing = 0
    for model, x in sphere_states(41, 40):
        spectra = [np.sort(dec.weights)[::-1] for dec in enumerate_basic_decompositions(model, x)]
        got, want = gpt_majorant(model, x), exact_majorant(spectra)
        assert all(majorizes(got, spectrum) for spectrum in spectra)
        if want is None:
            missing += 1
        else:
            found += 1
            padded = np.pad(want / want.sum(), (0, got.size - want.size))
            assert np.allclose(got, padded, rtol=0, atol=4 * np.finfo(float).eps), (got, want)
    assert found and missing


def test_join_entropy_bounds_the_gpt_entropy():
    functionals = [functional_from_spec(spec) for spec in DEFAULT_FUNCTIONAL_SPECS]
    for model, x in sphere_states(43, 30):
        bound = entropy_table([gpt_majorant(model, x)], functionals, computed=True)[0]
        for F, h in zip(functionals, bound):
            assert h <= gpt_entropy(model, x, F)[0] + 1e-12, F.name


def test_join_of_states_at_the_hull_needs_no_common_total():
    # Each accepted weight vector sums to 1 within RESIDUAL_TOL, so two of them
    # can differ by 2e-9: here supports (0, 1) and (0, 3) sum to 1 + 5e-10 and
    # 1 - 5e-10.  The join scales each to total one.
    model = ConvexModel([[1.0, -1.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0]])
    x = model.vertices[0] + 1e-9
    decs = enumerate_basic_decompositions(model, x)
    sums = [float(d.weights.sum()) for d in decs]
    assert max(sums) - min(sums) > 9e-10
    join = gpt_majorant(model, x)
    assert join.shape == (3,) and abs(join.sum() - 1.0) <= 1e-15
    assert np.allclose(join, [1.0, 0.0, 0.0], rtol=0, atol=1e-8)
    assert all(majorizes(join, d.weights / d.weights.sum()) for d in decs)


def test_join_on_unequal_lengths_and_totals():
    assert np.array_equal(_join([[0.5, 0.5], [1.0], [0.4, 0.3, 0.3]]), [1.0, 0.0, 0.0])
    assert np.array_equal(_join([ProbVector([0.25, 0.75])]), [0.75, 0.25])
    # totals pairwise within SUM_TOL but not largest against smallest, and a
    # total far from one: each vector is scaled to total one
    spread = [[1.0], [0.5, 0.5 - 0.9e-9], [0.4 + 0.9e-9, 0.3, 0.3]]
    assert np.allclose(_join(spread), [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(_join([[0.5, 0.5], [0.5, 0.4]]), [5 / 9, 4 / 9], rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        _join([])


# ------------------------------------------------ the exact oracle (fractions)

# The float enumeration misses or invents supports on models thinner than about 1e-7 (ROADMAP item 20).
THIN_DEFECT = pytest.mark.xfail(strict=True, reason="ROADMAP item 20: thin models need exact support decisions")


def dyadic_model(d, rng):
    """Unit-sphere points rounded to multiples of 1/64 (2 for d = 1, else d + 1 to 8), redrawn until ConvexModel takes them."""
    while True:
        points = rng.standard_normal((2 if d == 1 else int(rng.integers(d + 1, 9)), d))
        points = np.round(64 * points / np.linalg.norm(points, axis=1, keepdims=True)) / 64
        try:
            return ConvexModel(points)
        except ValueError:
            continue


def test_exact_oracle_on_the_square():
    half = [Fraction(1, 2)] * 2
    assert exact_decompositions(SQUARE, [0.0, 0.0]) == [((0, 3), half), ((1, 2), half)]
    assert exact_decompositions(SQUARE, [1.0, 1.0]) == [((0,), [Fraction(1)])]
    assert exact_decompositions(SQUARE, [1.0, 0.5]) == [((0, 1), [Fraction(3, 4), Fraction(1, 4)])]
    assert exact_decompositions(SQUARE, [2.0, 0.0]) == []


@functools.cache
def dyadic_cases(d) -> tuple:
    """Four dyadic models, each at three interior states, three vertices and three midpoints of two vertices.

    Drawn at seed 1 and returned as [(model, x, exact_decompositions(V, x))].
    """
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(4):
        model = dyadic_model(d, rng)
        V, n = model.vertices, model.n_vertices
        states = [rng.dirichlet(np.ones(n)) @ V for _ in range(3)]
        states += [V[i] for i in rng.choice(n, min(3, n), replace=False)]
        states += [V[rng.choice(n, 2, replace=False)].mean(axis=0) for _ in range(3)]
        cases += [(model, x, exact_decompositions(V, x)) for x in states]
    return tuple(cases)


def weight_error_bound(V, support) -> float:
    """The forward error of the weights of a backward-stable solve of a consistent full-rank system.

    The system is (d + 1) x k: m k kappa eps with m k = (d + 1) k, taken four times over.
    """
    A = np.vstack([V[list(support)].T, np.ones(len(support))])
    return 4 * A.size * np.linalg.cond(A) * np.finfo(float).eps


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_dyadic_models_have_the_exact_support_lists_and_weights(d):
    differing, errors = [], []
    for model, x, want in dyadic_cases(d):
        got = enumerate_basic_decompositions(model, x)
        if [support for support, _ in want] != [dec.support for dec in got]:
            differing.append(x)
            continue
        for (support, exact), dec in zip(want, got):
            bound = weight_error_bound(model.vertices, support)
            error = max(abs(float(w - Fraction(v))) for w, v in zip(exact, dec.weights.tolist()))
            if error > bound:
                errors.append((x, support, error, bound))
    assert differing == [] and errors == []


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gpt_entropy_is_within_a_stated_bound_of_the_exact_minimum(d):
    # gpt_entropy scores the weights ProbVector.from_computation makes of each
    # solve.  The solve is within delta = weight_error_bound of the exact k
    # weights; from_computation may divide by their float total t, with
    # |t - 1| <= tau = k delta + gamma(k - 1)(1 + k delta), which moves each
    # weight (at most 1) by (delta + tau) / (1 - tau) and rounds it by
    # u (1 + delta) / (1 - tau).  entropy_error_bound carries that weight error
    # and the evaluation's own through phi and h, and over one support list
    # |min_j a_j - min_j b_j| <= max_j |a_j - b_j|.
    u = np.finfo(float).eps / 2
    beyond = []
    for model, x, exact in dyadic_cases(d):
        decs = enumerate_basic_decompositions(model, x)
        assert [dec.support for dec in decs] == [support for support, _ in exact]
        errors = []
        for dec in decs:
            k, delta = len(dec.support), weight_error_bound(model.vertices, dec.support)
            tau = k * delta + (k - 1) * u / (1 - (k - 1) * u) * (1 + k * delta)
            errors.append((delta + tau + u * (1 + delta)) / (1 - tau))
        for F in map(functional_from_spec, DEFAULT_FUNCTIONAL_SPECS):
            value, _ = gpt_entropy(model, x, F)
            want = min(exact_entropy(w, F.family, *F.params.values()) for _, w in exact)
            bound = max(
                entropy_error_bound(ProbVector.from_computation(dec.weights).entries, F, error)
                for dec, error in zip(decs, errors)
            )
            if abs(Decimal(value) - want) > Decimal(bound):
                beyond.append((x.tolist(), F.name, value, float(want), bound))
    assert beyond == []


@pytest.mark.parametrize("thickness", [1e-5, 1e-6, pytest.param(1e-7, marks=THIN_DEFECT), pytest.param(1e-8, marks=THIN_DEFECT)])
def test_thin_models_have_the_exact_support_lists(thickness):
    # Fifteen dyadic models in R^3, the last coordinate scaled by the thickness, each at an interior state.
    rng = np.random.default_rng(1)
    differing = []
    for t in range(15):
        V = dyadic_model(3, rng).vertices * [1.0, 1.0, thickness]
        x = rng.dirichlet(np.ones(len(V))) @ V
        want = [support for support, _ in exact_decompositions(V, x)]
        try:
            got = [dec.support for dec in enumerate_basic_decompositions(ConvexModel(V), x)]
        except ValueError:  # a vertex judged to be a convex combination of the others
            got = None
        if got != want:
            differing.append(t)
    assert differing == []
