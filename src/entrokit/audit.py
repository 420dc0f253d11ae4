"""Randomized audit suites for the inequalities the library promises.

Each suite draws seeded random cases and records one AuditEntry (margin)
per check.  Margins follow the reporting convention: a case passes iff
margin >= -tolerance, so worst_margin is the minimum margin.  All suites
are deterministic given (trials, seed, dims, functionals).

A suite is declared once, where it is defined: ``@_suite(name, tolerance,
trials=..., dims=...)`` registers it in SUITES with its default trials and
dims.  The registration checks the arguments, seeds the generator,
resolves the functionals and turns the body's entries into an AuditReport,
so a body only draws and scores.

Every suite draws all its cases first and scores them afterwards, one
kernel call per (vector length, functional).  Its draws, and each margin
bit for bit, are those of a loop that scores every case as it is drawn.
The trial loops only draw (each Gaussian as the real pair ginibre reads,
a pinching trial's two from one call), and the linear algebra runs
once per stack of trials that share a shape, by the private kernels of
classical and quantum.  Suites that hold one stack per dimension score it
with classical._entropy_columns, the others through entropy_table.  The
margins fill a (rows, cases) array, which _entries turns into AuditEntry
records in one row-major pass.
"""

from __future__ import annotations

from collections.abc import Sized
from itertools import compress, repeat

import numpy as np

from .classical import (
    _bistochastic,
    _entropy_columns,
    _mix_rows,
    _probability_rows,
    _row_margins,
    _unitary_squares,
    entropy_table,
    jensen_step_oracle,
    positions_by_key,
)
from .functionals import EntropicFunctional, FunctionalCase, as_count, functional_from_spec
from .gpt import DIM_CAP, ConvexModel, _enumerate, _require_extreme, gpt_majorant
from .quantum import (
    DensityOperator,
    _complex_pairs,
    _conjugated,
    _eigensystems,
    _ensembles,
    _rank,
    eigen_spectrum,
    haar_isometry,
    inf_ensemble_entropy,
    pinch,
)
from .rand import (
    _sphere_points,
    as_rng,
    density_from_factor,
    random_density,
    random_interior_point,
    random_unitary,
)
from .reporting import EQ_TOL, INEQ_TOL, ISOMETRY_EQ_TOL, AuditEntry, AuditReport, build_report

DEFAULT_FUNCTIONAL_SPECS = (
    "shannon",
    "renyi:alpha=0.5",
    "renyi:alpha=2",
    "tsallis:q=2",
    "kaniadakis:kappa=0.5",
)


def _resolve_functionals(functional_specs) -> list[EntropicFunctional]:
    specs = DEFAULT_FUNCTIONAL_SPECS if functional_specs is None else functional_specs
    out = [F if isinstance(F, EntropicFunctional) else functional_from_spec(F) for F in specs]
    if not out:
        raise ValueError("at least one functional is required")
    return out


SUITES: dict = {}


def _suite(name: str, tolerance: float, trials: int, dims: tuple[int, int]):
    """Register the decorated suite body as ``name`` and return its runner.

    The runner takes (trials, seed, dims, functional_specs), defaulting to
    this suite's trials and dims.  Before any draw it checks trials (at
    least 1), seed (at least 0) and dims, a (lo, hi) pair, by as_count's
    rules, with 1 <= lo <= hi.  It then calls
    ``body(trials, rng, dims, functionals)`` with the seeded generator and
    the resolved functionals, and reports the entries the body returns
    under this suite's name and tolerance.
    """

    def register(body):
        def run(trials=trials, seed=7, dims=dims, functional_specs=None):
            trials = as_count(trials, "trials")
            if trials < 1:
                raise ValueError(f"trials must be at least 1, got {trials}")
            seed = as_count(seed, "seed")
            if seed < 0:
                raise ValueError(f"seed must be nonnegative, got {seed}")
            if not isinstance(dims, Sized) or len(dims) != 2:
                raise ValueError(f"dims must be a (lo, hi) pair, got {dims!r}")
            lo, hi = (as_count(d, "dims") for d in dims)
            if not 1 <= lo <= hi:
                raise ValueError(f"invalid dimension range {dims}")
            entries = body(trials, as_rng(seed), (lo, hi), _resolve_functionals(functional_specs))
            return build_report(name, trials, seed, tolerance, entries)

        run.__name__, run.__qualname__, run.__doc__ = body.__name__, body.__qualname__, body.__doc__
        SUITES[name] = run
        return run

    return register


def _stack(arrays, idx) -> np.ndarray:
    return np.array([arrays[t] for t in idx])


def _draw_dim(rng, dims) -> int:
    return int(rng.integers(dims[0], dims[1] + 1))


def _entries(margins, columns, dims, keep=None) -> list[AuditEntry]:
    """The AuditEntry of each margin of a (rows, columns) array, row by row.

    ``columns`` holds one (case, tolerance, functional name) triple per
    column and ``dims`` one dimension per row; where the boolean array
    ``keep`` is false no entry is made.  Each entry equals what
    AuditEntry.check builds, with Python float, bool and int fields.  Each
    field is flattened once and the records come from one flat zip.
    """
    cases, tolerances, names = zip(*columns)
    passed = (margins >= -np.array(tolerances)).ravel().tolist()
    rows, dims = len(margins), np.repeat(dims, len(columns)).tolist()
    fields = zip(cases * rows, margins.ravel().tolist(), tolerances * rows, passed, names * rows, dims)
    # tuple.__new__ is what AuditEntry's own __new__ calls, less its argument binding.
    records = map(tuple.__new__, repeat(AuditEntry), fields)
    return list(records if keep is None else compress(records, keep.ravel().tolist()))


@_suite("schur", INEQ_TOL, trials=500, dims=(2, 8))
def run_schur_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Doubly stochastic mixing: majorization, Schur concavity, Jensen rows.

    The trial loop only draws: each dimension n, a Haar unitary and the
    Dirichlet draw random_prob_vector makes.  The trials of one dimension
    are then handled as one stack: one _unitary_squares, _bistochastic,
    _probability_rows for the vectors p, _mix_rows and row-paired _row_margins,
    one _entropy_columns call on p and Qp together, and one
    jensen_step_oracle per functional, all on the same stacked Q and p.
    The margins fill one (trials, 1 + 3 * functionals) array, and each is
    bit for bit that of a loop that builds and scores every trial as it is
    drawn.
    """
    drawn_dims, unitaries, draws = [], [], []
    for _ in range(trials):
        n = _draw_dim(rng, dims)
        drawn_dims.append(n)
        unitaries.append(random_unitary(n, rng))
        draws.append(rng.dirichlet(np.ones(n)))  # random_prob_vector's draw
    margins = np.empty((trials, 1 + 3 * len(functionals)))
    for idx in positions_by_key(drawn_dims):
        Q = _bistochastic(_unitary_squares(_stack(unitaries, idx)))
        p = _probability_rows(_stack(draws, idx), "computed")
        q = _mix_rows(Q, p)
        margins[idx, 0] = _row_margins(p, q)
        hp, hq = np.split(_entropy_columns(np.concatenate([p, q]), functionals), 2)
        margins[idx, 1::3] = hq - hp
        for j, F in enumerate(functionals):
            int_f, int_phi, disc_q, disc_sum = jensen_step_oracle(Q, p, F)
            f_worst = np.min(-np.abs(int_f - disc_q), axis=1)
            phi_worst = np.min(-np.abs(int_phi - disc_sum), axis=1)
            # Python's min(f, phi): phi only where it is strictly smaller.
            margins[idx, 2 + 3 * j] = np.where(phi_worst < f_worst, phi_worst, f_worst)
            points = F.phi(disc_q)
            if F.case is FunctionalCase.INCREASING_CONCAVE:
                margins[idx, 3 + 3 * j] = np.min(points - disc_sum, axis=1)
            else:
                margins[idx, 3 + 3 * j] = np.min(disc_sum - points, axis=1)
    cases = ("entropy-monotone", INEQ_TOL), ("jensen-integral-match", EQ_TOL), ("jensen-direction", EQ_TOL)
    columns = [("mixing-majorization", EQ_TOL, "")] + [(c, tol, F.name) for F in functionals for c, tol in cases]
    return _entries(margins, columns, drawn_dims)


@_suite("pinching", INEQ_TOL, trials=500, dims=(2, 8))
def run_pinching_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """H never drops under pinching, with equality in the eigenbasis.

    The trial loop only draws: each dimension, then in one call the Gaussian
    factor of the state and that of its random unitary.  The algebra runs
    once per dimension, on the stack of that dimension's trials: one
    DensityOperator, one _eigensystems, one haar_isometry and two pinch
    calls, in the random bases and in the eigenbases.  The spectra and both
    diagonals of a dimension are scored by one _entropy_columns call.
    """
    drawn_dims, draws = [], []
    for _ in range(trials):
        d = _draw_dim(rng, dims)
        drawn_dims.append(d)
        draws.append(rng.standard_normal((2, 2, d, d)))  # random_density's, then random_unitary's ginibre draw
    margins = np.empty((trials, 2 * len(functionals)))
    for idx in positions_by_key(drawn_dims):
        pairs = _stack(draws, idx)
        rho = DensityOperator(density_from_factor(_complex_pairs(pairs[:, 0])))
        spectra, eigenbases = _eigensystems(rho.matrix)
        bases = haar_isometry(_complex_pairs(pairs[:, 1]))
        rows = np.concatenate([spectra, pinch(rho, bases), pinch(rho, eigenbases)])
        base, pinched, pinned = np.split(_entropy_columns(rows, functionals), 3)
        margins[idx, 0::2] = pinched - base
        margins[idx, 1::2] = -np.abs(pinned - base)
    cases = ("pinching-inequality", "pinching-eigenbasis-equality")
    return _entries(margins, [(case, INEQ_TOL, F.name) for F in functionals for case in cases], drawn_dims)


@_suite("isometry", ISOMETRY_EQ_TOL, trials=200, dims=(2, 8))
def run_isometry_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Entropy invariance under unitaries and under embedding isometries.

    The trial loop only draws: each dimension, the Gaussian factor of the
    state and the Gaussian of its isometry (d x d for a unitary, rows x d
    for an embedding, every fourth trial).  The states of one dimension are
    then built as one stack: one DensityOperator and one _eigensystems.
    The trials whose isometries share a shape are conjugated as one stack:
    one haar_isometry, one _conjugated, one DensityOperator for the images
    and one _eigensystems.  The spectra before and after (of length rows
    for an embedding) are scored in one entropy_table call.  A trial's
    margins fill both halves of the margin array, one per case, and the
    keep mask picks the half of its case.
    """
    drawn_dims, factors, gaussians = [], [], []
    for t in range(trials):
        d = _draw_dim(rng, dims)
        drawn_dims.append(d)
        factors.append(rng.standard_normal((2, d, d)))  # random_density's ginibre draw
        rows = d + int(rng.integers(1, 5)) if t % 4 == 3 else d
        gaussians.append(rng.standard_normal((2, rows, d)))  # random_isometry's ginibre draw
    states, vectors = [None] * trials, [None] * (2 * trials)
    for idx in positions_by_key(drawn_dims):
        rho = DensityOperator(density_from_factor(_complex_pairs(_stack(factors, idx))))
        for t, matrix, before in zip(idx, rho.matrix, _eigensystems(rho.matrix)[0]):
            states[t], vectors[2 * t] = matrix, before
    for idx in positions_by_key([g.shape for g in gaussians]):
        V = haar_isometry(_complex_pairs(_stack(gaussians, idx)))
        moved = DensityOperator(_conjugated(_stack(states, idx), V))
        for t, after in zip(idx, _eigensystems(moved.matrix)[0]):
            vectors[2 * t + 1] = after
    h = entropy_table(vectors, functionals)
    margins = np.tile(-np.abs(h[1::2] - h[0::2]), 2)
    embeds = np.arange(trials) % 4 == 3
    keep = np.repeat(np.stack([~embeds, embeds], axis=1), len(functionals), axis=1)
    cases = ("isometry-unitary", "isometry-embedding")
    columns = [(case, ISOMETRY_EQ_TOL, F.name) for case in cases for F in functionals]
    return _entries(margins, columns, drawn_dims, keep)


@_suite("ensemble", INEQ_TOL, trials=1000, dims=(2, 6))
def run_ensemble_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Ensemble weights against the spectrum: majorization, entropy, infimum.

    The infimum is taken over the ensembles drawn for the state plus the
    spectral one.  Every ensemble's weights are majorized by the spectrum
    (Nielsen, PRA 62, 052308, 2000), so fresh draws could not lower it.

    For each state the loop builds the state, its spectrum and the spectral
    ensemble that inf_ensemble_entropy(rho, F, trials=0) returns (one call
    per state), then only draws each ensemble size m and the Gaussian of its
    mixing isometry, as random_ensemble(rho, m, rng) draws them.  The draws
    of every state that share a key (dimension, rank, size) are then built
    as one stack: one haar_isometry, one _ensembles on the stacked states
    and mixings and one row-paired _row_margins of each draw's spectrum
    against its weights.  All spectra and weights are scored in one
    entropy_table call.  A state's infimum is the least of its spectral
    ensemble's entropy, the value inf_ensemble_entropy returns for each
    functional, and its scored draws.  The margin array has a row per draw
    and then one per state, for its infimum; the keep mask picks each row's
    cases.  Each margin is bit for bit a draw-by-draw loop's.  At default
    trials the draws make about 50 stacks, not one per (state, size).
    """
    n_states = max(1, trials // 20)
    states, vectors, keys, gaussians, held = [], [], [], [], []
    for s in range(n_states):
        d = _draw_dim(rng, dims)
        rank = int(rng.integers(1, d + 1))
        rho = random_density(d, rng, rank=rank)
        spectrum, basis = eigen_spectrum(rho)
        r = _rank(spectrum)
        _, spectral = inf_ensemble_entropy(rho, functionals[0], trials=0)
        budget = max(1, (trials - len(keys)) // (n_states - s))
        states.append((d, len(keys), len(keys) + budget))
        for _ in range(budget):
            m = r + int(rng.integers(0, 3))
            keys.append((d, r, m))
            gaussians.append(rng.standard_normal((2, m, r)))  # random_isometry's ginibre draw
        held += [(rho.matrix, spectrum.entries, basis)] * budget  # each draw's state
        vectors += [spectrum, spectral.weights]
    weights, mixing = [None] * len(keys), np.empty(len(keys))
    for idx in positions_by_key(keys):
        matrices, p, bases = (np.array(a) for a in zip(*(held[t] for t in idx)))
        drawn_weights, _ = _ensembles(matrices, p, bases, haar_isometry(_complex_pairs(_stack(gaussians, idx))))
        mixing[idx] = _row_margins(p, drawn_weights)
        for t, w in zip(idx, drawn_weights):
            weights[t] = w
    h = entropy_table(vectors + weights, functionals)
    spectral_h, weights_h = h[0 : 2 * n_states : 2], h[2 * n_states :]
    width = len(functionals)
    margins = np.zeros((len(keys) + n_states, 1 + 2 * width))
    keep = np.zeros(margins.shape, bool)
    row_dims = []
    for s, (d, first, stop) in enumerate(states):
        draws, row = slice(first + s, stop + s), stop + s  # a state's draw rows, then its own row
        margins[draws, 0] = mixing[first:stop]
        margins[draws, 1 : 1 + width] = weights_h[first:stop] - spectral_h[s]
        # min over a list is the left fold of min(a, b), as a draw-by-draw loop takes it.
        columns = zip(h[2 * s + 1].tolist(), weights_h[first:stop].T.tolist())
        infimum = np.array([min([start] + column) for start, column in columns])
        margins[row, 1 + width :] = -np.abs(infimum - spectral_h[s])
        keep[draws, : 1 + width] = keep[row, 1 + width :] = True
        row_dims += [d] * (stop - first + 1)
    columns = [("ensemble-majorization", EQ_TOL, "")]
    columns += [("ensemble-entropy", INEQ_TOL, F.name) for F in functionals]
    columns += [("infimum-equals-spectrum", INEQ_TOL, F.name) for F in functionals]
    return _entries(margins, columns, row_dims, keep)


def _blend_picks(draws: np.ndarray, counts: np.ndarray):
    """(i, j, t) per row u of draws (trials, k, 3): with L = counts[trial] >= 2, i = floor(u0 L) and
    j = floor(u1 (L - 1)), moved past i, are distinct in range(L); t is Generator.uniform(0.2, 0.8)'s map of u2."""
    L = counts[:, None]
    i = (draws[..., 0] * L).astype(np.intp)
    j = (draws[..., 1] * (L - 1)).astype(np.intp)
    j += j >= i
    return i, j, 0.2 + (0.8 - 0.2) * draws[..., 2]


@_suite("gpt-argmin", INEQ_TOL, trials=200, dims=(2, 3))
def run_gpt_argmin_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Blends never beat the basic-decomposition minimum, and the majorant never exceeds it.

    The trial loop only draws: each model (built unchecked, then certified
    one stack per vertex shape), interior point and functional's uniform
    row.  One _enumerate call, one kernel stack per vertex shape, then finds
    the basic decompositions and, in one pass, their weight spectra's join,
    which every trial has, leaving both in each model's cache for
    gpt_majorant.  With two or more decompositions each row gives a blend's
    pair and share t (_blend_picks); each (length, support sizes) key's
    blends are one (k, length) scatter.  Scoring runs one kernel call per
    (length, functional): entropy_table scores the blends and zero-padded
    majorants, and the weights under from_computation's rule
    (computed=True).  A trial's minimum is one np.minimum.reduceat over its
    weight rows, the value minimize_entropy picks.  The margins fill a
    (trials, 2 * functionals) array by whole columns: no blend beats the
    minimum (argmin-optimality), and the majorant's entropy is at most it
    (majorant-minimal); the keep mask drops the blend case of a trial with
    one decomposition.  Margins are bit for bit a per-trial loop's.
    """
    lo, hi = dims
    if lo < 2 or hi > DIM_CAP:
        raise ValueError(f"gpt-argmin dims must lie in 2..{DIM_CAP}, got {lo}:{hi}")
    drawn, models, states, draws = [], [], [], []
    for _ in range(trials):
        drawn.append(_draw_dim(rng, dims))
        points = _sphere_points(int(rng.integers(drawn[-1] + 2, 9)), drawn[-1], rng)
        models.append(ConvexModel(points, check_extreme=False))
        states.append(random_interior_point(models[-1], rng))
        draws.append(rng.random((len(functionals), 3)))
    for group in positions_by_key(model.vertices.shape for model in models):
        _require_extreme(np.stack([models[i].vertices for i in group]))
    found = _enumerate(models, states)
    pick_i, pick_j, shares = _blend_picks(np.array(draws), np.array([len(decs) for decs in found]))
    firsts, weights, majorants, picks = [], [], [], []
    for model, x, decs, i, j, t in zip(models, states, found, pick_i.tolist(), pick_j.tolist(), shares.tolist()):
        n = model.n_vertices
        majorant = gpt_majorant(model, x)  # served from the model's cache
        firsts.append(len(weights))
        weights += [dec.weights for dec in decs]
        if len(decs) >= 2:
            picks += [(n, decs[a], decs[b], share) for a, b, share in zip(i, j, t)]
        majorants.append(np.zeros(n))  # padded by a slice, far cheaper per trial than np.pad
        majorants[-1][: majorant.size] = majorant
    blends = [None] * len(picks)
    for idx in positions_by_key((n, a.weights.size, b.weights.size) for n, a, b, _ in picks):
        ns, first, second, t = zip(*(picks[p] for p in idx))
        stack, rows, t = np.zeros((len(idx), ns[0])), np.arange(len(idx))[:, None], np.array(t)[:, None]
        for side, share in ((first, t), (second, 1.0 - t)):
            stack[rows, [dec.support for dec in side]] += share * np.array([dec.weights for dec in side])
        for p, blend in zip(idx, stack):
            blends[p] = blend
    h = entropy_table(blends + majorants, functionals)
    least = entropy_table(weights, functionals, computed=True)
    # minimize_entropy picks the least value below +inf, and min is exact; a trial with no such value keeps +inf.
    minimum = np.minimum.reduceat(np.where(least < np.inf, least, np.inf), firsts)
    width, blended = len(functionals), np.diff(firsts + [len(weights)]) >= 2
    margins = np.zeros((trials, 2 * width))
    margins[:, 1::2] = minimum - h[len(blends) :]
    # Blend row r is for functional r % width, of the (r // width)-th trial with blends.
    blend_h = h[: len(blends)].reshape(-1, width, width).diagonal(axis1=1, axis2=2)
    margins[blended, 0::2] = blend_h - minimum[blended]
    keep = np.ones(margins.shape, bool)
    keep[~blended, 0::2] = False
    cases = ("argmin-optimality", "majorant-minimal")
    pairs = [(case, INEQ_TOL, F.name) for F in functionals for case in cases]
    return _entries(margins, pairs, drawn, keep)


def run_audit(suite: str, trials=None, seed=7, dims=None, functional_specs=None) -> AuditReport:
    """Run a named suite; trials and dims left as None take the suite's defaults."""
    if suite not in SUITES:
        raise ValueError(f"unknown audit suite {suite!r} (known: {sorted(SUITES)})")
    given = {"trials": trials, "dims": dims}
    return SUITES[suite](
        seed=seed, functional_specs=functional_specs, **{k: v for k, v in given.items() if v is not None}
    )
