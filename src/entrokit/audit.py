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
kernel call per (vector length, functional) through entropy_table.  Its
draws, and each margin bit for bit, are those of a loop that scores every
case as it is drawn.  The schur, pinching, isometry and ensemble suites
also defer their linear algebra: their trial loops only draw (unitaries
and Dirichlet vectors, or Gaussian factors), and bistochastic maps, their
images, states, Haar isometries, eigensolves, pinches and ensembles are
then built once per stack of trials that share a shape (a dimension, or a
state and ensemble size) by the private kernels of classical and quantum.
"""

from __future__ import annotations

from collections.abc import Sized

import numpy as np

from .classical import (
    _bistochastic,
    _mix_rows,
    _row_margins,
    _unitary_squares,
    computed_rows,
    entropy_table,
    jensen_step_oracle,
    positions_by_key,
)
from .functionals import EntropicFunctional, FunctionalCase, as_count, functional_from_spec
from .gpt import DIM_CAP, enumerate_basic_decompositions, first_least, gpt_majorant
from .quantum import (
    RANK_CUTOFF,
    DensityOperator,
    _conjugated,
    _eigensystems,
    _ensembles,
    eigen_spectrum,
    haar_isometry,
    inf_ensemble_entropy,
    pinch,
)
from .rand import (
    as_rng,
    density_from_factor,
    ginibre,
    random_density,
    random_density_factor,
    random_interior_point,
    random_sphere_model,
    random_unitary,
)
from .reporting import AuditEntry, AuditReport, build_report

INEQ_TOL = 1e-9
EQ_TOL = 1e-12
ISOMETRY_EQ_TOL = 1e-8

DEFAULT_FUNCTIONAL_SPECS = (
    "shannon",
    "renyi:alpha=0.5",
    "renyi:alpha=2",
    "tsallis:q=2",
    "kaniadakis:kappa=0.5",
)


def default_functionals() -> list[EntropicFunctional]:
    return [functional_from_spec(s) for s in DEFAULT_FUNCTIONAL_SPECS]


def _resolve_functionals(functional_specs) -> list[EntropicFunctional]:
    if functional_specs is None:
        return default_functionals()
    out = [F if isinstance(F, EntropicFunctional) else functional_from_spec(F) for F in functional_specs]
    if not out:
        raise ValueError("at least one functional is required")
    return out


SUITES: dict = {}


def _suite(name: str, tolerance: float, trials: int, dims: tuple[int, int]):
    """Register the decorated suite body as ``name`` and return its runner.

    The runner takes (trials, seed, dims, functional_specs), defaulting to
    this suite's trials and dims.  Before any draw it checks trials (at
    least 1), seed and dims, a (lo, hi) pair, by as_count's rules, with
    1 <= lo <= hi.  It then calls ``body(trials, rng, dims, functionals)``
    with the seeded generator and the resolved functionals, and reports the
    entries the body returns under this suite's name and tolerance.
    """

    def register(body):
        def run(trials=trials, seed=7, dims=dims, functional_specs=None):
            trials = as_count(trials, "trials")
            if trials < 1:
                raise ValueError(f"trials must be at least 1, got {trials}")
            seed = as_count(seed, "seed")
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


@_suite("schur", INEQ_TOL, trials=500, dims=(2, 8))
def run_schur_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Doubly stochastic mixing: majorization, Schur concavity, Jensen rows.

    The trial loop only draws: each dimension n, a Haar unitary and the
    Dirichlet draw random_prob_vector makes.  The trials of one dimension
    are then handled as one stack: one _unitary_squares, _bistochastic,
    computed_rows for the vectors p, _mix_rows and row-paired _row_margins,
    and one jensen_step_oracle per functional, all on the same stacked Q
    and p.  Every p and q is scored in one entropy_table call.  Entries
    keep the trial order, and each margin is bit for bit that of a loop
    that builds and scores every trial as it is drawn.
    """
    drawn_dims, unitaries, draws = [], [], []
    for _ in range(trials):
        n = _draw_dim(rng, dims)
        drawn_dims.append(n)
        unitaries.append(random_unitary(n, rng))
        draws.append(rng.dirichlet(np.ones(n)))  # random_prob_vector's draw
    vectors, mixing = [None] * (2 * trials), [None] * trials
    eq_worst = np.empty((trials, len(functionals)))
    dir_worst = np.empty_like(eq_worst)
    for idx in positions_by_key(drawn_dims):
        Q = _bistochastic(_unitary_squares(_stack(unitaries, idx)))
        p = computed_rows(_stack(draws, idx))
        q = _mix_rows(Q, p)
        for t, p_t, q_t, margin in zip(idx, p, q, _row_margins(p, q).tolist()):
            vectors[2 * t : 2 * t + 2] = p_t, q_t
            mixing[t] = margin
        for j, F in enumerate(functionals):
            int_f, int_phi, disc_q, disc_sum = jensen_step_oracle(Q, p, F)
            f_worst = np.min(-np.abs(int_f - disc_q), axis=1)
            phi_worst = np.min(-np.abs(int_phi - disc_sum), axis=1)
            # Python's min(f, phi): phi only where it is strictly smaller.
            eq_worst[idx, j] = np.where(phi_worst < f_worst, phi_worst, f_worst)
            points = F.phi(disc_q)
            if F.case is FunctionalCase.INCREASING_CONCAVE:
                dir_worst[idx, j] = np.min(points - disc_sum, axis=1)
            else:
                dir_worst[idx, j] = np.min(disc_sum - points, axis=1)
    h = entropy_table(vectors, functionals)
    entries = []
    for n, margin, hp, hq, eq_row, dir_row in zip(
        drawn_dims, mixing, h[0::2].tolist(), h[1::2].tolist(), eq_worst.tolist(), dir_worst.tolist()
    ):
        entries.append(AuditEntry.check("mixing-majorization", margin, EQ_TOL, dim=n))
        for F, hp_F, hq_F, eq_F, dir_F in zip(functionals, hp, hq, eq_row, dir_row):
            entries.append(
                AuditEntry.check("entropy-monotone", hq_F - hp_F, INEQ_TOL, functional=F.name, dim=n)
            )
            entries.append(
                AuditEntry.check("jensen-integral-match", eq_F, EQ_TOL, functional=F.name, dim=n)
            )
            entries.append(
                AuditEntry.check("jensen-direction", dir_F, EQ_TOL, functional=F.name, dim=n)
            )
    return entries


@_suite("pinching", INEQ_TOL, trials=500, dims=(2, 8))
def run_pinching_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """H never drops under pinching, with equality in the eigenbasis.

    The trial loop only draws: each dimension, the Gaussian factor of the
    state and that of its random unitary.  The linear algebra then runs
    once per dimension, on the stack of that dimension's trials: one
    DensityOperator, one _eigensystems, one haar_isometry and two pinch
    calls, in the random bases and in the eigenbases.  The spectra and both
    diagonals of every trial are scored in one entropy_table call.
    """
    drawn_dims, factors, gaussians = [], [], []
    for _ in range(trials):
        d = _draw_dim(rng, dims)
        drawn_dims.append(d)
        factors.append(random_density_factor(d, rng))
        gaussians.append(ginibre(d, d, rng))  # random_unitary's draw
    vectors = [None] * (3 * trials)
    for idx in positions_by_key(drawn_dims):
        rho = DensityOperator(density_from_factor(_stack(factors, idx)))
        spectra, eigenbases = _eigensystems(rho.matrix)
        bases = haar_isometry(_stack(gaussians, idx))
        for t, *rows in zip(idx, spectra, pinch(rho, bases), pinch(rho, eigenbases)):
            vectors[3 * t : 3 * t + 3] = rows
    h = entropy_table(vectors, functionals).tolist()
    entries = []
    for d, base_row, pinched_row, pinned_row in zip(drawn_dims, h[0::3], h[1::3], h[2::3]):
        for F, base, pinched, pinned in zip(functionals, base_row, pinched_row, pinned_row):
            entries.append(
                AuditEntry.check(
                    "pinching-inequality", pinched - base, INEQ_TOL, functional=F.name, dim=d
                )
            )
            entries.append(
                AuditEntry.check(
                    "pinching-eigenbasis-equality",
                    -abs(pinned - base),
                    INEQ_TOL,
                    functional=F.name,
                    dim=d,
                )
            )
    return entries


@_suite("isometry", ISOMETRY_EQ_TOL, trials=200, dims=(2, 8))
def run_isometry_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Entropy invariance under unitaries and under embedding isometries.

    The trial loop only draws: each dimension, the Gaussian factor of the
    state and the Gaussian of its isometry (d x d for a unitary, rows x d
    for an embedding).  The trials whose isometries share a shape are
    then conjugated as one stack: one DensityOperator for the states, one
    haar_isometry, one _conjugated, one DensityOperator for the images and
    one _eigensystems on each side.  The spectra before and after (of length
    rows for an embedding) are scored in one entropy_table call.
    """
    drawn, factors, gaussians = [], [], []
    for t in range(trials):
        d = _draw_dim(rng, dims)
        factors.append(random_density_factor(d, rng))
        if t % 4 == 3:
            rows = d + int(rng.integers(1, 5))
            case = "isometry-embedding"
        else:
            rows = d
            case = "isometry-unitary"
        gaussians.append(ginibre(rows, d, rng))  # random_isometry's draw
        drawn.append((case, d))
    vectors = [None] * (2 * trials)
    for idx in positions_by_key([g.shape for g in gaussians]):
        rho = DensityOperator(density_from_factor(_stack(factors, idx)))
        moved = DensityOperator(_conjugated(rho.matrix, haar_isometry(_stack(gaussians, idx))))
        for t, before, after in zip(idx, _eigensystems(rho.matrix)[0], _eigensystems(moved.matrix)[0]):
            vectors[2 * t : 2 * t + 2] = before, after
    h = entropy_table(vectors, functionals).tolist()
    entries = []
    for (case, d), before_row, after_row in zip(drawn, h[0::2], h[1::2]):
        for F, before, after in zip(functionals, before_row, after_row):
            entries.append(
                AuditEntry.check(case, -abs(after - before), ISOMETRY_EQ_TOL, functional=F.name, dim=d)
            )
    return entries


@_suite("ensemble", INEQ_TOL, trials=1000, dims=(2, 6))
def run_ensemble_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Ensemble weights against the spectrum: majorization, entropy, infimum.

    The infimum is taken over the ensembles drawn for the state plus the
    spectral one.  Every ensemble's weights are majorized by the spectrum
    (Nielsen, PRA 62, 052308, 2000), so fresh draws could not lower it.

    For each state the loop builds the state, its spectrum and the spectral
    ensemble that inf_ensemble_entropy(rho, F, trials=0) returns (one call
    per state), then only draws: each ensemble size m and the Gaussian of
    its mixing isometry, the draws random_ensemble(rho, m, rng) makes.  The
    ensembles of one size are then built as one stack: one haar_isometry,
    one _ensembles on the stacked mixings and one _row_margins of the
    spectrum against all their weights, so at most three of each per
    state.  All spectra and weights are scored in one entropy_table call
    (one kernel call per length and functional).  A state's infimum is the
    least of its spectral ensemble's entropy, which is the value
    inf_ensemble_entropy returns for each functional, and its scored draws.
    Each margin is bit for bit that of a loop that builds and scores every
    ensemble as it is drawn.
    """
    n_states = max(1, trials // 20)
    states, vectors, mixing = [], [], []
    drawn = 0
    for s in range(n_states):
        d = _draw_dim(rng, dims)
        rank = int(rng.integers(1, d + 1))
        rho = random_density(d, rng, rank=rank)
        spectrum, _ = eigen_spectrum(rho)
        r = int(np.sum(spectrum.entries > RANK_CUTOFF))
        _, spectral = inf_ensemble_entropy(rho, functionals[0], trials=0)
        budget = max(1, (trials - drawn) // (n_states - s))
        sizes, gaussians = [], []
        for _ in range(budget):
            sizes.append(r + int(rng.integers(0, 3)))
            gaussians.append(ginibre(sizes[-1], r, rng))  # random_isometry's draw
        drawn += budget
        weights, margins = [None] * budget, [None] * budget
        for idx in positions_by_key(sizes):
            drawn_weights, _ = _ensembles(rho, haar_isometry(_stack(gaussians, idx)))
            stack_margins = _row_margins(spectrum.entries[None], drawn_weights).tolist()
            for t, w, margin in zip(idx, drawn_weights, stack_margins):
                weights[t], margins[t] = w, margin
        first = len(vectors)
        vectors += [spectrum, spectral.weights, *weights]
        mixing += margins
        states.append((d, first, len(vectors)))
    h = entropy_table(vectors, functionals)
    entries = []
    margins = iter(mixing)
    for d, first, stop in states:
        spectral_h, start = h[first : first + 2].tolist()
        weights_h = h[first + 2 : stop]
        for row in weights_h.tolist():
            entries.append(AuditEntry.check("ensemble-majorization", next(margins), EQ_TOL, dim=d))
            for F, hw, spectral in zip(functionals, row, spectral_h):
                entries.append(
                    AuditEntry.check(
                        "ensemble-entropy", hw - spectral, INEQ_TOL, functional=F.name, dim=d
                    )
                )
        for F, inf_start, column, spectral in zip(functionals, start, weights_h.T.tolist(), spectral_h):
            # min over a list is the left fold of min(a, b), as a draw-by-draw loop takes it.
            infimum = min([inf_start] + column)
            entries.append(
                AuditEntry.check(
                    "infimum-equals-spectrum",
                    -abs(infimum - spectral),
                    INEQ_TOL,
                    functional=F.name,
                    dim=d,
                )
            )
    return entries


@_suite("gpt-argmin", INEQ_TOL, trials=200, dims=(2, 3))
def run_gpt_argmin_audit(trials, rng, dims, functionals) -> list[AuditEntry]:
    """Blended decompositions never beat the basic-decomposition minimum.

    The trial loop draws each model and interior point, enumerates its basic
    decompositions (gpt_majorant reuses that enumeration) and, with two or
    more of them, draws one blend of two per functional.  It only collects
    the decomposition weights, the blends and the zero-padded majorant.
    Scoring runs after the draws, one kernel call per (length, functional):
    entropy_table scores the blends and majorants, and the weights twice,
    as they are for the majorant check and through absorb_roundoff
    (computed=True) for each trial's minimum, which first_least picks as
    minimize_entropy does.  Each margin is bit for bit that of a per-trial
    loop.
    """
    lo, hi = dims
    if lo < 2 or hi > DIM_CAP:
        raise ValueError(f"gpt-argmin dims must lie in 2..{DIM_CAP}, got {lo}:{hi}")
    drawn, weights, vectors = [], [], []
    for _ in range(trials):
        d = _draw_dim(rng, dims)
        n = int(rng.integers(d + 2, 9))
        model = random_sphere_model(n, d, rng)
        x = random_interior_point(model, rng)
        decs = enumerate_basic_decompositions(model, x)
        majorant = gpt_majorant(model, x)
        first = len(weights)
        weights += [dec.weights for dec in decs]
        blends = major = None
        if len(decs) >= 2:
            blends = len(vectors)
            for _ in functionals:
                i, j = rng.choice(len(decs), size=2, replace=False)
                t = float(rng.uniform(0.2, 0.8))
                blend = np.zeros(n)
                blend[list(decs[i].support)] += t * decs[i].weights
                blend[list(decs[j].support)] += (1.0 - t) * decs[j].weights
                vectors.append(blend)
        if majorant is not None:
            major = len(vectors)
            vectors.append(np.pad(majorant, (0, max(0, n - majorant.size))))
        drawn.append((d, first, len(weights), blends, major))
    h = entropy_table(vectors, functionals)
    scores = entropy_table(weights, functionals)
    least = entropy_table(weights, functionals, computed=True)
    columns = np.arange(len(functionals))
    entries = []
    for d, first, stop, blends, major in drawn:
        if blends is not None:
            own = least[first:stop]
            pick = first_least(own)
            values = np.where(pick >= 0, own[pick, columns], np.inf).tolist()
            blended = h[blends + columns, columns].tolist()
        for j, F in enumerate(functionals):
            if blends is not None:
                margin = blended[j] - values[j]
                entries.append(
                    AuditEntry.check("argmin-optimality", margin, INEQ_TOL, functional=F.name, dim=d)
                )
            if major is not None:
                worst = min((scores[first:stop, j] - h[major, j]).tolist())
                entries.append(
                    AuditEntry.check(
                        "majorant-minimal", worst, INEQ_TOL, functional=F.name, dim=d
                    )
                )
    return entries


def run_audit(suite: str, trials=None, seed=7, dims=None, functional_specs=None) -> AuditReport:
    """Run a named suite; trials and dims left as None take the suite's defaults."""
    if suite not in SUITES:
        raise ValueError(f"unknown audit suite {suite!r} (known: {sorted(SUITES)})")
    given = {"trials": trials, "dims": dims}
    return SUITES[suite](
        seed=seed, functional_specs=functional_specs, **{k: v for k, v in given.items() if v is not None}
    )
