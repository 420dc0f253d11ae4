"""Randomized audit suites for the inequalities the library promises.

Each suite draws seeded random cases, records one margin per check, and
returns an AuditReport.  Margins follow the reporting convention: a case
passes iff margin >= -tolerance, so worst_margin is the minimum margin.
All suites are deterministic given (trials, seed, dims, functionals).
"""

from __future__ import annotations

import numpy as np

from .classical import (
    apply_bistochastic,
    bistochastic_from_unitary,
    entropy_finite,
    entropy_rows,
    jensen_step_oracle,
    majorization_margin,
)
from .functionals import EntropicFunctional, FunctionalCase, functional_from_spec
from .gpt import (
    DIM_CAP,
    enumerate_basic_decompositions,
    gpt_majorant,
    minimize_entropy,
    weights_by_length,
)
from .quantum import (
    RANK_CUTOFF,
    conjugate_isometry,
    eigen_spectrum,
    inf_ensemble_entropy,
    pinch,
    quantum_entropy,
    random_ensemble,
)
from .rand import (
    as_rng,
    random_density,
    random_interior_point,
    random_isometry,
    random_prob_vector,
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
    out = []
    for item in functional_specs:
        out.append(item if isinstance(item, EntropicFunctional) else functional_from_spec(item))
    if not out:
        raise ValueError("at least one functional is required")
    return out


def _draw_dim(rng, dims) -> int:
    lo, hi = dims
    if lo > hi or lo < 1:
        raise ValueError(f"invalid dimension range {dims}")
    return int(rng.integers(lo, hi + 1))


def run_schur_audit(trials, seed, dims, functional_specs=None) -> AuditReport:
    """Doubly stochastic mixing: majorization, Schur concavity, Jensen rows."""
    rng = as_rng(seed)
    functionals = _resolve_functionals(functional_specs)
    entries = []
    for _ in range(int(trials)):
        n = _draw_dim(rng, dims)
        Q = bistochastic_from_unitary(random_unitary(n, rng))
        p = random_prob_vector(n, rng)
        q = apply_bistochastic(Q, p)
        entries.append(
            AuditEntry.check(
                "mixing-majorization",
                majorization_margin(p, q),
                EQ_TOL,
                dim=n,
            )
        )
        for F in functionals:
            hp = entropy_finite(p, F).value
            hq = entropy_finite(q, F).value
            entries.append(
                AuditEntry.check("entropy-monotone", hq - hp, INEQ_TOL, functional=F.name, dim=n)
            )
            int_f, int_phi, disc_q, disc_sum = jensen_step_oracle(Q.matrix, p, F)
            eq_worst = float(min(np.min(-np.abs(int_f - disc_q)), np.min(-np.abs(int_phi - disc_sum))))
            points = F.phi(disc_q)
            if F.case is FunctionalCase.INCREASING_CONCAVE:
                dir_worst = float(np.min(points - disc_sum))
            else:
                dir_worst = float(np.min(disc_sum - points))
            entries.append(
                AuditEntry.check("jensen-integral-match", eq_worst, EQ_TOL, functional=F.name, dim=n)
            )
            entries.append(
                AuditEntry.check("jensen-direction", dir_worst, EQ_TOL, functional=F.name, dim=n)
            )
    return build_report("schur", trials, seed, INEQ_TOL, entries)


def run_pinching_audit(trials, seed, dims, functional_specs=None) -> AuditReport:
    """H never drops under pinching, with equality in the eigenbasis."""
    rng = as_rng(seed)
    functionals = _resolve_functionals(functional_specs)
    entries = []
    for _ in range(int(trials)):
        d = _draw_dim(rng, dims)
        rho = random_density(d, rng)
        basis = random_unitary(d, rng)
        _, eigenbasis = eigen_spectrum(rho)
        pinched = pinch(rho, basis)
        in_eigenbasis = pinch(rho, eigenbasis)
        for F in functionals:
            base = quantum_entropy(rho, F).value
            entries.append(
                AuditEntry.check(
                    "pinching-inequality",
                    entropy_finite(pinched, F).value - base,
                    INEQ_TOL,
                    functional=F.name,
                    dim=d,
                )
            )
            pinned = entropy_finite(in_eigenbasis, F).value
            entries.append(
                AuditEntry.check(
                    "pinching-eigenbasis-equality",
                    -abs(pinned - base),
                    INEQ_TOL,
                    functional=F.name,
                    dim=d,
                )
            )
    return build_report("pinching", trials, seed, INEQ_TOL, entries)


def run_isometry_audit(trials, seed, dims, functional_specs=None) -> AuditReport:
    """Entropy invariance under unitaries and under embedding isometries."""
    rng = as_rng(seed)
    functionals = _resolve_functionals(functional_specs)
    entries = []
    for t in range(int(trials)):
        d = _draw_dim(rng, dims)
        rho = random_density(d, rng)
        if t % 4 == 3:
            rows = d + int(rng.integers(1, 5))
            v = random_isometry(rows, d, rng)
            case = "isometry-embedding"
        else:
            v = random_unitary(d, rng)
            case = "isometry-unitary"
        moved = conjugate_isometry(rho, v)
        for F in functionals:
            before = quantum_entropy(rho, F).value
            after = quantum_entropy(moved, F).value
            entries.append(
                AuditEntry.check(case, -abs(after - before), ISOMETRY_EQ_TOL, functional=F.name, dim=d)
            )
    return build_report("isometry", trials, seed, ISOMETRY_EQ_TOL, entries)


def run_ensemble_audit(trials, seed, dims, functional_specs=None) -> AuditReport:
    """Ensemble weights against the spectrum: majorization, entropy, infimum.

    The infimum is taken over the ensembles drawn for the state plus the
    spectral one.  Every ensemble's weights are majorized by the spectrum
    (Nielsen, PRA 62, 052308, 2000), so fresh draws could not lower it.
    """
    rng = as_rng(seed)
    functionals = _resolve_functionals(functional_specs)
    n_states = max(1, int(trials) // 20)
    entries = []
    drawn = 0
    for s in range(n_states):
        d = _draw_dim(rng, dims)
        rank = int(rng.integers(1, d + 1))
        rho = random_density(d, rng, rank=rank)
        spectrum, _ = eigen_spectrum(rho)
        r = int(np.sum(spectrum.entries > RANK_CUTOFF))
        spectral_h = {F.name: quantum_entropy(rho, F).value for F in functionals}
        infimum = {F.name: inf_ensemble_entropy(rho, F, trials=0)[0] for F in functionals}
        budget = (int(trials) - drawn) // (n_states - s)
        for _ in range(max(1, budget)):
            m = r + int(rng.integers(0, 3))
            ensemble = random_ensemble(rho, m, rng=rng)
            drawn += 1
            w = ensemble.weights.entries
            entries.append(
                AuditEntry.check(
                    "ensemble-majorization",
                    majorization_margin(spectrum.entries, w),
                    EQ_TOL,
                    dim=d,
                )
            )
            for F in functionals:
                hw = entropy_finite(ensemble.weights, F).value
                entries.append(
                    AuditEntry.check(
                        "ensemble-entropy",
                        hw - spectral_h[F.name],
                        INEQ_TOL,
                        functional=F.name,
                        dim=d,
                    )
                )
                infimum[F.name] = min(infimum[F.name], hw)
        for F in functionals:
            entries.append(
                AuditEntry.check(
                    "infimum-equals-spectrum",
                    -abs(infimum[F.name] - spectral_h[F.name]),
                    INEQ_TOL,
                    functional=F.name,
                    dim=d,
                )
            )
    return build_report("ensemble", trials, seed, INEQ_TOL, entries)


def run_gpt_argmin_audit(trials, seed, dims, functional_specs=None) -> AuditReport:
    """Blended decompositions never beat the basic-decomposition minimum."""
    lo, hi = dims
    if lo < 2 or hi > DIM_CAP:
        raise ValueError(f"gpt-argmin dims must lie in 2..{DIM_CAP}, got {lo}:{hi}")
    rng = as_rng(seed)
    functionals = _resolve_functionals(functional_specs)
    entries = []
    for _ in range(int(trials)):
        d = _draw_dim(rng, dims)
        n = int(rng.integers(d + 2, 9))
        model = random_sphere_model(n, d, rng)
        x = random_interior_point(model, rng)
        decs = enumerate_basic_decompositions(model, x)
        majorant = gpt_majorant(model, x)
        groups = weights_by_length(decs)
        for F in functionals:
            value, _ = minimize_entropy(decs, F)
            if len(decs) >= 2:
                i, j = rng.choice(len(decs), size=2, replace=False)
                t = float(rng.uniform(0.2, 0.8))
                blend = np.zeros(n)
                blend[list(decs[i].support)] += t * decs[i].weights
                blend[list(decs[j].support)] += (1.0 - t) * decs[j].weights
                blended_h = entropy_finite(blend, F).value
                entries.append(
                    AuditEntry.check(
                        "argmin-optimality", blended_h - value, INEQ_TOL, functional=F.name, dim=d
                    )
                )
            if majorant is not None:
                h_major = entropy_finite(
                    np.pad(majorant, (0, max(0, n - majorant.size))), F
                ).value
                values = np.empty(len(decs))
                for idx, rows in groups:
                    values[idx] = entropy_rows(rows, F)
                worst = min((values - h_major).tolist())
                entries.append(
                    AuditEntry.check(
                        "majorant-minimal", worst, INEQ_TOL, functional=F.name, dim=d
                    )
                )
    return build_report("gpt-argmin", trials, seed, INEQ_TOL, entries)


SUITES = {
    "schur": run_schur_audit,
    "pinching": run_pinching_audit,
    "isometry": run_isometry_audit,
    "ensemble": run_ensemble_audit,
    "gpt-argmin": run_gpt_argmin_audit,
}

DEFAULT_DIMS = {
    "schur": (2, 8),
    "pinching": (2, 8),
    "isometry": (2, 8),
    "ensemble": (2, 6),
    "gpt-argmin": (2, 3),
}

DEFAULT_TRIALS = {
    "schur": 500,
    "pinching": 500,
    "isometry": 200,
    "ensemble": 1000,
    "gpt-argmin": 200,
}


def run_audit(suite: str, trials=None, seed=7, dims=None, functional_specs=None) -> AuditReport:
    """Dispatch to a named suite with its default trial count and dims."""
    if suite not in SUITES:
        raise ValueError(f"unknown audit suite {suite!r} (known: {sorted(SUITES)})")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return SUITES[suite](
        trials=DEFAULT_TRIALS[suite] if trials is None else trials,
        seed=seed,
        dims=DEFAULT_DIMS[suite] if dims is None else dims,
        functional_specs=functional_specs,
    )
