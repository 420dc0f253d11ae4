"""Randomized audit suites and their report plumbing."""

import inspect
import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from entrokit import audit, quantum
from entrokit.audit import (
    DEFAULT_FUNCTIONAL_SPECS,
    EQ_TOL,
    INEQ_TOL,
    ISOMETRY_EQ_TOL,
    SUITES,
    run_audit,
)
from entrokit.classical import (
    ZERO_TOL,
    _mix_rows,
    _unitary_squares,
    apply_bistochastic,
    bistochastic_from_unitary,
    entropy_finite,
    jensen_step_oracle,
    majorization_margin,
)
from entrokit.functionals import FunctionalCase, make_custom
from entrokit.gpt import enumerate_basic_decompositions, gpt_majorant, minimize_entropy
from entrokit.quantum import (
    DensityOperator,
    _conjugated,
    _eigensystems,
    _ensembles,
    conjugate_isometry,
    eigen_spectrum,
    inf_ensemble_entropy,
    pinch,
    pinching_inequality_audit,
    quantum_entropy,
    random_ensemble,
)
from entrokit.rand import (
    as_rng,
    random_density,
    random_interior_point,
    random_isometry,
    random_prob_vector,
    random_sphere_model,
    random_unitary,
)
from entrokit.reporting import AuditEntry, build_report


def default_trials(suite):
    return inspect.signature(SUITES[suite]).parameters["trials"].default


def test_suite_registry():
    assert set(SUITES) == {"schur", "pinching", "isometry", "ensemble", "gpt-argmin"}
    for suite, run in SUITES.items():
        assert run is getattr(audit, f"run_{suite.replace('-', '_')}_audit")
        assert run.__name__ == f"run_{suite.replace('-', '_')}_audit"


@pytest.mark.parametrize(
    "suite,trials,dims",
    [("schur", 500, (2, 8)), ("pinching", 500, (2, 8)), ("isometry", 200, (2, 8)),
     ("ensemble", 1000, (2, 6)), ("gpt-argmin", 200, (2, 3))],
)
def test_suite_signature_shows_its_defaults(suite, trials, dims):
    signature = inspect.signature(SUITES[suite])
    assert [(p.name, p.default) for p in signature.parameters.values()] == [
        ("trials", trials), ("seed", 7), ("dims", dims), ("functional_specs", None)
    ]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_run_clean_at_small_scale(suite):
    report = run_audit(suite, trials=16, seed=7)
    assert report.suite == suite
    assert report.trials == 16
    assert report.seed == 7
    assert len(report.cases) > 0
    assert report.violations == 0, [c for c in report.cases if not c.passed][:3]
    assert report.worst_margin >= -report.tolerance


def test_readme_suite_table_matches_default_trials():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| (\d+) \|", readme, flags=re.MULTILINE)
    assert {suite: int(trials) for suite, trials in rows} == {suite: default_trials(suite) for suite in SUITES}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_audit("nosuch", trials=4)


@pytest.mark.parametrize("suite,trials", [("schur", 0), ("ensemble", -3)])
def test_trials_below_one_rejected(suite, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_audit(suite, trials=trials)


@pytest.mark.parametrize("trials", [True, False, 2.5, math.nan, math.inf, -math.inf, "3", 2j])
def test_trials_that_are_not_counts_rejected(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_audit("schur", trials=trials)


@pytest.mark.parametrize("trials", [np.int64(3), np.int32(3), np.uint8(3), 3.0])
def test_integral_trials_of_any_type_run(trials):
    report = run_audit("schur", trials=trials, seed=7)
    assert type(report.trials) is int
    assert report.to_dict() == run_audit("schur", trials=3, seed=7).to_dict()


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_called_directly_check_their_trial_count(suite):
    for bad, message in ((2.5, "an integer"), (True, "an integer"), (math.nan, "an integer"), ("3", "an integer"),
                         (0, "at least 1"), (-2, "at least 1")):
        with pytest.raises(ValueError, match=f"trials must be {message}"):
            SUITES[suite](trials=bad, seed=7)
    report = SUITES[suite](trials=3.0, seed=7)
    assert type(report.trials) is int
    assert report.to_dict() == run_audit(suite, trials=3, seed=7).to_dict()


def no_draws(monkeypatch):
    """Make any seeded generator fail, so a check that passes drew nothing first."""

    def refuse(seed):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(audit, "as_rng", refuse)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("seed", [np.random.default_rng(1), 2.7, None, "7", True])
def test_seed_that_is_not_a_count_is_rejected_before_any_draw(monkeypatch, suite, seed):
    no_draws(monkeypatch)
    with pytest.raises(ValueError, match="seed must be an integer"):
        SUITES[suite](trials=3, seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_audit(suite, trials=3, seed=seed)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("seed", [-1, np.int64(-5), -2.0])
def test_negative_seed_is_rejected_before_any_draw(monkeypatch, suite, seed):
    no_draws(monkeypatch)
    message = f"^seed must be nonnegative, got {int(seed)}$"
    with pytest.raises(ValueError, match=message):
        SUITES[suite](trials=3, seed=seed)
    with pytest.raises(ValueError, match=message):
        run_audit(suite, trials=3, seed=seed)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_integral_seed_of_any_type_runs(suite):
    report = SUITES[suite](trials=3, seed=np.int64(7))
    assert type(report.seed) is int
    assert report.to_dict() == SUITES[suite](trials=3, seed=7.0).to_dict() == run_audit(suite, trials=3).to_dict()


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize(
    "dims,message",
    [((2.5, 4), "dims must be an integer"), ((2, math.inf), "dims must be an integer"),
     (("2", 3), "dims must be an integer"), ((0, 3), "invalid dimension range"),
     ((4, 3), "invalid dimension range"), ((-2, -1), "invalid dimension range"),
     (5, r"dims must be a \(lo, hi\) pair"), ((2, 3, 4), r"dims must be a \(lo, hi\) pair"),
     ((2,), r"dims must be a \(lo, hi\) pair")],
)
def test_dims_that_are_not_a_range_are_rejected_before_any_draw(monkeypatch, suite, dims, message):
    no_draws(monkeypatch)
    with pytest.raises(ValueError, match=message):
        SUITES[suite](trials=3, dims=dims)
    with pytest.raises(ValueError, match=message):
        run_audit(suite, trials=3, dims=dims)


def test_integral_dims_of_any_type_run():
    report = run_audit("schur", trials=5, seed=7, dims=(np.int64(2), 4.0))
    assert report.to_dict() == run_audit("schur", trials=5, seed=7, dims=(2, 4)).to_dict()


@pytest.mark.parametrize("dims", [(1, 1), (1, 3), (7, 7), (2, 5)])
def test_gpt_argmin_rejects_dims_outside_the_cap(dims):
    with pytest.raises(ValueError, match="gpt-argmin dims must lie in 2..4"):
        run_audit("gpt-argmin", trials=2, dims=dims)


def reference_pinching_entries(trials, seed, dims, functionals):
    """The pinching suite as a per-functional loop that pinches inside it."""
    rng = as_rng(seed)
    entries = []
    for _ in range(trials):
        d = int(rng.integers(dims[0], dims[1] + 1))
        rho = random_density(d, rng)
        basis = random_unitary(d, rng)
        _, eigenbasis = eigen_spectrum(rho)
        for F in functionals:
            entries.append(pinching_inequality_audit(rho, basis, F, tolerance=INEQ_TOL))
            base = quantum_entropy(rho, F).value
            pinned = entropy_finite(pinch(rho, eigenbasis), F).value
            entries.append(
                AuditEntry.check(
                    "pinching-eigenbasis-equality", -abs(pinned - base), INEQ_TOL, functional=F.name, dim=d
                )
            )
    return entries


# The default functionals plus one whose callables accept only scalars, so
# make_custom runs both through np.vectorize.
REFERENCE_FUNCTIONALS = [
    *DEFAULT_FUNCTIONAL_SPECS,
    make_custom(
        "scalar-shannon",
        phi=lambda x: -x * math.log(x) if x > 0 else 0.0,
        h=lambda y: float(y),
        case=FunctionalCase.INCREASING_CONCAVE,
    ),
]


def reference_schur_entries(trials, seed, dims, functionals):
    """The schur suite as a per-trial, per-functional loop of one-vector calls."""
    rng = as_rng(seed)
    entries = []
    for _ in range(trials):
        n = int(rng.integers(dims[0], dims[1] + 1))
        Q = bistochastic_from_unitary(random_unitary(n, rng))
        p = random_prob_vector(n, rng)
        q = apply_bistochastic(Q, p)
        entries.append(AuditEntry.check("mixing-majorization", majorization_margin(p, q), EQ_TOL, dim=n))
        for F in functionals:
            hp = entropy_finite(p, F).value
            hq = entropy_finite(q, F).value
            entries.append(AuditEntry.check("entropy-monotone", hq - hp, INEQ_TOL, functional=F.name, dim=n))
            rows = [jensen_step_oracle(row, p, F) for row in Q.matrix]
            int_f, int_phi, disc_q, disc_sum = (np.array(column) for column in zip(*rows))
            eq_worst = float(min(np.min(-np.abs(int_f - disc_q)), np.min(-np.abs(int_phi - disc_sum))))
            points = F.phi(disc_q)
            if F.case is FunctionalCase.INCREASING_CONCAVE:
                dir_worst = float(np.min(points - disc_sum))
            else:
                dir_worst = float(np.min(disc_sum - points))
            for case, margin in (("jensen-integral-match", eq_worst), ("jensen-direction", dir_worst)):
                entries.append(AuditEntry.check(case, margin, EQ_TOL, functional=F.name, dim=n))
    return entries


def reference_isometry_entries(trials, seed, dims, functionals):
    """The isometry suite as a per-trial, per-functional loop of quantum_entropy calls."""
    rng = as_rng(seed)
    entries = []
    for t in range(trials):
        d = int(rng.integers(dims[0], dims[1] + 1))
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
    return entries


def reference_ensemble_entries(trials, seed, dims, functionals):
    """The ensemble suite scoring each drawn ensemble as it is drawn."""
    rng = as_rng(seed)
    n_states = max(1, trials // 20)
    entries = []
    drawn = 0
    for s in range(n_states):
        d = int(rng.integers(dims[0], dims[1] + 1))
        rank = int(rng.integers(1, d + 1))
        rho = random_density(d, rng, rank=rank)
        spectrum, _ = eigen_spectrum(rho)
        r = int(np.sum(spectrum.entries > ZERO_TOL))
        spectral_h = {F.name: quantum_entropy(rho, F).value for F in functionals}
        infimum = {F.name: inf_ensemble_entropy(rho, F, trials=0)[0] for F in functionals}
        budget = (trials - drawn) // (n_states - s)
        for _ in range(max(1, budget)):
            m = r + int(rng.integers(0, 3))
            ensemble = random_ensemble(rho, m, rng=rng)
            drawn += 1
            margin = majorization_margin(spectrum.entries, ensemble.weights.entries)
            entries.append(AuditEntry.check("ensemble-majorization", margin, EQ_TOL, dim=d))
            for F in functionals:
                hw = entropy_finite(ensemble.weights, F).value
                margin = hw - spectral_h[F.name]
                entries.append(AuditEntry.check("ensemble-entropy", margin, INEQ_TOL, functional=F.name, dim=d))
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
    return entries


def reference_gpt_argmin_entries(trials, seed, dims, functionals):
    """The gpt-argmin suite scoring each trial as it is drawn, one functional at a time."""
    rng = as_rng(seed)
    entries = []
    for _ in range(trials):
        d = int(rng.integers(dims[0], dims[1] + 1))
        n = int(rng.integers(d + 2, 9))
        model = random_sphere_model(n, d, rng)
        x = random_interior_point(model, rng)
        draws = rng.random((len(functionals), 3))
        decs = enumerate_basic_decompositions(model, x)
        majorant = gpt_majorant(model, x)
        for F, (u0, u1, u2) in zip(functionals, draws.tolist()):
            value, _ = minimize_entropy(decs, F)
            if len(decs) >= 2:
                i, j = math.floor(u0 * len(decs)), math.floor(u1 * (len(decs) - 1))
                j += j >= i
                t = 0.2 + (0.8 - 0.2) * u2
                blend = np.zeros(n)
                blend[list(decs[i].support)] += t * decs[i].weights
                blend[list(decs[j].support)] += (1.0 - t) * decs[j].weights
                margin = entropy_finite(blend, F).value - value
                entries.append(AuditEntry.check("argmin-optimality", margin, INEQ_TOL, functional=F.name, dim=d))
            h_major = entropy_finite(np.pad(majorant, (0, n - majorant.size)), F).value
            entries.append(AuditEntry.check("majorant-minimal", value - h_major, INEQ_TOL, functional=F.name, dim=d))
    return entries


def test_blend_picks_are_distinct_pairs_and_uniform_shares():
    # every corner of [0, 1)^3 for L = 2..20 decompositions
    edges = (0.0, 1.0 - 2.0**-53)
    corners = np.array(list(itertools.product(edges, repeat=3)))
    counts = np.arange(2, 21)
    i, j, t = audit._blend_picks(np.broadcast_to(corners, (len(counts), *corners.shape)), counts)
    L = counts[:, None]
    assert ((0 <= i) & (i < L) & (0 <= j) & (j < L) & (i != j)).all()
    assert {(a, b) for a, b in zip(i[-1], j[-1])} == {(0, 1), (0, 19), (19, 0), (19, 18)}
    # the share of each draw is the one Generator.uniform(0.2, 0.8) makes of it
    shares = audit._blend_picks(as_rng(9).random((4, 5, 3)), np.full(4, 3))[2]
    assert np.array_equal(shares, as_rng(9).uniform(0.2, 0.8, (4, 5, 3))[..., 2])


@pytest.mark.parametrize("seed", [3, 7, 2024])
@pytest.mark.parametrize(
    "suite,reference,trials,dims",
    [
        ("schur", reference_schur_entries, 40, (2, 8)),
        ("schur", reference_schur_entries, 40, (2, 30)),
        ("schur", reference_schur_entries, 40, (1, 12)),
        ("pinching", reference_pinching_entries, 40, (2, 8)),
        ("pinching", reference_pinching_entries, 40, (1, 12)),
        ("isometry", reference_isometry_entries, 40, (2, 8)),
        ("isometry", reference_isometry_entries, 40, (1, 12)),
        ("ensemble", reference_ensemble_entries, 100, (2, 6)),
        ("ensemble", reference_ensemble_entries, 200, (3, 3)),
        ("gpt-argmin", reference_gpt_argmin_entries, 40, (2, 3)),
        ("gpt-argmin", reference_gpt_argmin_entries, 40, (2, 4)),
    ],
    ids=[
        "schur", "schur-wide", "schur-from-1", "pinching", "pinching-from-1", "isometry", "isometry-from-1",
        "ensemble", "ensemble-one-dim",
        "gpt-argmin", "gpt-argmin-wide",
    ],
)
def test_batched_suite_is_the_per_functional_loop(suite, reference, trials, dims, seed):
    report = run_audit(suite, trials=trials, seed=seed, dims=dims, functional_specs=REFERENCE_FUNCTIONALS)
    functionals = audit._resolve_functionals(REFERENCE_FUNCTIONALS)
    expected = reference(trials, seed, dims, functionals)
    assert len(report.cases) == len(expected)
    assert [repr(c) for c in report.cases] == [repr(e) for e in expected]


@pytest.mark.parametrize("trials,dims", [(7, (2, 8)), (40, (1, 12)), (61, (3, 3))])
def test_schur_suite_mixes_each_dimension_as_one_stack(monkeypatch, trials, dims):
    # The trial loop only draws: the maps and images of one dimension are
    # built in one call each, never one per trial.
    built, applied = [], []

    def counted_build(U):
        built.append(np.shape(U))
        return _unitary_squares(U)

    def counted_apply(Q, p):
        applied.append(np.shape(p))
        return _mix_rows(Q, p)

    monkeypatch.setattr(audit, "_unitary_squares", counted_build)
    monkeypatch.setattr(audit, "_mix_rows", counted_apply)
    report = run_audit("schur", trials=trials, seed=5, dims=dims)
    drawn = Counter(c.dim for c in report.cases if c.case == "mixing-majorization")
    assert sum(drawn.values()) == trials
    assert all(len(shape) == 3 for shape in built)
    assert {n: k for k, n, _ in built} == drawn
    assert len(built) == len(drawn)
    assert applied == [(k, n) for k, n, _ in built]
    counts = Counter(c.case for c in report.cases)
    assert counts == {
        "mixing-majorization": trials,
        "entropy-monotone": 5 * trials,
        "jensen-integral-match": 5 * trials,
        "jensen-direction": 5 * trials,
    }


@pytest.mark.parametrize("trials,dims", [(7, (2, 8)), (40, (1, 12)), (200, (2, 8))])
def test_isometry_suite_solves_each_dimension_once(monkeypatch, trials, dims):
    # The states of one dimension are one stack, validated and eigensolved
    # once; the images are one stack per isometry shape (rows, d).
    built, solved, conjugated = [], [], []

    def counted_state(matrices):
        built.append(np.shape(matrices))
        return DensityOperator(matrices)

    def counted_solve(matrices):
        solved.append(np.shape(matrices))
        return _eigensystems(matrices)

    def counted_conjugate(matrices, V):
        conjugated.append(np.shape(V))
        return _conjugated(matrices, V)

    monkeypatch.setattr(audit, "DensityOperator", counted_state)
    monkeypatch.setattr(audit, "_eigensystems", counted_solve)
    monkeypatch.setattr(audit, "_conjugated", counted_conjugate)
    report = run_audit("isometry", trials=trials, seed=7, dims=dims)
    drawn = Counter(c.dim for c in report.cases if c.functional == "shannon")
    assert sum(drawn.values()) == trials
    states, images = solved[: len(drawn)], solved[len(drawn) :]
    assert len(states) == len(drawn) and {d: k for k, d, _ in states} == drawn
    shapes = Counter((rows, d) for _, rows, d in conjugated)
    assert len(shapes) == len(conjugated) and sum(k for k, _, _ in conjugated) == trials
    assert images == [(k, rows, rows) for k, rows, _ in conjugated]
    assert built == states + images


@pytest.mark.parametrize("trials", [7, 40, 61, 400])
def test_ensemble_suite_draws_each_random_ensemble_once(monkeypatch, trials):
    # Draws are built in stacks of one (dimension, rank, size) key across
    # states: each drawn ensemble is one slice of a stacked mixing, and the
    # kernel draws nothing itself. random_ensemble runs only for the spectral
    # ensembles, with identity mixings.
    stacked, single, unmixed = [], [], []

    def counted_stack(matrices, spectra, bases, mixings):
        ranks = np.sum(spectra > ZERO_TOL, axis=1)
        assert all(M.shape[1] == r for r, M in zip(ranks, mixings))
        stacked.append([(len(s), int(r), len(M)) for s, r, M in zip(spectra, ranks, mixings)])
        return _ensembles(matrices, spectra, bases, mixings)

    def counted(rho, m, rng=None, mixing=None):
        (unmixed if mixing is None else single).append(m)
        return random_ensemble(rho, m, rng=rng, mixing=mixing)

    monkeypatch.setattr(audit, "_ensembles", counted_stack)
    monkeypatch.setattr(quantum, "random_ensemble", counted)
    report = run_audit("ensemble", trials=trials, seed=5)
    states = max(1, trials // 20)
    assert unmixed == []
    assert sum(len(keys) for keys in stacked) == trials
    assert all(len(set(keys)) == 1 for keys in stacked)
    assert len({keys[0] for keys in stacked}) == len(stacked)
    assert len(single) == states
    counts = Counter(c.case for c in report.cases)
    assert counts == {
        "ensemble-majorization": trials,
        "ensemble-entropy": 5 * trials,
        "infimum-equals-spectrum": 5 * states,
    }


@pytest.mark.parametrize("trials", [7, 61])
def test_ensemble_suite_builds_one_spectral_ensemble_per_state(monkeypatch, trials):
    calls = []

    def counted(rho, F, trials=200, rng_seed=0):
        calls.append(trials)
        return inf_ensemble_entropy(rho, F, trials=trials, rng_seed=rng_seed)

    monkeypatch.setattr(audit, "inf_ensemble_entropy", counted)
    run_audit("ensemble", trials=trials, seed=5)
    assert calls == [0] * max(1, trials // 20)


def test_same_seed_reproduces_bitwise():
    a = run_audit("schur", trials=8, seed=123)
    b = run_audit("schur", trials=8, seed=123)
    assert a.to_dict() == b.to_dict()


def test_different_seed_changes_margins():
    a = run_audit("schur", trials=8, seed=1)
    b = run_audit("schur", trials=8, seed=2)
    assert a.to_dict() != b.to_dict()


def test_functional_selection_shrinks_cases():
    full = run_audit("pinching", trials=6, seed=7)
    one = run_audit("pinching", trials=6, seed=7, functional_specs=["shannon"])
    assert len(one.cases) < len(full.cases)
    assert all(c.functional in ("shannon", "") for c in one.cases)


def test_dims_are_respected():
    report = run_audit("schur", trials=6, seed=7, dims=(3, 3))
    assert all(c.dim == 3 for c in report.cases if c.dim)


def test_entry_margin_semantics():
    ok = AuditEntry.check(case="x", margin=-5e-10, tolerance=1e-9)
    bad = AuditEntry.check(case="x", margin=-2e-9, tolerance=1e-9)
    assert ok.passed and not bad.passed
    positive = AuditEntry.check(case="x", margin=3.0, tolerance=1e-9)
    assert positive.passed


def test_build_report_counts_and_worst():
    entries = [
        AuditEntry.check(case="a", margin=0.5, tolerance=1e-9),
        AuditEntry.check(case="b", margin=-2e-9, tolerance=1e-9),
        AuditEntry.check(case="c", margin=-1e-12, tolerance=1e-9),
    ]
    report = build_report("demo", trials=3, seed=0, tolerance=1e-9, entries=entries)
    assert report.violations == 1
    assert report.worst_margin == -2e-9
    assert report.summary_dict()["violations"] == 1


@pytest.mark.parametrize("margins", [[0.5, math.nan, 0.1], [math.nan, 0.5, 0.1]])
def test_a_nan_margin_makes_the_worst_margin_nan(margins):
    # Python's min keeps a leading NaN but skips a later one; the report must not depend on the order.
    entries = [AuditEntry.check(case="x", margin=m, tolerance=1e-9) for m in margins]
    report = build_report("demo", trials=3, seed=0, tolerance=1e-9, entries=entries)
    assert report.violations == 1
    assert math.isnan(report.worst_margin)


def test_entries_are_the_per_cell_checks_row_by_row():
    margins = np.array([[0.5, -2e-9, 1e-13, -1e-13], [math.nan, 0.0, -5e-10, 3.0], [-1.0, 2e-12, -2e-12, 0.25]])
    columns = [("a", INEQ_TOL, "shannon"), ("b", EQ_TOL, ""), ("c", EQ_TOL, "renyi"), ("d", INEQ_TOL, "tsallis")]
    dims = [2, 5, 3]
    keep = np.array([[True, False, True, True], [True, True, False, True], [False, True, True, True]])
    everything = np.ones(keep.shape, bool)
    for mask, got in ((keep, audit._entries(margins, columns, dims, keep)), (everything, audit._entries(margins, columns, dims))):
        expected = [
            AuditEntry.check(case, margins[r, c], tolerance, name, dims[r])
            for r in range(3)
            for c, (case, tolerance, name) in enumerate(columns)
            if mask[r, c]
        ]
        # repr compares the NaN margin too, which == on the records would not.
        assert repr(got) == repr(expected)
        assert [tuple(map(type, e)) for e in got] == [tuple(map(type, e)) for e in expected]
        assert [type(e) for e in got] == [AuditEntry] * int(mask.sum())
    assert [e.case for e in audit._entries(margins, columns, dims, keep) if not e.passed] == ["a", "c"]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_entry_fields_are_python_scalars(suite):
    # A numpy scalar would change an entry's repr and the JSON the CLI writes.
    report = run_audit(suite, trials=40, seed=3)
    assert report.cases
    for c in report.cases:
        assert type(c) is AuditEntry and type(c.case) is str and type(c.functional) is str
        assert type(c.margin) is float and type(c.tolerance) is float
        assert type(c.passed) is bool and type(c.dim) is int
        assert c == AuditEntry.check(c.case, c.margin, c.tolerance, c.functional, c.dim)


def test_gpt_argmin_suite_fields():
    report = run_audit("gpt-argmin", trials=10, seed=7)
    counts = Counter(c.case for c in report.cases)
    assert counts["argmin-optimality"]
    # the join exists at every state, so every trial checks it under every functional
    assert counts["majorant-minimal"] == 10 * len(DEFAULT_FUNCTIONAL_SPECS)
