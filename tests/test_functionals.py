"""Construction and validation of (h, phi) functional pairs."""

import dataclasses
import math

import numpy as np
import pytest

from entrokit.audit import DEFAULT_FUNCTIONAL_SPECS
from entrokit.classical import SequenceSource, entropy_finite, entropy_sequence, sequence_from_spec
from entrokit.functionals import (
    BUILTIN_FAMILIES,
    MAX_GRID,
    MIN_GRID,
    EntropicFunctional,
    FunctionalCase,
    functional_from_spec,
    make_custom,
    make_kaniadakis,
    make_renyi,
    make_shannon,
    make_tsallis,
    validate_functional,
)
from entrokit.gpt import ConvexModel, gpt_entropy
from entrokit.quantum import pure_state, quantum_entropy

LN2 = 0.6931471805599453


def test_shannon_pointwise():
    F = make_shannon()
    assert F.case is FunctionalCase.INCREASING_CONCAVE
    # phi(1/2) = (1/2) ln 2, frozen
    assert abs(F.phi(0.5) - 0.3465735902799726) < 1e-15
    assert F.phi(0.0) == 0.0
    assert F.phi(1.0) == 0.0
    assert F.h(0.3) == 0.3


def test_renyi_cases_and_values():
    F_half = make_renyi(0.5)
    F_two = make_renyi(2.0)
    assert F_half.case is FunctionalCase.INCREASING_CONCAVE
    assert F_two.case is FunctionalCase.DECREASING_CONVEX
    assert F_two.phi(0.5) == 0.25
    # h(y) = ln(y)/(1-2): h(1/4) = ln 4, frozen
    assert abs(F_two.h(0.25) - 1.3862943611198906) < 1e-15
    assert F_half.phi(0.25) == 0.5
    assert F_two.phi(0.0) == 0.0


def test_tsallis_always_concave_increasing():
    # phi'' = -q x^(q-2) < 0 on (0,1] for every admissible q
    for q in (0.3, 0.5, 2.0, 3.0):
        F = make_tsallis(q)
        assert F.case is FunctionalCase.INCREASING_CONCAVE
    F2 = make_tsallis(2.0)
    assert F2.phi(0.5) == 0.25
    assert F2.h(0.7) == 0.7


def test_kaniadakis_value_and_symmetry():
    F = make_kaniadakis(0.5)
    # (x^(1/2) - x^(3/2)) / 1 at x = 1/4: 1/2 - 1/8 = 3/8, exact
    assert F.phi(0.25) == 0.375
    assert F.case is FunctionalCase.INCREASING_CONCAVE
    G = make_kaniadakis(-0.5)
    xs = np.linspace(0.0, 1.0, 41)
    assert np.allclose(F.phi(xs), G.phi(xs), rtol=0, atol=1e-15)


def test_phi_zero_is_exact_zero_for_all_builtins():
    fs = [make_shannon(), make_renyi(0.5), make_renyi(2), make_tsallis(2), make_kaniadakis(0.5)]
    for F in fs:
        assert F.phi(0.0) == 0.0
        assert abs(F.h(F.phi(1.0))) <= 1e-12


def test_phi_accepts_arrays():
    F = make_shannon()
    out = F.phi(np.array([0.0, 0.5, 1.0]))
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[2] == 0.0


def test_splitting_subadditivity_matches_case():
    # concave phi with phi(0) = 0 is subadditive, convex phi the reverse;
    # this is what makes weight splitting harmless to the entropy minimum
    a, b = np.meshgrid(np.linspace(0.0, 0.5, 26), np.linspace(0.0, 0.5, 26))
    fs = [make_shannon(), make_renyi(0.5), make_renyi(2), make_tsallis(2), make_kaniadakis(0.5)]
    for F in fs:
        split = F.phi(a) + F.phi(b)
        merged = F.phi(a + b)
        if F.case is FunctionalCase.INCREASING_CONCAVE:
            assert np.all(split >= merged - 1e-12), F.name
        else:
            assert np.all(split <= merged + 1e-12), F.name


def test_validate_builtins_pass():
    specs = ["shannon", "renyi:alpha=0.5", "renyi:alpha=2", "tsallis:q=2", "kaniadakis:kappa=0.5"]
    for spec in specs:
        rep = validate_functional(functional_from_spec(spec), grid_size=1001)
        assert rep.passed, f"{spec}: {[c.name for c in rep.checks if not c.passed]}"


@pytest.mark.parametrize("grid_size", [1001.0, np.int64(1001), np.float32(1001)])
def test_validate_takes_an_integral_grid_of_any_type(grid_size):
    F = make_shannon()
    rep = validate_functional(F, grid_size=grid_size)
    assert type(rep.grid_size) is int
    assert rep == validate_functional(F, grid_size=1001)


def never_evaluated():
    """Shannon with a phi that fails if called: a rejected grid evaluates nothing."""

    def phi(x):
        raise AssertionError("phi was evaluated")

    return dataclasses.replace(make_shannon(), phi=phi)


@pytest.mark.parametrize("grid_size", [1001.5, math.nan, math.inf, "1001", True, None])
def test_validate_rejects_a_grid_that_is_not_a_count(grid_size):
    with pytest.raises(ValueError, match="grid_size must be an integer"):
        validate_functional(never_evaluated(), grid_size=grid_size)


@pytest.mark.parametrize("grid_size", [MIN_GRID - 1, -5, MAX_GRID + 1, 200_000, 10**12])
def test_validate_rejects_a_grid_outside_its_bounds_before_any_work(grid_size):
    with pytest.raises(ValueError, match=f"grid_size must lie in {MIN_GRID}..{MAX_GRID}"):
        validate_functional(never_evaluated(), grid_size=grid_size)


def test_validate_runs_at_the_grid_bounds():
    assert validate_functional(make_shannon(), grid_size=MIN_GRID).grid_size == MIN_GRID
    assert validate_functional(make_renyi(2), grid_size=MAX_GRID).passed


def test_validate_miscased_pair_fails():
    # x**2 is convex, so declaring it concave-increasing must be caught
    F = make_custom("square", phi=lambda x: x**2, h=lambda y: y, case=FunctionalCase.INCREASING_CONCAVE)
    rep = validate_functional(F)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "phi_strictly_concave" in failed


def all_pairs_curvature_margin(F, grid_size):
    """The curvature margin as the least midpoint gap over every pair of the grid."""
    xs = np.linspace(0.0, 1.0, grid_size)
    phi_xs = np.asarray(F.phi(xs))
    ii, jj = np.triu_indices(grid_size, k=1)
    gaps = np.asarray(F.phi(0.5 * (xs[ii] + xs[jj]))) - 0.5 * (phi_xs[ii] + phi_xs[jj])
    return float(np.min(-gaps if F.case is FunctionalCase.DECREASING_CONVEX else gaps))


MISCASED_SQUARE = make_custom("square", phi=lambda x: x**2, h=lambda y: y, case=FunctionalCase.INCREASING_CONCAVE)
# Linear on [0, 1/2] up to a cubic of weight 5e-7, so convex on (1/2, 1]: its full
# span and its pairs one or two steps apart at grid 1001 all miss the violation,
# while the pair (1/2, 1) has a gap of -3/64 * 5e-7.
SLIGHTLY_CONVEX = make_custom(
    "slightly_convex",
    phi=lambda x: x + 5e-7 * ((x - 0.5) ** 3 + 0.125),
    h=lambda y: y - (1.0 + 5e-7 * 0.25),
    case=FunctionalCase.INCREASING_CONCAVE,
)


@pytest.mark.parametrize("grid_size", [3, 10, 1001, 2001])
@pytest.mark.parametrize(
    "F",
    [functional_from_spec(s) for s in DEFAULT_FUNCTIONAL_SPECS] + [MISCASED_SQUARE, SLIGHTLY_CONVEX],
    ids=lambda F: F.name,
)
def test_curvature_margin_is_the_all_pairs_margin(F, grid_size):
    rep = validate_functional(F, grid_size=grid_size)
    (curvature,) = [c for c in rep.checks if c.name.startswith("phi_strictly_")]
    assert curvature.margin == all_pairs_curvature_margin(F, grid_size)
    assert curvature.passed == (F not in (MISCASED_SQUARE, SLIGHTLY_CONVEX))
    if F is MISCASED_SQUARE:
        assert curvature.margin == -0.25


def test_validate_catches_phi_zero_offset():
    F = make_custom(
        "offset", phi=lambda x: np.asarray(x) + 0.01, h=lambda y: y, case=FunctionalCase.INCREASING_CONCAVE
    )
    rep = validate_functional(F)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "phi_at_zero" in failed


@pytest.mark.parametrize("spec", DEFAULT_FUNCTIONAL_SPECS)
def test_phi_at_zero_margin_is_positive_zero_when_phi_vanishes(spec):
    # -abs(0.0) is -0.0, which JSON prints as "-0.0"; 0.0 - abs(0.0) is +0.0.
    check = next(c for c in validate_functional(functional_from_spec(spec)).checks if c.name == "phi_at_zero")
    assert check.passed and check.margin == 0.0 and math.copysign(1.0, check.margin) == 1.0


def test_validate_catches_non_monotone_h():
    F = make_custom(
        "downhill",
        phi=lambda x: np.where(np.asarray(x) > 0, -np.asarray(x) * np.log(np.where(np.asarray(x) > 0, x, 1.0)), 0.0),
        h=lambda y: -np.asarray(y),
        case=FunctionalCase.INCREASING_CONCAVE,
    )
    rep = validate_functional(F)
    assert not rep.passed
    assert "h_strictly_increasing" in {c.name for c in rep.checks if not c.passed}


def test_validation_report_dict_shape():
    rep = validate_functional(make_shannon())
    d = rep.to_dict()
    assert d["functional"] == "shannon"
    assert d["passed"] is True
    assert {c["name"] for c in d["checks"]} >= {"phi_at_zero", "h_at_phi_one"}


def test_spec_roundtrip_and_names():
    F = functional_from_spec("renyi:alpha=2")
    assert F.name == "renyi:alpha=2"
    assert F.family == "renyi"
    assert functional_from_spec("shannon").name == "shannon"
    K = functional_from_spec("kaniadakis:kappa=0.25")
    assert K.params == {"kappa": 0.25}


def test_power_families_declare_their_powers():
    # (a, b, d): phi(x) = (x**a - x**b) / d, or x**a / d when b is None.
    assert make_renyi(2.0).powers == (2.0, None, 1.0)
    assert make_tsallis(0.5).powers == (1.0, 0.5, -0.5)
    assert make_kaniadakis(-0.25).powers == (1.25, 0.75, -0.5)
    assert make_shannon().powers is None
    assert make_custom("c", lambda x: x, lambda y: y, FunctionalCase.INCREASING_CONCAVE).powers is None


@pytest.mark.parametrize("value", [0.5, 2.0, 0.9999999, 1 + 1e-12, 0.9604999782348048])
def test_names_rebuild_their_parameter_bit_for_bit(value):
    # ":g" keeps six significant digits, so 0.9999999 would be named 1; a
    # name that ":g" would round spells the float out in full
    built = [("alpha", make_renyi(value)), ("q", make_tsallis(value))]
    if value < 1.0:
        built.append(("kappa", make_kaniadakis(value)))
        src = SequenceSource.geometric(value)
        assert sequence_from_spec(src.name).tail.r.hex() == value.hex(), src.name
    for key, F in built:
        assert functional_from_spec(F.name).params[key].hex() == value.hex(), F.name


@pytest.mark.parametrize(
    "spec",
    [
        "renyi:alpha=1",
        "renyi:alpha=0",
        "renyi:alpha=-2",
        "tsallis:q=1",
        "tsallis:q=0",
        "kaniadakis:kappa=0",
        "kaniadakis:kappa=1",
        "kaniadakis:kappa=1.5",
        "nosuchfamily",
        "renyi",
        "renyi:alpha",
        "renyi:alpha=abc",
        "renyi:beta=2",
        "renyi:alpha=2,beta=3",
        "renyi:alpha=2,alpha=0.5",
        "shannon:alpha=2",
        "renyi:alpha=nan",
        "renyi:alpha=inf",
        "tsallis:q=inf",
        "tsallis:q=-inf",
        "kaniadakis:kappa=nan",
    ],
)
def test_bad_specs_raise(spec):
    with pytest.raises(ValueError):
        functional_from_spec(spec)


@pytest.mark.parametrize(
    "make,value",
    [
        (make_renyi, math.nan),
        (make_renyi, math.inf),
        (make_tsallis, math.nan),
        (make_tsallis, math.inf),
        (make_kaniadakis, math.nan),
        (make_kaniadakis, -math.inf),
    ],
)
def test_constructors_reject_non_finite_parameters(make, value):
    # The constructors are public beside the spec parser, so they check too.
    with pytest.raises(ValueError, match="must"):
        make(value)


def test_registry_lists_all_four_families():
    assert set(BUILTIN_FAMILIES) == {"shannon", "renyi", "tsallis", "kaniadakis"}


def test_make_custom_rejects_bad_case():
    with pytest.raises(ValueError):
        make_custom("x", phi=lambda x: x, h=lambda y: y, case="concave")


def test_functional_is_frozen():
    F = make_shannon()
    with pytest.raises(Exception):
        F.name = "other"


def reference_pair(family, param=None):
    """The masked phi and h the built-ins used before they were plain expressions."""

    def phi(x):
        x = np.asarray(x, dtype=float).ravel()
        out = np.zeros_like(x)
        nz = x > 0.0
        xs = x[nz]
        if family == "shannon":
            out[nz] = -xs * np.log(xs)
        elif family == "renyi":
            out[nz] = xs**param
        elif family == "tsallis":
            out[nz] = (xs - xs**param) / (param - 1.0)
        else:
            out[nz] = (xs ** (1.0 - param) - xs ** (1.0 + param)) / (2.0 * param)
        return out

    def h(y):
        y = np.asarray(y, dtype=float)
        if family != "renyi":
            return y
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(y) / (1.0 - param) + 0.0

    return phi, h


REFERENCE_CASES = (
    [("shannon", None, make_shannon())]
    + [("renyi", a, make_renyi(a)) for a in (0.1, 0.5, 2.0, 5.0)]
    + [("tsallis", q, make_tsallis(q)) for q in (0.5, 2.0)]
    + [("kaniadakis", k, make_kaniadakis(k)) for k in (0.25, 0.5, -0.5)]
)


@pytest.mark.parametrize("family,param,F", REFERENCE_CASES, ids=[c[2].name for c in REFERENCE_CASES])
def test_builtins_are_the_masked_formulas_bit_for_bit(family, param, F):
    rng = np.random.default_rng(2024)
    xs = np.concatenate(
        [[0.0, 1.0, 5e-324, 0.5, 1.0 - 2.0**-53], np.linspace(0.0, 1.0, 1001), rng.dirichlet(np.ones(10_000))]
    )
    ref_phi, ref_h = reference_pair(family, param)
    got, want = F.phi(xs), ref_phi(xs)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # h on the phi-sums of the grid points and of the range validate_functional probes
    ys = np.concatenate([[0.0, 1.0, 64.0], want, np.cumsum(want[-64:])])
    got_h, want_h = F.h(ys), ref_h(ys)
    assert np.array_equal(got_h, want_h)
    assert np.array_equal(np.signbit(got_h), np.signbit(want_h))
    for x in (0.0, 1.0, 5e-324, 0.5):
        assert np.signbit(F.phi(x)) == np.signbit(ref_phi(x)[0])
        assert F.phi(x) == ref_phi(x)[0]


@pytest.mark.parametrize("F", [c[2] for c in REFERENCE_CASES], ids=[c[2].name for c in REFERENCE_CASES])
def test_a_point_mass_has_entropy_plus_zero(F):
    # Renyi's h, ln(y) / (1 - alpha), once gave -0.0 at y = 1 for alpha > 1.
    triangle = ConvexModel([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    values = (
        entropy_finite([1.0], F).value,
        quantum_entropy(pure_state([1.0, 0.0]), F).value,
        gpt_entropy(triangle, [0.0, 0.0], F)[0],
        entropy_sequence(SequenceSource.from_vector([1.0]), F).value,
    )
    assert values == (0.0,) * 4
    assert not np.signbit(values).any()


@pytest.mark.parametrize("spec", ["shannon", "renyi:alpha=0.5", "renyi:alpha=2", "tsallis:q=2", "kaniadakis:kappa=0.5"])
def test_builtins_keep_the_input_shape(spec):
    F = functional_from_spec(spec)
    for f in (F.phi, F.h):
        assert isinstance(f(0.25), float)
        assert isinstance(f(1), float)
        assert np.shape(f(np.array(0.25))) == ()
        assert f(np.full((2, 3), 0.25)).shape == (2, 3)
        assert f([0.25, 0.5]).shape == (2,)
        assert f(np.empty(0)).shape == (0,)
        assert f(np.empty((0, 3))).shape == (0, 3)


def test_scalar_only_custom_phi_is_vectorized():
    # math.log rejects arrays, so the pair is lifted through np.vectorize
    def phi(x):
        return -x * math.log(x) if x > 0.0 else 0.0

    F = make_custom("scalar-shannon", phi=phi, h=lambda y: y, case=FunctionalCase.INCREASING_CONCAVE)
    assert isinstance(F.phi(0.5), float)
    assert F.phi(np.full((2, 2), 0.5)).shape == (2, 2)
    p = np.random.default_rng(5).dirichlet(np.ones(12))
    assert abs(entropy_finite(p, F).value - entropy_finite(p, make_shannon()).value) <= 1e-15
    assert validate_functional(F).passed
