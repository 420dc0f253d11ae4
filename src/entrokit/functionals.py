"""Entropic functional pairs and their validation.

An entropy in this family evaluates ``h(sum_i phi(p_i))`` on a probability
vector ``p``.  Admissible pairs couple a strictly increasing ``h`` with a
strictly concave ``phi``, or a strictly decreasing ``h`` with a strictly
convex ``phi``, normalized so that ``phi(0) = 0`` and ``h(phi(1)) = 0``.
Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

STRICT_TOL = 1e-12
GRID_DEFAULT = 1001
MIN_GRID = 3
# The curvature check scores all grid_size**2 / 2 pairs, 64 rows at a time:
# 2 million pairs at this cap, 5e9 at a grid of 1e5.
MAX_GRID = 2001
# h is validated on the sums realizable with at most this many outcomes.
RANGE_OUTCOMES = 64


def as_count(value, name: str) -> int:
    """``value`` as an int, for a count argument such as max_terms or trials.

    Python and numpy integers pass, and so do integral floats; bools,
    non-integral or non-finite numbers and non-numbers raise ValueError.
    """
    # is_integer() is False for NaN and the infinities.
    if (
        isinstance(value, (bool, np.bool_))
        or not isinstance(value, numbers.Real)
        or not (isinstance(value, numbers.Integral) or float(value).is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def format_param(value: float) -> str:
    """``value`` in a spec name: ``:g`` (six digits) if that parses back to the same float, else repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


class FunctionalCase(Enum):
    """Monotonicity and curvature pairing of an admissible pair."""

    INCREASING_CONCAVE = "increasing_concave"
    DECREASING_CONVEX = "decreasing_convex"


@dataclass(frozen=True)
class EntropicFunctional:
    """A named (h, phi) pair with its declared case and parameters.

    ``phi`` maps [0, 1] to the reals and ``h`` maps the closure of the range
    of the finite sums ``sum_i phi(p_i)`` to the reals; both accept scalars
    or numpy arrays.  ``family`` tags instances produced by the built-in
    factories; custom pairs leave it None.

    ``powers`` declares a power family: (a, b, d) means
    phi(x) = (x**a - x**b) / d, or x**a / d when b is None.  The Renyi,
    Tsallis and Kaniadakis factories build phi from it, classical's
    GeometricTail sums it in closed form and entropy_sequence reads the
    slope of phi at 0+ from it.  Shannon and custom pairs leave it None.
    """

    name: str
    phi: Callable
    h: Callable
    case: FunctionalCase
    params: dict = field(default_factory=dict)
    family: str | None = None
    powers: tuple | None = None


def _identity(y):
    return np.asarray(y, dtype=float)[()]


def _power_family(
    family: str, param: str, value: float, h: Callable, case: FunctionalCase, powers: tuple
) -> EntropicFunctional:
    """The built-in ``family`` at ``param`` = ``value``, with the phi its ``powers`` declare.

    (a, b, d) gives phi(x) = (x**a - x**b) / d, masked to +0.0 where x <= 0
    (the formula gives -0.0 at x = 0 when d < 0), or, when b is None,
    x**a / d unmasked, so that phi of NaN or of a negative x is x**a's.
    """
    a, b, d = powers

    def phi(x):
        x = np.asarray(x, dtype=float)
        if b is None:
            return x**a / d
        return np.where(x > 0.0, (x**a - x**b) / d, 0.0)[()]

    return EntropicFunctional(
        name=f"{family}:{param}={format_param(value)}",
        phi=phi,
        h=h,
        case=case,
        params={param: value},
        family=family,
        powers=powers,
    )


def make_shannon() -> EntropicFunctional:
    """The pair phi(x) = -x ln x, h = identity."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, -x * np.log(x), 0.0)[()]

    return EntropicFunctional(
        name="shannon",
        phi=phi,
        h=_identity,
        case=FunctionalCase.INCREASING_CONCAVE,
        params={},
        family="shannon",
    )


def make_renyi(alpha: float) -> EntropicFunctional:
    """The pair phi(x) = x**alpha, h(y) = ln(y) / (1 - alpha).

    Strictly concave phi with increasing h for 0 < alpha < 1, strictly
    convex phi with decreasing h for alpha > 1.  alpha = 1 is excluded.

    The value's sensitivity to the total sum p_i is of order 1/(1 - alpha):
    scaling p by 1 + e moves it by alpha ln(1 + e) / (1 - alpha), so a total
    off 1 by rounding moves it by that rounding over |1 - alpha|, without
    bound as alpha nears 1.  That is a property of the definition, not a
    defect of its evaluation.
    """
    alpha = float(alpha)
    # Written to be true for NaN, so a NaN alpha is rejected too.
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise ValueError(f"alpha must be positive, finite and different from 1, got {alpha}")
    scale = 1.0 - alpha

    def h(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.asarray(y, dtype=float)) / scale + 0.0  # +0.0, not -0.0, at y = 1 for alpha > 1

    case = FunctionalCase.INCREASING_CONCAVE if alpha < 1.0 else FunctionalCase.DECREASING_CONVEX
    return _power_family("renyi", "alpha", alpha, h, case, (alpha, None, 1.0))


def make_tsallis(q: float) -> EntropicFunctional:
    """The pair phi(x) = (x - x**q) / (q - 1), h = identity.

    phi is strictly concave for every admissible q > 0, q != 1, so the case
    is increasing/concave throughout the parameter range.
    """
    q = float(q)
    # Written to be true for NaN, so a NaN q is rejected too.
    if not 0.0 < q < math.inf or q == 1.0:
        raise ValueError(f"q must be positive, finite and different from 1, got {q}")
    return _power_family("tsallis", "q", q, _identity, FunctionalCase.INCREASING_CONCAVE, (1.0, q, q - 1.0))


def make_kaniadakis(kappa: float) -> EntropicFunctional:
    """The pair phi(x) = (x**(1-kappa) - x**(1+kappa)) / (2 kappa), h = identity.

    Requires 0 < |kappa| < 1; the pair is symmetric under kappa -> -kappa.
    """
    kappa = float(kappa)
    # Written to be true for NaN, so a NaN kappa is rejected too.
    if kappa == 0.0 or not abs(kappa) < 1.0:
        raise ValueError(f"kappa must satisfy 0 < |kappa| < 1, got {kappa}")
    powers = (1.0 - kappa, 1.0 + kappa, 2.0 * kappa)
    return _power_family("kaniadakis", "kappa", kappa, _identity, FunctionalCase.INCREASING_CONCAVE, powers)


def _lift(f: Callable) -> Callable:
    """Lift a user callable to scalars and nd arrays of floats.

    A callable that maps a 2-vector to a 2-vector is called once on the
    raveled input; any other, such as one written for scalars only, is run
    through np.vectorize.  A scalar input gives a Python float.
    """
    try:
        vector_ok = np.shape(f(np.array([0.25, 0.5]))) == (2,)
    except Exception:
        vector_ok = False
    g = f if vector_ok else np.vectorize(f, otypes=[float])

    @functools.wraps(f)
    def lifted(x):
        shape = np.shape(x)
        arr = np.asarray(x, dtype=float).ravel()
        if arr.size == 0:
            return np.empty(shape)
        out = np.asarray(g(arr), dtype=float)
        if shape == ():
            return float(out[0])
        return out.reshape(shape)

    return lifted


def make_custom(
    name: str,
    phi: Callable,
    h: Callable,
    case: FunctionalCase,
    params: dict | None = None,
) -> EntropicFunctional:
    """Wrap user callables as a functional pair without validating them.

    Run validate_functional on the result to check the declared case.
    """
    if not isinstance(case, FunctionalCase):
        raise ValueError(f"case must be a FunctionalCase, got {case!r}")
    return EntropicFunctional(
        name=name,
        phi=_lift(phi),
        h=_lift(h),
        case=case,
        params=dict(params or {}),
        family=None,
    )


@dataclass(frozen=True)
class ValidationCheck:
    """Single validation outcome; margin > 0 is slack, negative is violation."""

    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class ValidationReport:
    functional: str
    case: str
    grid_size: int
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "functional": self.functional,
            "case": self.case,
            "grid_size": self.grid_size,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "margin": c.margin} for c in self.checks
            ],
        }


def validate_functional(F: EntropicFunctional, grid_size: int = GRID_DEFAULT) -> ValidationReport:
    """Check the normalization, curvature, and monotonicity of a pair on a grid.

    Curvature is probed by strict midpoint concavity (or convexity) over all
    pairs of a uniform grid on [0, 1]; monotonicity of h is probed on the
    interval of sums realizable with at most RANGE_OUTCOMES outcomes.
    Failures are report entries, never exceptions.
    """
    grid_size = as_count(grid_size, "grid_size")
    if not MIN_GRID <= grid_size <= MAX_GRID:
        raise ValueError(f"grid_size must lie in {MIN_GRID}..{MAX_GRID}, got {grid_size}")
    checks = []

    phi0 = float(F.phi(0.0))
    checks.append(ValidationCheck("phi_at_zero", passed=(phi0 == 0.0), margin=0.0 - abs(phi0)))

    root = abs(float(F.h(F.phi(1.0))))
    checks.append(ValidationCheck("h_at_phi_one", passed=(root <= STRICT_TOL), margin=STRICT_TOL - root))

    # A convex phi comes with a decreasing h, so the direction flips the sign of both tests.
    convex = F.case is FunctionalCase.DECREASING_CONVEX
    curve_name = "phi_strictly_convex" if convex else "phi_strictly_concave"
    mono_name = "h_strictly_decreasing" if convex else "h_strictly_increasing"

    xs = np.linspace(0.0, 1.0, grid_size)
    phi_xs = np.asarray(F.phi(xs))
    # Pairs i < j, 64 rows i at a time, so the arrays hold O(grid_size) pairs (about 6 MB
    # at MAX_GRID); nearest pairs alone miss a convex stretch whose gap per step is below tolerance.
    ks, margins = np.arange(grid_size), []
    for lo in range(0, grid_size - 1, 64):
        ii, jj = np.nonzero(ks[lo : lo + 64, None] < ks)
        ii += lo
        gaps = np.asarray(F.phi(0.5 * (xs[ii] + xs[jj]))) - 0.5 * (phi_xs[ii] + phi_xs[jj])
        margins.append(np.min(-gaps if convex else gaps))
    curve_margin = float(np.min(margins))
    checks.append(ValidationCheck(curve_name, passed=(curve_margin > -STRICT_TOL), margin=curve_margin))

    phi1 = float(F.phi(1.0))
    uniform_sum = RANGE_OUTCOMES * float(F.phi(1.0 / RANGE_OUTCOMES))
    lo, hi = sorted((phi1, uniform_sum))
    ys = np.linspace(lo, hi, grid_size)
    diffs = np.diff(np.asarray(F.h(ys)))
    mono_margin = float(np.min(-diffs if convex else diffs)) if diffs.size else 0.0
    checks.append(ValidationCheck(mono_name, passed=(mono_margin > STRICT_TOL), margin=mono_margin))

    return ValidationReport(
        functional=F.name,
        case=F.case.value,
        grid_size=grid_size,
        checks=tuple(checks),
    )


# Parameter schema of the built-in families, keyed by spec-string name.
BUILTIN_FAMILIES = {
    "shannon": {
        "factory": make_shannon,
        "params": (),
        "constraint": "no parameters",
        "case": "increasing_concave",
    },
    "renyi": {
        "factory": make_renyi,
        "params": ("alpha",),
        "constraint": "alpha > 0, alpha != 1",
        "case": "increasing_concave for alpha < 1, decreasing_convex for alpha > 1",
    },
    "tsallis": {
        "factory": make_tsallis,
        "params": ("q",),
        "constraint": "q > 0, q != 1",
        "case": "increasing_concave",
    },
    "kaniadakis": {
        "factory": make_kaniadakis,
        "params": ("kappa",),
        "constraint": "0 < |kappa| < 1",
        "case": "increasing_concave",
    },
}


def parse_spec(spec: str) -> tuple[str, dict]:
    """Split ``name:key=value,...`` into a lowercase name and finite float params, each key once."""
    name, _, rest = spec.strip().partition(":")
    params = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"malformed parameter {item!r} in spec {spec!r}")
        if key in params:
            raise ValueError(f"repeated parameter {key!r} in spec {spec!r}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"non-numeric value for {key!r} in spec {spec!r}") from None
        if not np.isfinite(number):
            raise ValueError(f"non-finite value for {key!r} in spec {spec!r}")
        params[key] = number
    return name.strip().lower(), params


def functional_from_spec(spec: str) -> EntropicFunctional:
    """Build a built-in functional from a spec string like ``renyi:alpha=2``."""
    name, params = parse_spec(spec)
    if name not in BUILTIN_FAMILIES:
        known = ", ".join(sorted(BUILTIN_FAMILIES))
        raise ValueError(f"unknown functional family {name!r} (known: {known})")
    entry = BUILTIN_FAMILIES[name]
    expected = set(entry["params"])
    if set(params) != expected:
        raise ValueError(
            f"family {name!r} takes parameters {sorted(expected) or 'none'}, got {sorted(params)}"
        )
    return entry["factory"](**params)
