"""Exact references for the tests, in rational and 50-digit decimal arithmetic.

Every float is an exact rational, so an answer computed exactly from the
float inputs is the exact answer to the float problem: it shares no
tolerance with the code under test.  The entropies are taken in `decimal`
at 50 digits, 34 beyond a double, and entropy_error_bound states how far
the float code may be from them.
"""

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

DIGITS = 50
U = 2.0**-53  # the unit roundoff of a double


def _solve(columns, b):
    """The unique rational w with sum_j w_j columns[j] = b, for integer columns and b; None if there is none.

    There is none when the columns are linearly dependent or b is off their
    span.  Fraction-free Gaussian elimination (Bareiss) keeps every entry an
    integer, each division being exact, and back substitution over Fraction
    gives the weights.
    """
    k = len(columns)
    rows = [[column[i] for column in columns] + [b[i]] for i in range(len(b))]
    previous = 1
    for col in range(k):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for row in rows[col + 1 :]:
            for j in range(col + 1, k + 1):
                row[j] = (row[j] * top[col] - row[col] * top[j]) // previous
            row[col] = 0
        previous = top[col]
    if any(row[k] for row in rows[k:]):
        return None
    w = [Fraction(0)] * k
    for i in reversed(range(k)):
        w[i] = (rows[i][k] - sum(rows[i][j] * w[j] for j in range(i + 1, k))) / Fraction(rows[i][i])
    return w


def exact_decompositions(V, x) -> list:
    """Every basic decomposition of x over the vertex rows of V, exactly: [(support, weights)].

    A support is a tuple of at most d + 1 affinely independent vertex
    indices whose weights, all strictly positive Fractions, write x and sum
    to one.  Supports come by size, then in lex order, as
    enumerate_basic_decompositions lists them.  The coordinates are taken
    as the rationals their floats are and scaled by their common
    denominator, a power of two, to integers.
    """
    coordinates = [[Fraction(float(c)) for c in v] for v in V] + [[Fraction(float(c)) for c in x]]
    scale = max(c.denominator for point in coordinates for c in point)
    points = [[int(c * scale) for c in point] + [scale] for point in coordinates]
    b, points = points[-1], points[:-1]
    found = []
    for size in range(1, min(len(points), len(b)) + 1):
        for support in combinations(range(len(points)), size):
            w = _solve([points[i] for i in support], b)
            if w is not None and min(w) > 0:
                found.append((support, w))
    return found


def _decimal(value) -> Decimal:
    """A float, an int or a Fraction as a Decimal, rounded to the context's digits from its exact rational."""
    f = Fraction(value)
    return Decimal(f.numerator) / Decimal(f.denominator)


def _powers(family, parameter):
    """The exact (a, b, d) of a power family, phi(x) = (x**a - x**b) / d, or x**a / d when b is None."""
    p, one = _decimal(parameter), Decimal(1)
    return {
        "renyi": (p, None, one),
        "tsallis": (one, p, p - one),
        "kaniadakis": (one - p, one + p, 2 * p),
    }[family]


def exact_entropy(weights, family, parameter=None) -> Decimal:
    """h(sum_i phi(w_i)) of a built-in family, at 50 digits, from the exact rationals of the weights and parameter.

    ``family`` is "shannon", "renyi" (parameter alpha), "tsallis" (q) or
    "kaniadakis" (kappa); ``weights`` are floats or Fractions, and a zero
    weight adds phi(0) = 0.  The exponents 1 - kappa, 1 + kappa and the
    divisor q - 1 are taken exactly, where the float code rounds them.  The
    weights are not normalized: this is the formula at the given point.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        w = [_decimal(x) for x in weights if x]
        if family == "shannon":
            return -sum(x * x.ln() for x in w)
        a, b, d = _powers(family, parameter)
        total = sum((x**a if b is None else x**a - x**b) / d for x in w)
        return total.ln() / (1 - a) if family == "renyi" else total


def exact_geometric(r, family, parameter=None) -> Decimal:
    """The entropy of the whole geometric sequence p_i = (1 - r) r^i, in closed form at 50 digits.

    From the exact rationals of r and the parameter; the power sum over the
    sequence is sum_i p_i**beta = (1 - r)**beta / (1 - r**beta).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        R, one = _decimal(r), Decimal(1)
        if family == "shannon":
            return -(one - R).ln() - R * R.ln() / (one - R)
        a, b, d = _powers(family, parameter)

        def power_sum(beta):
            return (one - R) ** beta / (one - R**beta)

        total = (power_sum(a) if b is None else power_sum(a) - power_sum(b)) / d
        return total.ln() / (1 - a) if family == "renyi" else total


def entropy_error_bound(entries, F, weight_error=0.0) -> float:
    """A bound on |entropy_finite(entries, F).value - exact_entropy(w, F.family, parameter)| for a built-in F.

    ``entries`` are the positive floats the code sums, and w is any vector
    with |w_i - entries_i| <= ``weight_error`` (w = entries by default).
    The bound follows the float code step by step, with u = 2**-53, a
    library log or pow within one ulp (relative error 2u), and every other
    operation correctly rounded (relative error u):
    - -x ln x is within (1 + 2u)(1 + u) - 1 <= gamma(3) of Shannon's phi(x), relatively;
    - x**a_f, with a_f the float exponent F.powers holds and a the exact
      one, is within (1 + expm1(|a_f - a| |ln x|))(1 + 2u) - 1 of x**a,
      relatively; the difference x**a - x**b adds u of itself, and the
      division by the float d_f adds u and |d_f - d| / |d| relatively;
    - a sum of n computed terms, in any order, is within gamma(n - 1) of the
      sum of their absolute values (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., section 4.2);
    - w_i moves phi by at most weight_error times the larger |phi'| at the
      two ends of entries_i +/- weight_error, which must be positive: every
      built-in phi is concave or convex on (0, inf), so phi' is monotone;
    - h is the identity but for Renyi's ln(y) / (1 - alpha).  A sum S off by
      E moves ln by at most E / (S - E); the log adds 2u of itself, the
      division u, and the float 1 - alpha at most u relatively.
    The bound is evaluated in float, from the float entries; that rounding
    is a few u of the bound.
    """

    def gamma(k):
        return k * U / (1 - k * U)

    x = [float(v) for v in entries if v]
    if F.family == "shannon":
        terms = [-v * math.log(v) for v in x]
        errors = [gamma(3) * abs(t) for t in terms]

        def slope(v):
            return -math.log(v) - 1.0

    else:
        with decimal.localcontext() as ctx:
            ctx.prec = DIGITS
            exact = _powers(F.family, next(iter(F.params.values())))
            shift = [0.0 if e is None else abs(float(_decimal(f) - e)) for f, e in zip(F.powers, exact)]
        a, b, d = (None if e is None else float(e) for e in exact)
        d_f = F.powers[2]

        def power(v, e, e_shift):  # x**e, and the error bound of its computed value
            if e is None:
                return 0.0, 0.0
            value = v**e
            return value, value * ((1 + math.expm1(e_shift * abs(math.log(v)))) * (1 + 2 * U) - 1)

        def slope(v):
            return (a * v ** (a - 1) - (0.0 if b is None else b * v ** (b - 1))) / d

        terms, errors = [], []
        for v in x:
            (pa, ea), (pb, eb) = power(v, a, shift[0]), power(v, b, shift[1])
            numerator, numerator_error = abs(pa - pb), (ea + eb) * (1 + U) + U * abs(pa - pb)
            terms.append((pa - pb) / d)
            errors.append((numerator_error * (1 + U) + numerator * (U + shift[2] / abs(d))) / abs(d_f))
    error = sum(errors) + gamma(max(len(x) - 1, 0)) * sum(abs(t) + e for t, e in zip(terms, errors))
    for v in x:
        assert v - weight_error > 0.0, "each weight interval must stay inside (0, inf)"
        error += weight_error * max(abs(slope(v - weight_error)), abs(slope(v + weight_error)))
    if F.family != "renyi":
        return error
    total = sum(terms)
    assert error < total, "Renyi's sum must be bounded away from zero"
    return (error / (total - error) * (1 + U) + (4 * U + 2 * U * U) * abs(math.log(total))) / abs(1 - a)
