"""Exact references for the tests, in rational arithmetic.

Every float is an exact rational, so an answer computed exactly from the
float inputs is the exact answer to the float problem: it shares no
tolerance with the code under test.
"""

from fractions import Fraction
from itertools import combinations


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
