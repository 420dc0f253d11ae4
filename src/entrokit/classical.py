"""Classical distributions: finite vectors, lazy sequences, majorization, mixing.

Entropies are computed as h(sum phi(p_i)) for a functional pair from
entrokit.functionals.  Finite sums are evaluated in sorted order so results
are invariant under permutation of the input, bit for bit.

Public functions take and return one object, each by running a private
kernel with a leading stack axis on a stack of one; the audit calls the
kernels on whole stacks.  jensen_step_oracle alone still takes a stack,
until the benchmark stops tracing it (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .functionals import EntropicFunctional, FunctionalCase, as_count, format_param, parse_spec

ENTRY_TOL = 1e-12
SUM_TOL = 1e-9
COMPUTED_FLOOR = 1e-9  # negativity absorbed by ProbVector.from_computation
PARTIAL_SUM_TOL = 1e-12
ROW_SUM_TOL = 1e-10
UNITARY_TOL = 1e-8
STOP_WINDOW = 64  # trailing-window length for sequence truncation
# Largest sequence read; reads double from STOP_WINDOW up to it.  Its float64
# arrays (128,000 bytes) stay under glibc's 128 KiB mmap threshold.
MAX_BLOCK = 16_000


class ProbVector:
    """A validated finite probability vector.

    Entries in [-ENTRY_TOL, 0) are clipped to zero; anything more negative is
    rejected.  The total must be within SUM_TOL of one.  Renormalization is
    off by default because silently rescaling masks data errors; pass
    renormalize=True to opt in.  Entries are stored read-only.
    """

    __slots__ = ("entries",)

    def __init__(self, values, renormalize: bool = False):
        arr = np.array(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("probability vector must be non-empty")
        arr = _clipped_entries(arr)
        total = float(arr.sum())
        if renormalize:
            if total <= 0.0:
                raise ValueError("cannot renormalize a vector with non-positive total")
            arr = arr / total
        elif abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"entries sum to {total!r}, outside 1 +/- {SUM_TOL}")
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def from_computation(cls, values) -> "ProbVector":
        """Wrap an internally computed vector, absorbing bounded roundoff.

        Negative entries down to -COMPUTED_FLOOR are clipped to zero, and the
        vector is renormalized only when the drift |sum - 1| exceeds
        PARTIAL_SUM_TOL.  Intended for spectra, pinched diagonals, and other
        arithmetic products, not for user data.
        """
        return cls(absorb_roundoff(np.asarray(values, dtype=float).ravel()))

    def __len__(self) -> int:
        return int(self.entries.size)

    @property
    def values(self) -> np.ndarray:
        """Alias of ``entries``.

        Spectra from quantum.eigen_spectrum were once a separate type read
        through ``.values``; the acceptance tests still read them that way.
        """
        return self.entries

    def __repr__(self) -> str:
        return f"ProbVector({np.array2string(self.entries, threshold=8)})"

    def sorted_desc(self) -> np.ndarray:
        return np.sort(self.entries)[::-1]


class EntropyStatus(Enum):
    """What an entropy value means; the CLI prints ``.value`` as ``status``.

    EXACT: the value is the entropy (finite input, certified tail or gpt minimum).
    TRUNCATED_ESTIMATE: the value is a truncated sequence sum.
    DECLARED_DIVERGENT: max_terms ran out with the phi-sum still growing; the value is +inf.
    OUTSIDE_HULL: the gpt state is outside the model's hull; value +inf, decomposition null.
    """

    EXACT = "exact"
    TRUNCATED_ESTIMATE = "truncated_estimate"
    DECLARED_DIVERGENT = "declared_divergent"
    OUTSIDE_HULL = "outside_hull"


@dataclass(frozen=True)
class EntropyResult:
    """Entropy value plus the accounting of how it was reached.

    ``increment_at_stop`` is the trailing-window increment (or the certified
    tail remainder) observed when iteration stopped; it is zero for finite
    inputs.
    """

    value: float
    status: EntropyStatus
    terms_used: int
    increment_at_stop: float = 0.0


def _clipped_entries(arr: np.ndarray) -> np.ndarray:
    """``arr`` with entries in [-ENTRY_TOL, 0) set to zero; ValueError if not finite or lower."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("probability vector entries must be finite")
    low = float(arr.min())
    if low < -ENTRY_TOL:
        raise ValueError(f"entry {low} is below the negativity tolerance -{ENTRY_TOL}")
    return np.where(arr < 0.0, 0.0, arr)


def require_slices(ok, message, item: str) -> None:
    """ValueError(message(t)) for the first slice t where ``ok`` is false.

    ``ok`` holds one flag per slice of a stack (a matrix, a state, a mixing,
    an ensemble or a row), or a 0-d flag for a single object, which
    ``message`` then gets as the index ().  The error names the slice as
    "<item> t" only when the stack holds more than one.
    """
    if not ok.all():
        t = int(np.argmin(ok)) if ok.ndim else ()
        raise ValueError(f"{item} {t}: {message(t)}" if ok.size > 1 else message(t))


def require_finite(stack: np.ndarray, message: str, item: str) -> None:
    """require_slices for matrices free of NaN and inf, taken before any arithmetic warns on them."""
    require_slices(np.isfinite(stack).all(axis=(-2, -1)), lambda t: message, item)


def absorb_roundoff(arr: np.ndarray) -> np.ndarray:
    """ProbVector.from_computation's rule, applied along the last axis of ``arr``.

    Entries down to -COMPUTED_FLOOR are clipped to zero, and a vector whose
    total drifts from one by more than PARTIAL_SUM_TOL is divided by it.
    """
    if not np.isfinite(arr).all():
        raise ValueError("probability vector entries must be finite")
    low = float(arr.min()) if arr.size else 0.0
    if low < -COMPUTED_FLOOR:
        raise ValueError(f"computed entry {low} below floor -{COMPUTED_FLOOR}")
    arr = np.where(arr < 0.0, 0.0, arr)
    totals = arr.sum(axis=-1, keepdims=True)
    # Python floats: a vector is usually one row, where numpy calls cost more
    # than the test.
    sums = totals.ravel().tolist()
    if not sums or any(t <= 0.0 for t in sums):
        raise ValueError("computed vector has non-positive total")
    if any(abs(t - 1.0) > PARTIAL_SUM_TOL for t in sums):
        arr = np.where(np.abs(totals - 1.0) > PARTIAL_SUM_TOL, arr / totals, arr)
    return arr


def computed_rows(values) -> np.ndarray:
    """ProbVector.from_computation on each row of a 2-d array, as one read-only array.

    Row i is, bit for bit, the entries of ProbVector.from_computation(values[i]).
    """
    rows = probability_rows(absorb_roundoff(np.asarray(values, dtype=float)))
    rows.setflags(write=False)
    return rows


def _entropy_kernel(entries: np.ndarray, F: EntropicFunctional):
    """h(sum phi) along the last axis, each sum taken in sorted order."""
    return F.h(np.sum(np.sort(np.asarray(F.phi(entries)), axis=-1), axis=-1))


def entropy_finite(p, F: EntropicFunctional) -> EntropyResult:
    """h(sum phi(p_i)) for a finite vector; always status Exact."""
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    value = float(_entropy_kernel(p.entries, F))
    return EntropyResult(value, EntropyStatus.EXACT, terms_used=len(p), increment_at_stop=0.0)


def entropy_rows(rows, F: EntropicFunctional) -> np.ndarray:
    """h(sum phi(p_i)) for each row of a 2-d array of equal-length probability rows.

    Each row is validated as ProbVector validates a vector, without
    renormalization, and entry i of the result is, bit for bit, the value
    entropy_finite gives row i: equal-length sorted rows summed along the
    last axis give the per-row sums exactly.  Rows of different lengths must
    be passed in separate calls, never zero-padded to a common length:
    padding moves the entries within numpy's pairwise summation and changes
    the last bits of the sums.
    """
    return np.asarray(_entropy_kernel(probability_rows(rows), F), dtype=float)


def probability_rows(rows) -> np.ndarray:
    """``rows`` as a float array, each row validated as ProbVector validates a vector."""
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError("need a non-empty 2-d array, one probability vector per row")
    rows = _clipped_entries(rows)
    totals = rows.sum(axis=-1)
    off = np.flatnonzero(np.abs(totals - 1.0) > SUM_TOL)
    if off.size:
        raise ValueError(f"row {int(off[0])} sums to {float(totals[off[0]])!r}, outside 1 +/- {SUM_TOL}")
    return rows


def positions_by_key(keys) -> list[list[int]]:
    """The positions of each distinct key in ``keys``, keys in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def stack_by_length(items) -> list[tuple[list[int], np.ndarray]]:
    """(positions in ``items``, the items stacked) per length, lengths in first-seen order.

    The length of an item is len(item): the size of a vector, the row count
    of a matrix.  Items of one length are stacked as they are, never padded.
    """
    groups = positions_by_key(len(item) for item in items)
    return [(idx, np.array([items[i] for i in idx], dtype=float)) for idx in groups]


def entropy_table(vectors, functionals, computed: bool = False) -> np.ndarray:
    """h(sum phi(p_i)) of every vector under every functional, as a (vectors, functionals) array.

    Entry [i, j] is, bit for bit, entropy_finite(vectors[i], functionals[j]).value.
    ``vectors`` holds ProbVectors or 1-d arrays; they are grouped by length,
    and each group is scored with one entropy_rows call per functional, so
    the cost is one kernel call per (length, functional), not one per vector.
    With ``computed=True`` each group is first taken through absorb_roundoff,
    so entry [i, j] is that of ProbVector.from_computation(vectors[i]).
    """
    arrays = [v.entries if isinstance(v, ProbVector) else np.ravel(v) for v in vectors]
    table = np.empty((len(arrays), len(functionals)))
    for idx, rows in stack_by_length(arrays):
        if computed:
            rows = absorb_roundoff(rows)
        for j, F in enumerate(functionals):
            table[idx, j] = entropy_rows(rows, F)
    return table


@dataclass(frozen=True)
class GeometricTail:
    """Closed-form tail sums for the geometric family p_i = (1-r) r^i.

    remainder(F, n) returns sum_{i >= n} phi(p_i) exactly for the built-in
    families, None for functionals it cannot certify.
    """

    r: float

    def power_sum_tail(self, beta: float, n: int) -> float:
        r = self.r
        return (1.0 - r) ** beta * r ** (beta * n) / (1.0 - r**beta)

    def remainder(self, F: EntropicFunctional, n: int) -> float | None:
        r = self.r
        if F.family == "shannon":
            # sum_{i>=n} p_i ln p_i in closed form, negated.
            return -(r**n * math.log(1.0 - r) + math.log(r) * r**n * (n + r / (1.0 - r)))
        if F.family == "renyi":
            return self.power_sum_tail(F.params["alpha"], n)
        if F.family == "tsallis":
            q = F.params["q"]
            return (self.power_sum_tail(1.0, n) - self.power_sum_tail(q, n)) / (q - 1.0)
        if F.family == "kaniadakis":
            k = F.params["kappa"]
            return (self.power_sum_tail(1.0 - k, n) - self.power_sum_tail(1.0 + k, n)) / (2.0 * k)
        return None


@dataclass(frozen=True)
class FiniteTail:
    """Exact tail for a sequence with known finite support."""

    values: tuple

    def remainder(self, F: EntropicFunctional, n: int) -> float:
        rest = np.asarray(self.values[n:], dtype=float)
        if rest.size == 0:
            return 0.0
        return float(np.sum(F.phi(rest)))


def _inverse_log_square(idx: np.ndarray, offset: int, scale: float) -> np.ndarray:
    """1.0 / ((scale * x) * ln(x)**2) at x = idx + offset, computed in place in two arrays."""
    x = idx.astype(float)
    x += offset
    logs = np.log(x)
    logs *= logs
    x *= scale
    x *= logs
    return np.divide(1.0, x, out=x)


def _log_square_normalizer(offset: int) -> float:
    # sum_{i>=0} 1/((i+offset) ln^2(i+offset)): the first 2^13 terms summed,
    # then the Euler-Maclaurin tail through the f' term at x = 2^13 + offset
    # (the next term is below 1e-19).  Within 1.8 ulps of a 40-digit mpmath
    # evaluation at each of twelve offsets tried from 2 to 10^6.
    n = 1 << 13
    total = float(np.sum(_inverse_log_square(np.arange(n), offset, 1.0)))
    x = float(n + offset)
    L = math.log(x)
    return total + 1.0 / L + 1.0 / (2.0 * x * L**2) + (L + 2.0) / (12.0 * x**2 * L**3)


class SequenceSource:
    """A lazily indexed probability sequence p_0, p_1, ...

    ``fn`` maps an index array to values when ``vectorized`` is true, or a
    single index to a value otherwise; ``vectorized`` is read-only, and
    entropy_sequence reads a vectorized source in blocks.  ``declared_monotone``
    promises nonincreasing values and is probed on every block actually read.
    ``tail`` optionally supplies certified remainders of sum phi(p_i).
    """

    def __init__(
        self,
        fn: Callable,
        declared_monotone: bool = False,
        tail=None,
        name: str = "custom",
        vectorized: bool = False,
    ):
        self._vectorized = bool(vectorized)
        # Reads go through an index-array function; a per-index fn is lifted
        # once, and still called with Python ints, in order, once per index.
        self._read = fn if vectorized else (
            lambda idx: np.array([float(fn(int(i))) for i in idx], dtype=float)
        )
        self.declared_monotone = bool(declared_monotone)
        self.tail = tail
        self.name = name

    @property
    def vectorized(self) -> bool:
        return self._vectorized

    def values(self, start: int, stop: int) -> np.ndarray:
        if start < 0 or stop < start:
            raise ValueError("invalid index range")
        vals = np.asarray(self._read(np.arange(start, stop, dtype=np.int64)), dtype=float)
        # Written to be false for NaN, so a NaN value is rejected too.
        if vals.size and not (-1e-15 <= float(vals.min()) and float(vals.max()) <= 1.0 + 1e-15):
            raise ValueError(f"sequence {self.name!r} produced a value outside [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)
        if self.declared_monotone and vals.size:
            if start > 0:
                prev = float(self._read(np.array([start - 1], dtype=np.int64))[0])
                block = np.concatenate([[min(max(prev, 0.0), 1.0)], vals])
            else:
                block = vals
            if np.any(np.diff(block) > 1e-15):
                raise ValueError(f"sequence {self.name!r} is declared monotone but increased")
        return vals

    @classmethod
    def geometric(cls, r: float) -> "SequenceSource":
        """p_i = (1 - r) r^i with 0 < r < 1; ships closed-form tails."""
        r = float(r)
        if not 0.0 < r < 1.0:
            raise ValueError(f"geometric ratio must satisfy 0 < r < 1, got {r}")
        return cls(
            fn=lambda idx: (1.0 - r) * np.power(r, idx.astype(float)),
            declared_monotone=True,
            tail=GeometricTail(r),
            name=f"geometric:r={format_param(r)}",
            vectorized=True,
        )

    @classmethod
    def heavy_tail(cls, offset: int = 2) -> "SequenceSource":
        """p_i proportional to 1/((i+offset) ln^2(i+offset)); no tail descriptor.

        The normalized sequence sums to one but its Shannon-type entropy sums
        diverge, so truncated evaluation must end in DeclaredDivergent.
        """
        if not float(offset).is_integer() or offset < 2:
            raise ValueError(f"offset must be an integer of at least 2, got {offset}")
        offset = int(offset)
        c = _log_square_normalizer(offset)
        return cls(
            fn=lambda idx: _inverse_log_square(idx, offset, c),
            declared_monotone=True,
            tail=None,
            name=f"heavytail:offset={offset}",
            vectorized=True,
        )

    @classmethod
    def from_vector(cls, values) -> "SequenceSource":
        """Embed a finite vector as a sequence padded with zeros."""
        vec = np.asarray(values, dtype=float).ravel()
        if vec.size == 0:
            raise ValueError("finite sequence must be non-empty")
        frozen = tuple(float(v) for v in vec)
        monotone = bool(np.all(np.diff(vec) <= 1e-15))

        def fn(idx):
            out = np.zeros(idx.shape, dtype=float)
            inside = idx < vec.size
            out[inside] = vec[idx[inside]]
            return out

        return cls(
            fn=fn,
            declared_monotone=monotone,
            tail=FiniteTail(frozen),
            name="finite",
            vectorized=True,
        )


def sequence_from_spec(spec: str) -> SequenceSource:
    """Build a named sequence family from a spec string like ``geometric:r=0.5``."""
    name, params = parse_spec(spec)
    if name == "geometric":
        if set(params) != {"r"}:
            raise ValueError("geometric takes exactly the parameter r")
        return SequenceSource.geometric(params["r"])
    if name == "heavytail":
        if not set(params) <= {"offset"}:
            raise ValueError("heavytail takes at most the parameter offset")
        return SequenceSource.heavy_tail(params.get("offset", 2))
    raise ValueError(f"unknown sequence family {name!r} (known: geometric, heavytail)")


def entropy_sequence(
    src: SequenceSource,
    F: EntropicFunctional,
    max_terms: int = 10_000,
    increment_tol: float = 1e-12,
) -> EntropyResult:
    """Evaluate h(sum phi(p_i)) over a lazy sequence with explicit stopping.

    Stops when a tail descriptor certifies the remaining phi-sum below
    ``increment_tol`` (status Exact, remainder folded into the value), when
    the phi-sum increment over a trailing window of STOP_WINDOW terms falls
    below ``increment_tol`` (status TruncatedEstimate), or when ``max_terms``
    is exhausted.  At exhaustion an increasing/concave functional without a
    certified tail is reported DeclaredDivergent with value +inf; for a
    decreasing/convex functional the phi-sum is bounded, so the truncated
    estimate is returned instead.

    A vectorized source is read in blocks that double from STOP_WINDOW up to
    MAX_BLOCK terms and never reach past ``max_terms``.  The stopping checks
    run on each block's window sums as arrays, the tail descriptor asked
    window by window up to the stopping window, so the value, status and
    ``terms_used`` are those of a window-by-window read.  A read can reach
    past the stopping window, at most to the end of its block; a value there
    outside [0, 1], or breaking a declared monotonicity, raises ValueError
    although it would not have entered the sum.  A non-vectorized source
    calls its function once per index, so blocks would save it nothing; it is
    read one window at a time and never past the stopping window.
    """
    max_terms = as_count(max_terms, "max_terms")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    # Written to be false for NaN and inf: an infinite tolerance would stop
    # any stream, a divergent one too, after its first window.
    if not (0.0 < increment_tol < math.inf):
        raise ValueError(f"increment_tol must be finite and positive, got {increment_tol!r}")
    partial = 0.0
    n = 0
    last_chunk = math.inf
    block = STOP_WINDOW
    block_cap = MAX_BLOCK if src.vectorized else STOP_WINDOW
    while n < max_terms:
        stop = min(n + block, max_terms)
        phis = np.asarray(F.phi(src.values(n, stop)))
        full = phis.size // STOP_WINDOW
        # The window sums behind the running partial, the short last window
        # too: a cumsum adds them to it one by one, as a loop would.
        sums = np.empty(full + 1 + (phis.size > full * STOP_WINDOW))
        sums[0] = partial
        sums[1 : full + 1] = phis[: full * STOP_WINDOW].reshape(-1, STOP_WINDOW).sum(axis=1)
        if sums.size > full + 1:
            sums[-1] = np.sum(phis[full * STOP_WINDOW :])
        chunks = np.abs(sums[1:])
        np.cumsum(sums, out=sums)
        # Only full windows can stop the read as a truncated estimate.
        small = np.flatnonzero(chunks[:full] < increment_tol)
        last = int(small[0]) if small.size else chunks.size - 1
        if src.tail is not None:
            for k in range(last + 1):
                end = min(n + STOP_WINDOW * (k + 1), stop)
                rem = src.tail.remainder(F, end)
                if rem is not None and abs(rem) < increment_tol:
                    return EntropyResult(float(F.h(sums[k + 1] + rem)), EntropyStatus.EXACT, end, abs(rem))
        if small.size:
            end, value = n + STOP_WINDOW * (last + 1), float(F.h(sums[last + 1]))
            return EntropyResult(value, EntropyStatus.TRUNCATED_ESTIMATE, end, float(chunks[last]))
        partial, n, last_chunk = float(sums[-1]), stop, float(chunks[-1])
        block = min(2 * block, block_cap)
    if src.tail is not None:
        rem = src.tail.remainder(F, n)
        if rem is not None:
            status = EntropyStatus.EXACT if abs(rem) < increment_tol else EntropyStatus.TRUNCATED_ESTIMATE
            return EntropyResult(float(F.h(partial + rem)), status, n, abs(rem))
    if F.case is FunctionalCase.INCREASING_CONCAVE:
        return EntropyResult(math.inf, EntropyStatus.DECLARED_DIVERGENT, n, last_chunk)
    return EntropyResult(float(F.h(partial)), EntropyStatus.TRUNCATED_ESTIMATE, n, last_chunk)


def _entries(v) -> np.ndarray:
    return np.asarray(v.entries if isinstance(v, ProbVector) else v, dtype=float)


def _partial_sums(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums of each vector sorted nonincreasing, one row per vector, and the totals.

    ``blocks`` are 2-d arrays holding one vector per row; each block is
    sorted in one call, and all rows are zero-padded to a common length.
    Entries must be finite, or ValueError is raised (a domain error, not a
    negative margin).  The callers decide which totals must agree.
    """
    if not blocks or min(b.shape[1] for b in blocks) == 0:
        raise ValueError("majorization needs non-empty inputs")
    padded = np.zeros((sum(len(b) for b in blocks), max(b.shape[1] for b in blocks)))
    start = 0
    for b in blocks:
        padded[start : start + len(b), : b.shape[1]] = np.sort(b, axis=1)[:, ::-1]
        start += len(b)
    totals = padded.sum(axis=1)
    # A non-finite entry makes its total non-finite; a NaN spread passes the tests on totals.
    if not np.isfinite(totals).all():
        raise ValueError("majorization needs finite entries")
    return padded.cumsum(axis=1), totals


def majorization_margin(p, q) -> float:
    """Minimum of cumsum(sorted p) - cumsum(sorted q); q is majorized by p iff >= 0.

    p and q are vectors, compared zero-padded to a common length.  Their
    totals must agree within SUM_TOL, or ValueError is raised.
    """
    p, q = _entries(p), _entries(q)
    if p.ndim > 1 or q.ndim > 1:
        raise ValueError("majorization compares two vectors, not arrays of them")
    return float(_row_margins(p.reshape(1, -1), q.reshape(1, -1))[0])


def _row_margins(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """majorization_margin(p[t], q[t]) for (k, a) p and (k, b) q, or (p[0], q[t]) for a (1, a) p."""
    k = len(p)
    partial, totals = _partial_sums([p, q])
    low, high = np.minimum(totals[:k], totals[k:]), np.maximum(totals[:k], totals[k:])
    require_slices(
        high - low <= SUM_TOL,
        lambda t: f"totals differ beyond {SUM_TOL}: {float(low[t])!r} vs {float(high[t])!r}",
        "row",
    )
    return np.min(partial[:k] - partial[k:], axis=1)


def majorant_index(vectors) -> int | None:
    """Index of the first vector that majorizes every one in ``vectors``, or None.

    Row i is picked iff majorizes(vectors[i], v) holds for every v, decided
    from the partial-sum matrix C: row i qualifies iff
    min(C[i] - C.max(axis=0)) >= -PARTIAL_SUM_TOL, which is exact because
    rounding is monotone, so min_j fl(a - b_j) = fl(a - max_j b_j).

    All totals must agree within SUM_TOL, largest against smallest, or
    ValueError is raised.  This is stricter than a pairwise majorizes loop,
    which compares totals only pair by pair and stops at the first failing
    pair: totals 1 - 0.9e-9, 1 and 1 + 0.9e-9 raise here.
    """
    partial, totals = _partial_sums([_entries(v).reshape(1, -1) for v in vectors])
    low, high = float(totals.min()), float(totals.max())
    if high - low > SUM_TOL:
        raise ValueError(f"totals differ beyond {SUM_TOL}: {low!r} vs {high!r}")
    hits = np.flatnonzero(np.min(partial - partial.max(axis=0), axis=1) >= -PARTIAL_SUM_TOL)
    return int(hits[0]) if hits.size else None


def majorizes(p, q) -> bool:
    """True iff q is majorized by p within PARTIAL_SUM_TOL; see majorization_margin."""
    return majorization_margin(p, q) >= -PARTIAL_SUM_TOL


class BistochasticMatrix:
    """A square nonnegative matrix with unit row and column sums."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        Q = np.array(matrix, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("bistochastic matrix must be square")
        self.matrix = _bistochastic(Q[None])[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _bistochastic(Q: np.ndarray) -> np.ndarray:
    """A (k, n, n) float stack, checked as BistochasticMatrix checks and made read-only in place."""
    if Q.size == 0:
        raise ValueError("bistochastic matrix must be non-empty")
    require_finite(Q, "bistochastic matrix entries must be finite", "matrix")
    require_slices(
        Q.min(axis=(1, 2)) >= 0.0, lambda t: "bistochastic matrix entries must be nonnegative", "matrix"
    )
    rows = np.abs(Q.sum(axis=2) - 1.0).max(axis=1)
    cols = np.abs(Q.sum(axis=1) - 1.0).max(axis=1)
    require_slices(
        (rows <= ROW_SUM_TOL) & (cols <= ROW_SUM_TOL),
        lambda t: f"row/column sums deviate from 1 beyond {ROW_SUM_TOL}",
        "matrix",
    )
    Q.setflags(write=False)
    return Q


def bistochastic_from_unitary(U) -> BistochasticMatrix:
    """|U_ij|^2 for a unitary U; rejects matrices with ||U*U - I||_max > UNITARY_TOL."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("unitary must be square")
    return BistochasticMatrix(_unitary_squares(U[None])[0])


def _unitary_squares(U: np.ndarray) -> np.ndarray:
    """|U[t]_ij|^2 for a (k, n, n) stack of unitaries, not yet checked as bistochastic."""
    require_finite(U, "unitary entries must be finite", "matrix")
    dev = np.abs(U.conj().swapaxes(1, 2) @ U - np.eye(U.shape[-1])).max(axis=(1, 2))
    require_slices(
        dev <= UNITARY_TOL,
        lambda t: f"matrix is not unitary within {UNITARY_TOL} (deviation {dev[t]:.3e})",
        "matrix",
    )
    return np.abs(U) ** 2


def apply_bistochastic(Q: BistochasticMatrix, p) -> ProbVector:
    """Return Q p as a probability vector; the result is majorized by p."""
    if not isinstance(Q, BistochasticMatrix):
        Q = BistochasticMatrix(Q)
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    if Q.n != len(p):
        raise ValueError(f"dimension mismatch: matrix is {Q.n}, vector is {len(p)}")
    return ProbVector(_mix_rows(Q.matrix[None], p.entries[None])[0])


def _mix_rows(Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Q[t] p[t] for (k, n, n) bistochastic Q and (k, n) probability rows, as computed_rows."""
    # A stacked matrix-vector product repeats Q[t] @ p[t] bit for bit; einsum does not.
    return computed_rows((Q @ p[:, :, None])[:, :, 0])


def jensen_step_oracle(q_rows, p, F: EntropicFunctional):
    """Integrate the step function behind rows of a bistochastic mix.

    The row lengths Q_ik partition [0, 1]; the step function takes value p_k
    on the k-th segment.  Returns (integral_f, integral_phi_f, discrete_q_i,
    discrete_sum) where the integrals are computed from partition boundaries
    and the discrete values from dot products; the pairs agree within 1e-12
    and Jensen's inequality relates phi(q_i) to the discrete phi-sum in the
    direction fixed by F.case.

    Any 2-d ``q_rows`` is a batch with one row per line and gives four arrays
    of shape (rows,), whose entry i equals, bit for bit, the four floats that
    row i alone gives.  So a (1, n) slice gives four arrays of shape (1,), and
    an (n, 1) column is n rows of width 1, not one row.

    A 3-d ``q_rows`` of shape (k, r, n) is k such batches, one for each row
    of a (k, n) array ``p``; it gives four arrays of shape (k, r), whose
    entry [t] equals, bit for bit, the 2-d call on (q_rows[t], p[t]).  The
    rows of ``p`` are validated as entropy_rows validates rows.  This
    stacked form stays public until the benchmark stops tracing this name
    (ROADMAP item 1).

    Any other shape is flattened to one row and gives four floats.
    """
    rows = np.asarray(q_rows, dtype=float)
    ndim = rows.ndim
    if ndim == 3:
        vals = probability_rows(p)
        if vals.shape != (rows.shape[0], rows.shape[2]):
            raise ValueError(f"p must be {rows.shape[0]} x {rows.shape[2]}, one row per batch")
    else:
        if not isinstance(p, ProbVector):
            p = ProbVector(p)
        vals = p.entries[None]
        rows = rows[None] if ndim == 2 else rows.reshape(1, 1, -1)
    if rows.size == 0:
        raise ValueError("row must be non-empty")
    # Both tests are written to be false for NaN, so NaN rows are rejected.
    if not (float(rows.min()) >= 0.0):
        raise ValueError("row entries must be finite and nonnegative")
    if not (float(np.max(np.abs(rows.sum(axis=-1) - 1.0))) <= ROW_SUM_TOL):
        raise ValueError(f"row must sum to 1 within {ROW_SUM_TOL}")
    if rows.shape[2] != vals.shape[1]:
        raise ValueError("row and vector dimensions differ")
    phis = np.asarray(F.phi(vals))
    lengths = np.diff(np.cumsum(rows, axis=-1), axis=-1, prepend=0.0)
    integral_f = np.sum(lengths * vals[:, None, :], axis=-1)
    integral_phi_f = np.sum(lengths * phis[:, None, :], axis=-1)
    # A stacked matmul repeats np.dot row by row, bit for bit; rows @ vals does not.
    discrete_q = (rows[:, :, None, :] @ vals[:, None, :, None])[:, :, 0, 0]
    discrete_sum = (rows[:, :, None, :] @ phis[:, None, :, None])[:, :, 0, 0]
    out = (integral_f, integral_phi_f, discrete_q, discrete_sum)
    if ndim == 3:
        return out
    if ndim == 2:
        return tuple(a[0] for a in out)
    return tuple(float(a[0, 0]) for a in out)
