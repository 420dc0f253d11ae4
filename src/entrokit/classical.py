"""Classical distributions: finite vectors, lazy sequences, majorization, mixing.

Entropies are computed as h(sum phi(p_i)) for a functional pair from
entrokit.functionals.  Finite sums are evaluated in sorted order so results
are invariant under permutation of the input, bit for bit.

Public functions take and return one object, each by running a private
kernel with a leading stack axis on a stack of one; the audit calls the
kernels on whole stacks.  One kernel, _probability_rows, decides what a
probability vector is, under the rule its caller names; require_orthonormal
and require_stochastic_rows are the one check of orthonormal columns and of
stochastic rows.  The tolerances quantum and gpt share live here (README,
"Tolerances"); jensen_step_oracle alone still takes a stack (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .functionals import EntropicFunctional, FunctionalCase, as_count, format_param, parse_spec

ZERO_TOL = 1e-12  # at most this is zero: a negative input entry, a drift, an eigenvalue, a weight
SUM_TOL = 1e-9  # a total, a vector's sum or a trace, is one
COMPUTED_FLOOR = 1e-9  # negativity a computed vector or a spectrum may carry
STRUCTURE_TOL = 1e-10  # Hermitian input, stochastic rows, unit state vectors
PRODUCT_TOL = 1e-8  # a product meets its target: A*A = I, an ensemble's mixture = rho
SEQUENCE_TOL = 1e-15  # a sequence value this far outside [0, 1], or a rise this small, is rounding
# (floor, drift) of each rule of _probability_rows
_RULES = {"input": (ZERO_TOL, math.inf), "renormalize": (ZERO_TOL, -math.inf), "computed": (COMPUTED_FLOOR, ZERO_TOL)}
STOP_WINDOW = 64  # trailing-window length for sequence truncation
# Largest sequence read; reads double from STOP_WINDOW up to it.  Its float64
# arrays (128,000 bytes) stay under glibc's 128 KiB mmap threshold, so a block
# reuses heap memory rather than page-faulting fresh mappings; 10^6 terms take 70 reads.
MAX_BLOCK = 16_000


class ProbVector:
    """A validated finite probability vector.

    Entries in [-ZERO_TOL, 0) are clipped to zero; anything more negative is
    rejected.  The total must be within SUM_TOL of one.  Renormalization is
    off by default because silently rescaling masks data errors; pass
    renormalize=True to opt in.  Input with two or more axes is rejected.
    Entries are stored read-only.
    """

    __slots__ = ("entries",)

    def __init__(self, values, renormalize: bool = False):
        arr = _vector(values)
        if arr.size == 0:
            raise ValueError("probability vector must be non-empty")
        self.entries = _probability_rows(arr[None], "renormalize" if renormalize else "input")[0]

    @classmethod
    def from_computation(cls, values) -> "ProbVector":
        """Wrap an internally computed vector, absorbing bounded roundoff.

        Negative entries down to -COMPUTED_FLOOR are clipped to zero, and the
        vector is renormalized only when the drift |sum - 1| exceeds
        ZERO_TOL.  Intended for spectra, pinched diagonals, and other
        arithmetic products, not for user data.
        """
        vec = cls.__new__(cls)  # validated once, under this rule alone
        vec.entries = _probability_rows(_vector(values)[None], "computed")[0]
        return vec

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


class EntropyStatus(Enum):
    """What an entropy value means; the CLI prints ``.value`` as ``status``.

    EXACT: the value is the entropy (finite input, gpt minimum, or a sequence
        whose certified tail remainder is folded in, also when max_terms ran out).
    TRUNCATED_ESTIMATE: the value is a truncated sum of a sequence without a certified tail (entropy_sequence;
        tsallis q > 1 adds the unread mass, summed in the phi-sum's windows, over q - 1).
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


def require_slices(ok, message, item) -> None:
    """ValueError(message(t)) for the first slice t where ``ok`` is false.

    ``ok`` holds one flag per slice of a stack (a matrix, a state, a mixing,
    an ensemble or a row), or a 0-d flag for a single object, which
    ``message`` then gets as the index ().  The error names the slice as
    "<item> t" only when the stack holds more than one.  ``item`` may
    instead be a function of t, and the error then names slice t as
    item(t), in a stack of one too; it is called only on a failure.
    """
    if not ok.all():
        t = int(np.argmin(ok)) if ok.ndim else ()
        name = item(t) if callable(item) else f"{item} {t}" if ok.size > 1 else None
        raise ValueError(f"{name}: {message(t)}" if name else message(t))


def require_finite(stack: np.ndarray, message: str, item: str) -> None:
    """require_slices for matrices free of NaN and inf, taken before any arithmetic warns on them."""
    require_slices(np.isfinite(stack).all(axis=(-2, -1)), lambda t: message, item)


def require_orthonormal(A: np.ndarray, what: str, item: str) -> None:
    """require_slices for a matrix, or a stack, with finite entries and |A*A - I|_max <= PRODUCT_TOL.

    A passing stack costs one pass; a failing one (a NaN or inf fails) is diagnosed per slice as before.
    """
    with np.errstate(all="ignore"):
        dev = np.abs(A.conj().swapaxes(-1, -2) @ A - np.eye(A.shape[-1])).max(axis=(-2, -1))
    if not dev.max(initial=0.0) <= PRODUCT_TOL:
        require_finite(A, f"{what} entries must be finite", item)
        message = f"{what} is not orthonormal within {PRODUCT_TOL} (deviation {{:.3e}})"
        require_slices(dev <= PRODUCT_TOL, lambda t: message.format(dev[t]), item)


def require_stochastic_rows(Q: np.ndarray, what: str, item: str) -> None:
    """require_slices for a (k, r, n) stack of finite, nonnegative rows summing to 1 within STRUCTURE_TOL.

    A passing stack costs one pass; a failing one (a NaN or inf fails) is diagnosed per slice as before.
    """
    if Q.size == 0:
        raise ValueError(f"{what} must be non-empty")
    with np.errstate(all="ignore"):
        dev = np.abs(Q.sum(axis=2) - 1.0).max(axis=1)
    if not (Q.min() >= 0.0 and dev.max() <= STRUCTURE_TOL):
        require_finite(Q, f"{what} entries must be finite", item)
        require_slices(Q.min(axis=(1, 2)) >= 0.0, lambda t: f"{what} entries must be nonnegative", item)
        message = f"{what} sums deviate from 1 by {{:.3e}} (> {STRUCTURE_TOL})"
        require_slices(dev <= STRUCTURE_TOL, lambda t: message.format(dev[t]), item)


def _vector(values, what="probability vector", dtype=float) -> np.ndarray:
    """``values``, or a ProbVector's entries, as a 1-d array: a scalar is one entry, 2+ axes raise as ``what``."""
    arr = np.asarray(values.entries if isinstance(values, ProbVector) else values, dtype=dtype)
    if arr.ndim > 1:
        raise ValueError(f"{what} must be 1-d, got shape {arr.shape}")
    return arr.reshape(-1)


def _probability_rows(rows: np.ndarray, rule: str, item="row") -> np.ndarray:
    """Each row of a (k, n) float array as a probability vector, in one read-only array.

    The one rule for probability vectors, under ``rule``: "input"
    (ProbVector), "renormalize" or "computed" (ProbVector.from_computation),
    whose (floor, drift) _RULES holds.  Entries must be finite and at least
    -floor; negative ones are set to zero.  A row whose total drifts from
    one by more than ``drift`` is divided by it (the total must be positive
    and finite), and every other row must sum to one within SUM_TOL.
    Errors name row t as require_slices names it after ``item``.
    """
    floor, drift = _RULES[rule]
    clipped = np.where(rows < 0.0, 0.0, rows)
    # A total that overflows is rejected below by a ValueError, not warned about here.
    with np.errstate(over="ignore"):
        totals = clipped.sum(axis=1)
    drifts = np.abs(totals - 1.0)
    # Two reductions pass the usual case; a NaN or an infinite entry fails them.
    if not (float(rows.min(initial=0.0)) >= -floor and float(drifts.max(initial=0.0)) <= min(drift, SUM_TOL)):
        require_slices(np.isfinite(rows).all(axis=1), lambda t: "probability vector entries must be finite", item)
        low = rows.min(axis=1, initial=0.0)
        below = "computed entry {} below floor" if rule == "computed" else "entry {} is below the negativity tolerance"
        require_slices(low >= -floor, lambda t: f"{below.format(float(low[t]))} -{floor}", item)
        off = drifts > drift
        nothing = "computed vector has" if rule == "computed" else "cannot renormalize a vector with"
        require_slices(~off | (totals > 0.0), lambda t: f"{nothing} non-positive total", item)
        require_slices(~off | (totals < math.inf), lambda t: f"{nothing} total above the float range", item)
        require_slices(
            off | (drifts <= SUM_TOL),
            lambda t: f"entries sum to {float(totals[t])!r}, outside 1 +/- {SUM_TOL}",
            item,
        )
        if off.any():
            clipped = np.where(off[:, None], clipped / totals[:, None], clipped)
    clipped.setflags(write=False)
    return clipped


def _entropy_kernel(entries: np.ndarray, F: EntropicFunctional):
    """h(sum phi) along the last axis, each sum taken in sorted order."""
    return F.h(np.sum(np.sort(np.asarray(F.phi(entries)), axis=-1), axis=-1))


def entropy_finite(p, F: EntropicFunctional) -> EntropyResult:
    """h(sum phi(p_i)) for a finite vector; always status Exact."""
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    value = float(_entropy_kernel(p.entries, F))
    return EntropyResult(value, EntropyStatus.EXACT, terms_used=len(p), increment_at_stop=0.0)


def positions_by_key(keys) -> list[list[int]]:
    """The positions of each distinct key in ``keys``, keys in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _entropy_columns(rows: np.ndarray, functionals, computed: bool = False, item="row") -> np.ndarray:
    """entropy_table of the rows of one (k, n) stack: a (k, functionals) array.

    The rows are validated once, under the rule ``computed`` picks, and
    scored with one _entropy_kernel call per functional.
    """
    rows = _probability_rows(rows, "computed" if computed else "input", item)
    table = np.empty((len(rows), len(functionals)))
    for j, F in enumerate(functionals):
        table[:, j] = _entropy_kernel(rows, F)
    return table


def entropy_table(vectors, functionals, computed: bool = False) -> np.ndarray:
    """h(sum phi(p_i)) of every vector under every functional, as a (vectors, functionals) array.

    Entry [i, j] is, bit for bit, entropy_finite(vectors[i], functionals[j]).value,
    or with ``computed=True`` that of ProbVector.from_computation(vectors[i]).
    ``vectors`` holds ProbVectors or 1-d arrays.  Each length, in first-seen
    order, is stacked (never zero-padded, which would change the last bits
    of numpy's pairwise sums) and scored by one _entropy_columns call.  An
    error names a bad vector as "vector i", i its position in ``vectors``,
    when ``vectors`` holds more than one.
    """
    arrays = [_vector(v) for v in vectors]
    table = np.empty((len(arrays), len(functionals)))
    for idx in positions_by_key(len(a) for a in arrays):
        item = (lambda t, idx=idx: f"vector {idx[t]}") if len(arrays) > 1 else "row"
        table[idx] = _entropy_columns(np.array([arrays[i] for i in idx]), functionals, computed, item)
    return table


@dataclass(frozen=True)
class GeometricTail:
    """Closed-form tail sums for the geometric family p_i = (1-r) r^i.

    remainder(F, n) returns sum_{i >= n} phi(p_i) exactly for Shannon and
    for every pair that declares ``powers`` (a, b, d): with the power-sum
    tail S(beta) = sum_{i >= n} p_i**beta, that is (S(a) - S(b)) / d, or
    S(a) / d when b is None.  Other functionals get None.  S's denominator
    1 - r**beta is taken as -expm1(beta ln r), which does not cancel as
    r -> 1: against a 50-digit closed form the five default functionals and
    tsallis:q=0.5 are within 1e-15 relative (at most 3.7e-16) for r from 0.05
    to 0.999999, where 1 - r**beta is up to 9e-11 off at r = 0.999999.
    """

    r: float

    def remainder(self, F: EntropicFunctional, n: int) -> float | None:
        r = self.r
        if F.family == "shannon":
            # sum_{i>=n} p_i ln p_i in closed form, negated.
            return -(r**n * math.log(1.0 - r) + math.log(r) * r**n * (n + r / (1.0 - r)))
        if F.powers is None:
            return None

        def S(beta):
            return (1.0 - r) ** beta * r ** (beta * n) / -math.expm1(beta * math.log(r))

        a, b, d = F.powers
        return S(a) / d if b is None else (S(a) - S(b)) / d


@dataclass(frozen=True, eq=False)
class FiniteTail:
    """Exact tail for a sequence with known finite support: ``values``, a ProbVector's read-only entries.

    The first remainder asked of a functional evaluates phi once on ``values``
    and keeps its suffix sums, each summed from the last entry; later ones of
    that functional read them, so a stream's remainders cost one pass.
    """

    values: np.ndarray
    _suffix: list = field(default_factory=lambda: [None, None], init=False, repr=False)  # [F, phi's suffix sums]

    def remainder(self, F: EntropicFunctional, n: int) -> float:
        if self._suffix[0] is not F:
            self._suffix[:] = F, np.append(np.cumsum(np.asarray(F.phi(self.values), dtype=float)[::-1])[::-1], 0.0)
        return float(self._suffix[1][min(n, len(self.values))])


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
    # evaluation at each of twelve offsets tried from 2 to 10^6, in well under
    # a millisecond; building the source and streaming 10^6 terms each allocate under 1 MB.
    n = 1 << 13
    total = float(np.sum(_inverse_log_square(np.arange(n), offset, 1.0)))
    x = float(n + offset)
    L = math.log(x)
    return total + 1.0 / L + 1.0 / (2.0 * x * L**2) + (L + 2.0) / (12.0 * x**2 * L**3)


class SequenceSource:
    """A lazily indexed probability sequence p_0, p_1, ...

    ``fn`` maps an int64 index array to an array of one value per index;
    entropy_sequence reads the source in blocks.  ``declared_monotone``
    promises nonincreasing values and is probed on every block actually read.
    ``tail`` optionally supplies certified remainders of sum phi(p_i).
    """

    def __init__(self, fn: Callable, declared_monotone: bool = False, tail=None, name: str = "custom"):
        self._read = fn
        self.declared_monotone = bool(declared_monotone)
        self.tail = tail
        self.name = name
        self._last = (-1, 0.0)  # index and value of the last term a monotone read checked

    def values(self, start: int, stop: int) -> np.ndarray:
        if start < 0 or stop < start:
            raise ValueError("invalid index range")
        vals = np.asarray(self._read(np.arange(start, stop, dtype=np.int64)), dtype=float)
        if vals.shape != (stop - start,):
            raise ValueError(f"sequence {self.name!r} must return one value per index, got shape {vals.shape}")
        # Written to be false for NaN, so a NaN value is rejected too.
        if vals.size and not (-SEQUENCE_TOL <= float(vals.min()) and float(vals.max()) <= 1.0 + SEQUENCE_TOL):
            raise ValueError(f"sequence {self.name!r} produced a value outside [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)
        if self.declared_monotone and vals.size:
            # The step from the clipped value before the block, then the steps within it.
            # That value is kept from the read that ended there, so no index is read twice.
            index, prev = self._last
            if start > 0 and index != start - 1:
                prev = float(self._read(np.array([start - 1], dtype=np.int64))[0])
            step = float(vals[0]) - min(max(prev, 0.0), 1.0) if start > 0 else 0.0
            if step > SEQUENCE_TOL or np.any(np.diff(vals) > SEQUENCE_TOL):
                raise ValueError(f"sequence {self.name!r} is declared monotone but increased")
            self._last = (stop - 1, float(vals[-1]))
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
        )

    @classmethod
    def heavy_tail(cls, offset: int = 2) -> "SequenceSource":
        """p_i proportional to 1/((i+offset) ln^2(i+offset)); no tail descriptor.

        The normalized sequence sums to one but its Shannon-type entropy sums
        diverge, so truncated evaluation must end in DeclaredDivergent (but
        for tsallis with q > 1, whose sums stay below 1/(q - 1)).  ``offset`` is read by as_count.
        """
        offset = as_count(offset, "offset")
        if offset < 2:
            raise ValueError(f"offset must be an integer of at least 2, got {offset}")
        c = _log_square_normalizer(offset)
        return cls(
            fn=lambda idx: _inverse_log_square(idx, offset, c),
            declared_monotone=True,
            tail=None,
            name=f"heavytail:offset={offset}",
        )

    @classmethod
    def from_vector(cls, values) -> "SequenceSource":
        """Embed a finite probability vector, validated as ProbVector validates it, padded with zeros."""
        vec = ProbVector(values).entries
        monotone = bool(np.all(np.diff(vec) <= SEQUENCE_TOL))

        def fn(idx):
            out = np.zeros(idx.shape, dtype=float)
            inside = idx < vec.size
            out[inside] = vec[idx[inside]]
            return out

        return cls(fn=fn, declared_monotone=monotone, tail=FiniteTail(vec), name="finite")


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

    A source whose tail descriptor gives F a certified remainder (a number,
    not None) is read until that remainder falls below ``increment_tol`` or
    ``max_terms`` runs out; either way the remainder is folded into the value
    and the status is Exact.  Any other source stops when the phi-sum
    increment over a trailing window of STOP_WINDOW terms falls below
    ``increment_tol`` (status TruncatedEstimate), or when ``max_terms`` is
    exhausted.  At exhaustion an increasing/concave functional without a
    certified tail is reported DeclaredDivergent with value +inf, unless
    its phi has a finite slope c at 0+: then phi(x) <= c x bounds the
    phi-sum by c, as it is bounded for a decreasing/convex functional, and
    the truncated estimate is returned instead.  The slope is finite when
    the pair declares ``powers`` and its smallest exponent is at least 1;
    among the built-ins that is tsallis with q > 1, of slope 1/(q - 1).
    Shannon and custom pairs are taken to have an infinite one.  If such a
    pair's a is 1 (tsallis), the x terms left unread sum to the unread mass
    m = max(0, 1 - sum_{i < end} p_i), and a truncated estimate folds m / d
    in.  The mass is summed in the phi-sum's windows and cumsum, so it is
    off by at most (STOP_WINDOW + end / STOP_WINDOW) eps, as that sum is.

    The source is read in blocks that double from STOP_WINDOW up to
    MAX_BLOCK terms and never reach past ``max_terms``.  The window rule
    runs on each block's window sums as an array, and the tail descriptor is
    asked window by window, so the value, status and ``terms_used`` are
    those of a window-by-window read.  A read can reach past the stopping
    window, at most to the end of its block; a value there outside [0, 1],
    or breaking a declared monotonicity, raises ValueError although it
    would not have entered the sum.
    """
    max_terms = as_count(max_terms, "max_terms")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    # Written to be false for NaN and inf: an infinite tolerance would stop
    # any stream, a divergent one too, after its first window.
    if not (0.0 < increment_tol < math.inf):
        raise ValueError(f"increment_tol must be finite and positive, got {increment_tol!r}")
    certified = src.tail is not None and src.tail.remainder(F, 0) is not None
    finite_slope = F.powers is not None and min(e for e in F.powers[:2] if e is not None) >= 1.0
    mass_term = finite_slope and F.powers[0] == 1.0 and not certified
    partial, n, last_chunk, block = np.zeros(1 + mass_term), 0, math.inf, STOP_WINDOW  # phi-sum[, mass]

    def truncated(run, end, chunk) -> EntropyResult:
        phi_sum = run[0] + max(0.0, 1.0 - run[1]) / F.powers[2] if mass_term else run[0]
        return EntropyResult(float(F.h(phi_sum)), EntropyStatus.TRUNCATED_ESTIMATE, end, chunk)

    while n < max_terms:
        stop = min(n + block, max_terms)
        values = src.values(n, stop)
        rows = np.stack([F.phi(values), values]) if mass_term else np.asarray(F.phi(values))[None]
        r, full = rows.shape[0], rows.shape[1] // STOP_WINDOW
        # Each row's window sums, the short last window too, behind its running
        # partial: a cumsum adds them one by one, as a loop would.
        sums = np.empty((r, full + 1 + (rows.shape[1] > full * STOP_WINDOW)))
        sums[:, 0] = partial
        sums[:, 1 : full + 1] = rows[:, : full * STOP_WINDOW].reshape(r, -1, STOP_WINDOW).sum(axis=2)
        if sums.shape[1] > full + 1:
            sums[:, -1] = np.sum(rows[:, full * STOP_WINDOW :], axis=1)
        chunks = np.abs(sums[0, 1:])
        np.cumsum(sums, axis=1, out=sums)
        if certified:
            for k in range(chunks.size):
                end = min(n + STOP_WINDOW * (k + 1), stop)
                rem = src.tail.remainder(F, end)
                if abs(rem) < increment_tol or end == max_terms:
                    return EntropyResult(float(F.h(sums[0, k + 1] + rem)), EntropyStatus.EXACT, end, abs(rem))
        else:
            # Only full windows can stop the read as a truncated estimate.
            small = np.flatnonzero(chunks[:full] < increment_tol)
            if small.size:
                k = int(small[0])
                return truncated(sums[:, k + 1], n + STOP_WINDOW * (k + 1), float(chunks[k]))
        partial, n, last_chunk = sums[:, -1], stop, float(chunks[-1])
        block = min(2 * block, MAX_BLOCK)
    if F.case is FunctionalCase.INCREASING_CONCAVE and not finite_slope:
        return EntropyResult(math.inf, EntropyStatus.DECLARED_DIVERGENT, n, last_chunk)
    return truncated(partial, n, last_chunk)


def _partial_sums(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums of each vector sorted nonincreasing, one row per vector, and the totals.

    ``blocks`` are 2-d arrays holding one vector per row; each block is
    sorted in one call, and all rows are zero-padded to a common length.
    Entries must be finite, or ValueError is raised (a domain error, not a
    negative margin).  The callers decide what the totals must satisfy.
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


def _join(vectors) -> np.ndarray:
    """The least upper bound of ``vectors`` under majorization, sorted nonincreasing: _joins on a stack of one."""
    rows = [_vector(v, "majorization input")[None] for v in vectors]
    return _joins(rows, [[0]] * len(rows), 1)[0]


def _joins(blocks, owners, count: int) -> list:
    """Each owner's join, read-only: entry k joins the rows owner k < count owns, or is None if it owns none.

    Each vector is scaled to total one; totals must be positive.  The join's
    partial sums are the least concave majorant of the largest scaled partial
    sum at each length (Cicalese & Vaccaro, IEEE Trans. Inf. Theory 48, 933,
    2002): the least vector majorizing them all.  ``owners`` names each row's
    owner, one array per block.  One _partial_sums call and one per-owner
    max serve all rows; padding reads 1.0 past a row's end and max is exact,
    so each join, cut to its longest row, is bit for bit its rows' alone.
    """
    partial, _ = _partial_sums(blocks)
    if not (partial[:, -1] > 0.0).all():
        raise ValueError("the majorization join needs positive totals")
    owner, width, top = np.concatenate(owners), np.zeros(count, dtype=np.intp), np.zeros((count, partial.shape[1] + 1))
    np.maximum.at(top[:, 1:], owner, partial / partial[:, -1:])  # scaled partial sums are positive: zeros never win
    np.maximum.at(width, owner, np.repeat([b.shape[1] for b in blocks], [len(b) for b in blocks]))
    for y, length, curve in zip(top.tolist(), width.tolist(), top):
        hull = [0]
        for k in range(1, length + 1):
            # The upper hull drops its last point j while j is on or below the chord from the point before it to k.
            while len(hull) > 1 and (
                (y[hull[-1]] - y[hull[-2]]) * (k - hull[-1]) <= (y[k] - y[hull[-1]]) * (hull[-1] - hull[-2])
            ):
                hull.pop()
            hull.append(k)
        curve[: length + 1] = np.interp(np.arange(length + 1), hull, [y[j] for j in hull])
    steps = np.diff(top, axis=1)
    steps.setflags(write=False)
    return [row[:length] if length else None for row, length in zip(steps, width.tolist())]


def majorization_margin(p, q) -> float:
    """Minimum of cumsum(sorted p) - cumsum(sorted q); q is majorized by p iff >= 0.

    p and q are vectors (or ProbVectors), compared zero-padded to a common
    length.  Their totals must agree within SUM_TOL, or ValueError is raised,
    as it is for input with two or more axes.
    """
    p, q = _vector(p, "majorization input"), _vector(q, "majorization input")
    return float(_row_margins(p[None], q[None])[0])


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


def majorizes(p, q) -> bool:
    """True iff q is majorized by p within ZERO_TOL plus |sum p - sum q|; see majorization_margin.

    Totals may differ by up to SUM_TOL, and so may the last partial sums: a
    pair equal up to that drift majorizes both ways.
    """
    p, q = _vector(p, "majorization input"), _vector(q, "majorization input")
    return majorization_margin(p, q) >= -(ZERO_TOL + abs(float(np.sum(p)) - float(np.sum(q))))


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
    require_stochastic_rows(Q, "bistochastic matrix row", "matrix")
    require_stochastic_rows(Q.swapaxes(1, 2), "bistochastic matrix column", "matrix")
    Q.setflags(write=False)
    return Q


def bistochastic_from_unitary(U) -> BistochasticMatrix:
    """|U_ij|^2 for a unitary U; rejects matrices with ||U*U - I||_max > PRODUCT_TOL."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("unitary must be square")
    return BistochasticMatrix(_unitary_squares(U[None])[0])


def _unitary_squares(U: np.ndarray) -> np.ndarray:
    """|U[t]_ij|^2 for a (k, n, n) stack of unitaries, not yet checked as bistochastic."""
    require_orthonormal(U, "unitary", "matrix")
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
    """Q[t] p[t] for (k, n, n) bistochastic Q and (k, n) probability rows, as computed rows."""
    # A stacked matrix-vector product repeats Q[t] @ p[t] bit for bit; einsum does not.
    return _probability_rows((Q @ p[:, :, None])[:, :, 0], "computed")


def jensen_step_oracle(q_rows, p, F: EntropicFunctional):
    """Integrate the step function behind rows of a bistochastic mix.

    The row lengths Q_ik partition [0, 1]; the step function takes value p_k
    on the k-th segment.  Returns (integral_f, integral_phi_f, discrete_q_i,
    discrete_sum) where the integrals are computed from partition boundaries
    and the discrete values from dot products; the pairs agree within 1e-12
    and Jensen's inequality relates phi(q_i) to the discrete phi-sum in the
    direction fixed by F.case.

    A 1-d ``q_rows`` is one row and gives four floats.  A 3-d ``q_rows`` of
    shape (k, r, n) is k sets of r rows, one set for each row of a (k, n)
    array ``p``; it gives four arrays of shape (k, r), whose entry [t, i]
    equals, bit for bit, the one-row call on (q_rows[t, i], p[t]).  The rows
    of ``p`` are validated as ProbVector validates a vector.  This stacked
    form stays public until the benchmark stops tracing this name (ROADMAP
    item 1).  Any other shape raises ValueError.  A passing stack is
    checked in one pass, and a failing one raises as before.
    """
    rows = np.asarray(q_rows, dtype=float)
    one = rows.ndim == 1
    if one:
        vals = (p if isinstance(p, ProbVector) else ProbVector(p)).entries[None]
        rows = rows[None, None]
    elif rows.ndim == 3:
        vals = np.asarray(p, dtype=float)
        if vals.shape != (rows.shape[0], rows.shape[2]):
            raise ValueError(f"p must be {rows.shape[0]} x {rows.shape[2]}, one row per batch")
        vals = _probability_rows(vals, "input")
    else:
        raise ValueError(f"q_rows must be one row or a (k, r, n) stack, got shape {rows.shape}")
    require_stochastic_rows(rows, "row", "batch")
    if rows.shape[2] != vals.shape[1]:
        raise ValueError("row and vector dimensions differ")
    phis = np.asarray(F.phi(vals))
    lengths = np.cumsum(rows, axis=-1)  # then the differences np.diff(..., prepend=0.0) takes, in place
    lengths[..., 1:] = np.diff(lengths, axis=-1)
    integral_f = np.sum(lengths * vals[:, None, :], axis=-1)
    integral_phi_f = np.sum(lengths * phis[:, None, :], axis=-1)
    # A stacked matmul repeats np.dot row by row, bit for bit; rows @ vals does not.
    discrete_q = (rows[:, :, None, :] @ vals[:, None, :, None])[:, :, 0, 0]
    discrete_sum = (rows[:, :, None, :] @ phis[:, None, :, None])[:, :, 0, 0]
    out = (integral_f, integral_phi_f, discrete_q, discrete_sum)
    return tuple(float(a[0, 0]) for a in out) if one else out
