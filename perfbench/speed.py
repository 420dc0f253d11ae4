"""Machine-speed reference for timings taken on a shared host.

On a host whose cores are shared with other tenants, the same code runs up to
twice as slowly for seconds to minutes at a time, and the process's CPU time
stretches with its wall time, so no choice of clock removes it.  Every timed
sample is therefore bracketed by a fixed reference task, timed
``LOOPS_EACH_SIDE`` times just before and just after it (and, for the ops,
every ``OP_SAMPLE_EVERY_S`` while it runs), and scaled to the speed at which
that task takes its ``reference_s``:

    scaled = raw * reference_s / median(reference times around the sample)

Two reference tasks, neither of which calls entrokit, match the two kinds of
sample.  ``NUMPY_TASK`` is shaped like the benchmark's ops (small Hermitian
eigensolves, sorts and logs on short vectors, with Python in between); a slow
spell of the host slows it about as much as the ops, where a counting loop
tracked their drift half as well.  ``COUNT_TASK``, a pure-Python counting
loop, is shaped like starting an interpreter and importing modules, and
tracks the set-up and cold-start samples better than ``NUMPY_TASK`` does.  A
change to entrokit moves the raw time and leaves the reference alone, so the
scaled time moves with the program and not with the host.  The raw times are
kept beside the scaled ones in the run metadata.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOOPS_EACH_SIDE = 2
OP_SAMPLE_EVERY_S = 0.25


def _numpy_inputs(seed: int = 1802):
    rng = np.random.default_rng(seed)
    matrices = []
    for d in range(2, 9):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        matrices.append(g @ g.conj().T)
    vectors = [rng.dirichlet(np.ones(n)) for n in range(2, 12)]
    return matrices, vectors


_MATRICES, _VECTORS = _numpy_inputs()


def _numpy_task() -> None:
    total = 0.0
    for _ in range(30):
        for m in _MATRICES:
            w = np.linalg.eigvalsh(m)
            w = w[w > 1e-12]
            total -= float((w * np.log(w)).sum())
        for p in _VECTORS:
            q = np.sort(p)[::-1]
            total += float(np.cumsum(q)[-1]) + float(np.sum(p * p))


def _count_task() -> None:
    total = 0
    for i in range(250_000):
        total += i


@dataclass(frozen=True)
class Reference:
    task: Callable[[], None]
    reference_s: float

    def seconds(self) -> float:
        """Seconds for one run of the task."""
        t0 = time.perf_counter()
        self.task()
        return time.perf_counter() - t0


NUMPY_TASK = Reference(_numpy_task, 0.006)
COUNT_TASK = Reference(_count_task, 0.010)


def timed(fn, reference: Reference = NUMPY_TASK, every_s: float | None = None):
    """Run ``fn()`` between runs of ``reference``; returns (result, raw s, scaled s).

    With ``every_s`` the reference also runs every ``every_s`` seconds of wall
    time while ``fn`` runs, from a SIGALRM handler in this thread, so a slow
    spell in the middle of a long sample is seen too; the time those runs take
    is taken out of the sample's raw time.
    """
    loops = [reference.seconds() for _ in range(LOOPS_EACH_SIDE)]
    inside = []
    if every_s:
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(reference.seconds()))
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        elapsed = time.perf_counter() - t0
        if every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    elapsed -= sum(inside)
    loops += inside + [reference.seconds() for _ in range(LOOPS_EACH_SIDE)]
    return out, elapsed, elapsed * reference.reference_s / statistics.median(loops)
