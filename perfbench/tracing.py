"""Spans and counters recorded around entrokit's public callables.

Tracing never edits the library.  It rebinds each public function under
every name an entrokit module looks it up by, patches the constructors of
the validated types in place, and wraps the ``phi`` of the functionals it
is handed.  ``Tracer.restore`` puts every original object back.

A span is (name, start, end, parent, op).  Spans live in flat arrays in
memory and are written out once, at the end of the traced run.  The self
time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

WRAPPED_MARK = "_perfbench_wrapped"

ENTROKIT_MODULES = (
    "entrokit",
    "entrokit.functionals",
    "entrokit.classical",
    "entrokit.quantum",
    "entrokit.gpt",
    "entrokit.rand",
    "entrokit.reporting",
    "entrokit.audit",
    "entrokit.fileio",
    "entrokit.cli",
)

# Public functions, by defining module, and the span name each is traced as.
FUNCTION_SPANS = {
    "entrokit.classical": {
        "entropy_finite": "classical.entropy_finite",
        "entropy_sequence": "classical.entropy_sequence",
        "jensen_step_oracle": "classical.jensen_step_oracle",
        "apply_bistochastic": "classical.apply_bistochastic",
        "bistochastic_from_unitary": "classical.bistochastic_from_unitary",
        "majorizes": "classical.majorizes",
    },
    "entrokit.quantum": {
        "eigen_spectrum": "quantum.eigen_spectrum",
        "quantum_entropy": "quantum.quantum_entropy",
        "pinch": "quantum.pinch",
        "random_ensemble": "quantum.random_ensemble",
        "inf_ensemble_entropy": "quantum.inf_ensemble_entropy",
        "spectral_ensemble": "quantum.spectral_ensemble",
        "conjugate_isometry": "quantum.conjugate_isometry",
        "pinching_inequality_audit": "quantum.pinching_inequality_audit",
    },
    "entrokit.gpt": {
        "gpt_entropy": "gpt.gpt_entropy",
        "gpt_majorant": "gpt.gpt_majorant",
        "membership": "gpt.membership",
    },
    "entrokit.rand": {
        name: f"rand.{name}"
        for name in (
            "random_unitary",
            "random_isometry",
            "random_state_vector",
            "random_density",
            "random_prob_vector",
            "random_sphere_model",
            "random_simplex_model",
            "random_interior_point",
        )
    },
    "entrokit.reporting": {"build_report": "reporting.build_report"},
    "entrokit.audit": {"run_audit": "audit.run_audit"},
    "entrokit.fileio": {
        name: "fileio.read"
        for name in ("read_vector", "read_density", "read_basis", "read_model", "parse_state")
    },
    "entrokit.cli": {
        name: "cli.command"
        for name in ("cmd_entropy", "cmd_majorize", "cmd_audit", "cmd_functional")
    },
}

# Constructors patched in place: (module, class, span name).
CONSTRUCTOR_SPANS = (
    ("entrokit.classical", "ProbVector", "classical.ProbVector"),
    ("entrokit.quantum", "DensityOperator", "quantum.DensityOperator"),
    ("entrokit.gpt", "ConvexModel", "gpt.ConvexModel"),
)

# numpy.linalg routines: eigensolves get spans, the per-subset solves of the
# GPT layer (about 1.5e5 per audit-gpt pass) are only counted.
LINALG_SPANS = {"eigh": "linalg.eigh", "eigvalsh": "linalg.eigvalsh"}
LINALG_COUNTS = ("matrix_rank", "lstsq")


class Tracer:
    """Spans in flat arrays plus named counters, both split by segment."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.segment = "pass"
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[(self.segment, name)] += amount

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        setattr(traced, WRAPPED_MARK, True)
        return traced

    def wrap_count(self, name: str, fn):
        """Return ``fn`` bumping counter ``name`` per call, without a span."""

        def counted(*args, **kwargs):
            self.counters[(self.segment, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        setattr(counted, WRAPPED_MARK, True)
        return counted

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = new
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def rebind(self, fn, new, modules) -> None:
        """Point every module-level name bound to ``fn`` at ``new``."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, key, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def functional(self, F):
        """A copy of functional ``F`` whose phi records functionals.phi spans."""
        return dataclasses.replace(F, phi=self.wrap("functionals.phi", F.phi))

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Duration minus the time covered by direct children, per span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def totals(self, ops=None) -> dict[str, tuple[int, float, float]]:
        """(calls, self seconds, inclusive seconds) per span name.

        ``ops`` restricts the sum to spans recorded under those op indices.
        """
        a = self.arrays()
        keep = np.ones(a["op"].size, dtype=bool) if ops is None else np.isin(a["op"], list(ops))
        ids = a["name_id"][keep]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=self.self_times()[keep], minlength=n)
        incl_s = np.bincount(ids, weights=(a["end"] - a["start"])[keep], minlength=n)
        return {
            name: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def entrokit_modules() -> list:
    return [importlib.import_module(name) for name in ENTROKIT_MODULES]


def instrument(tracer: Tracer) -> None:
    """Install spans and counters on every traced callable of entrokit."""
    modules = entrokit_modules()
    by_name = {m.__name__: m for m in modules}

    for module_name, spans in FUNCTION_SPANS.items():
        module = by_name[module_name]
        for attr, span in spans.items():
            fn = getattr(module, attr)
            tracer.rebind(fn, tracer.wrap(span, fn), modules)

    audit = by_name["entrokit.audit"]
    for suite, fn in list(audit.SUITES.items()):
        tracer.patch(audit.SUITES, suite, tracer.wrap(f"audit.{fn.__name__}", fn))

    for module_name, cls_name, span in CONSTRUCTOR_SPANS:
        cls = getattr(by_name[module_name], cls_name)
        tracer.patch(cls, "__init__", tracer.wrap(span, cls.__init__))

    _instrument_sequences(tracer, by_name["entrokit.classical"].SequenceSource)
    _instrument_enumeration(tracer, by_name["entrokit.gpt"], modules)

    cli = by_name["entrokit.cli"]
    from_spec = cli.functional_from_spec

    def traced_from_spec(text):
        return tracer.functional(from_spec(text))

    setattr(traced_from_spec, WRAPPED_MARK, True)
    tracer.patch(cli, "functional_from_spec", traced_from_spec)

    for attr, span in LINALG_SPANS.items():
        tracer.patch(np.linalg, attr, tracer.wrap(span, getattr(np.linalg, attr)))
    for attr in LINALG_COUNTS:
        tracer.patch(np.linalg, attr, tracer.wrap_count(f"linalg.{attr}", getattr(np.linalg, attr)))


def _instrument_sequences(tracer: Tracer, source_cls) -> None:
    values = source_cls.values

    def counted_values(self, start, stop):
        tracer.count("classical.sequence.blocks")
        tracer.count("classical.sequence.terms", int(stop) - int(start))
        return values(self, start, stop)

    setattr(counted_values, WRAPPED_MARK, True)
    tracer.patch(source_cls, "values", counted_values)


def subsets_tried(n_vertices: int, dim: int) -> int:
    """Supports one enumeration tries: sum of C(n, k) for k <= min(n, d + 1)."""
    from math import comb

    return sum(comb(n_vertices, k) for k in range(1, min(n_vertices, dim + 1) + 1))


def _instrument_enumeration(tracer: Tracer, gpt, modules) -> None:
    enumerate_fn = gpt.enumerate_basic_decompositions
    plain = tracer.wrap("gpt.enumerate", enumerate_fn)
    at_cap = tracer.wrap("gpt.enumerate_cap", enumerate_fn)

    def traced_enumerate(model, x):
        n, d = model.vertices.shape
        tracer.count("gpt.subsets_tried", subsets_tried(n, d))
        capped = n == gpt.VERTEX_CAP and d == gpt.DIM_CAP
        found = (at_cap if capped else plain)(model, x)
        tracer.count("gpt.decompositions_found", len(found))
        return found

    setattr(traced_enumerate, WRAPPED_MARK, True)
    tracer.rebind(enumerate_fn, traced_enumerate, modules)


def _scopes():
    """(label, namespace) of every module, class and dict the tracer patches."""
    modules = entrokit_modules()
    owners = modules + [np.linalg]
    owners += [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    scopes = [(getattr(o, "__name__", repr(o)), vars(o)) for o in owners]
    scopes.append(("entrokit.audit.SUITES", importlib.import_module("entrokit.audit").SUITES))
    return scopes


def leftover_wrappers() -> list[str]:
    """Names in entrokit or numpy.linalg still bound to a tracing wrapper."""
    return [
        f"{label}.{key}"
        for label, namespace in _scopes()
        for key, value in namespace.items()
        if getattr(value, WRAPPED_MARK, False)
    ]


def snapshot_bindings() -> dict[str, int]:
    """id() of every callable the tracer may rebind, to compare before and after."""
    return {
        f"{label}.{key}": id(value)
        for label, namespace in _scopes()
        for key, value in namespace.items()
        if callable(value)
    }
