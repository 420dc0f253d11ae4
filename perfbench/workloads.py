"""The four workloads: inputs made from the seed, one pass of ops, and output checks.

A pass is the workload's fixed op list.  An op is one audit suite call, one
sequence evaluation, or one CLI call, and is timed alone.  Checks run outside
the timed region and return a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("audit-quantum", "audit-gpt", "classical", "cli-files")

# The workloads' functionals: the library's five default specs, fixed here so
# that the inputs stay the same if the library's defaults change.
FUNCTIONAL_SPECS = (
    "shannon",
    "renyi:alpha=0.5",
    "renyi:alpha=2",
    "tsallis:q=2",
    "kaniadakis:kappa=0.5",
)

# Suites of each audit op, in pass order.  Each op draws its own audit seed.
# Three of five audit-quantum ops are pinching suites, whose cost varies
# least with the seed, so the median and tail latency fall among them.
AUDIT_PASSES = {
    "audit-quantum": ("pinching", "isometry", "pinching", "ensemble", "pinching"),
    "audit-gpt": ("gpt-argmin",) * 2,
    "classical": ("schur",) * 3,
}

SEQUENCE_MAX_TERMS = 1_000_000
# The certified geometric tail stops a stream as EXACT only while r^(64*beta)
# stays below about 1/2 for every phi exponent beta; above r ~ 0.978 the
# trailing-window rule fires first for beta = 0.5 and the status becomes
# TRUNCATED_ESTIMATE.  The band keeps r as close to 1 as that allows.
GEOMETRIC_R = (0.95, 0.975)
CLOSED_FORM_TOL = 1e-9
CLI_DIGITS = 12

CAP_VERTICES = 12
CAP_DIM = 4
MIN_VERTEX_GAP = 0.05

PROBE_SEED = 20180223
PROBE_REPS = 200
PROBE_CAP_ENUMERATIONS = 3


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    fingerprint: Callable[[Any], Any]
    trials: Callable[[Any], int] = lambda out: 0
    terms: Callable[[Any], int] = lambda out: 0


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def audit_seeds(seed: int, workload: str) -> list[int]:
    count = len(AUDIT_PASSES[workload])
    return [int(s) for s in _rng(seed, workload).integers(0, 2**31 - 1, size=count)]


def geometric_ratio(seed: int) -> float:
    lo, hi = GEOMETRIC_R
    rng = _rng(seed, "classical")
    rng.integers(0, 2**31 - 1, size=len(AUDIT_PASSES["classical"]))
    return float(rng.uniform(lo, hi))


# -- checks ---------------------------------------------------------------


def expected_case_counts(suite: str, trials: int, n_functionals: int) -> dict[str, int]:
    """Entries per case that ``trials`` imply; majorant-minimal is data dependent."""
    T, F = int(trials), int(n_functionals)
    if suite == "schur":
        return {
            "mixing-majorization": T,
            "entropy-monotone": T * F,
            "jensen-integral-match": T * F,
            "jensen-direction": T * F,
        }
    if suite == "pinching":
        return {"pinching-inequality": T * F, "pinching-eigenbasis-equality": T * F}
    if suite == "isometry":
        embedded = T // 4
        return {"isometry-unitary": (T - embedded) * F, "isometry-embedding": embedded * F}
    if suite == "ensemble":
        n_states = max(1, T // 20)
        drawn = 0
        for s in range(n_states):
            drawn += max(1, (T - drawn) // (n_states - s))
        return {
            "ensemble-majorization": drawn,
            "ensemble-entropy": drawn * F,
            "infimum-equals-spectrum": n_states * F,
        }
    if suite == "gpt-argmin":
        # Every interior point of a model with n >= d + 2 vertices has at
        # least two basic decompositions, so each trial checks argmin.
        return {"argmin-optimality": T * F}
    raise ValueError(f"unknown suite {suite!r}")


def check_audit(report, suite: str, functionals) -> list[str]:
    problems = []
    trials = report.trials
    if report.violations:
        problems.append(f"{suite}: {report.violations} violations, worst {report.worst_margin!r}")
    counts = Counter(e.case for e in report.cases)
    expected = expected_case_counts(suite, trials, len(functionals))
    if suite == "gpt-argmin":
        majorant = counts.pop("majorant-minimal", 0)
        if majorant % len(functionals) or majorant > trials * len(functionals):
            problems.append(f"{suite}: {majorant} majorant-minimal entries")
    if dict(counts) != expected:
        problems.append(f"{suite}: case counts {dict(counts)}, expected {expected}")
    per_functional = Counter((e.case, e.functional) for e in report.cases if e.functional)
    names = {F.name for F in functionals}
    for case in {c for c, _ in per_functional}:
        seen = {f: per_functional[(case, f)] for f in names}
        if len(set(seen.values())) != 1:
            problems.append(f"{suite}: {case} entries differ across functionals: {seen}")
    return problems


def geometric_closed_form(F, r: float) -> float:
    """Entropy of p_i = (1 - r) r^i for the built-in families."""

    def power_sum(beta):  # sum_i p_i ** beta
        return (1.0 - r) ** beta / -math.expm1(beta * math.log(r))

    params = F.params
    if F.family == "shannon":
        return -math.log1p(-r) - r * math.log(r) / (1.0 - r)
    if F.family == "renyi":
        a = params["alpha"]
        return math.log(power_sum(a)) / (1.0 - a)
    if F.family == "tsallis":
        q = params["q"]
        return (1.0 - power_sum(q)) / (q - 1.0)
    if F.family == "kaniadakis":
        k = params["kappa"]
        return (power_sum(1.0 - k) - power_sum(1.0 + k)) / (2.0 * k)
    raise ValueError(f"no closed form for {F.name}")


def check_geometric(results, functionals, r: float) -> list[str]:
    problems = []
    for F, res in zip(functionals, results):
        if res.status.value != "exact":
            problems.append(f"geometric r={r!r} {F.name}: status {res.status.value}")
        exact = geometric_closed_form(F, r)
        if not abs(res.value - exact) <= CLOSED_FORM_TOL:
            problems.append(f"geometric r={r!r} {F.name}: {res.value!r} vs closed form {exact!r}")
    return problems


def check_heavytail(res) -> list[str]:
    if res.status.value != "declared_divergent" or res.terms_used != SEQUENCE_MAX_TERMS:
        return [f"heavytail: {res.status.value} after {res.terms_used} terms"]
    return []


def _rounded(value: float):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(f"{value:.{CLI_DIGITS}g}")


def check_cli(out, expected: dict) -> list[str]:
    """``out`` is (exit code, stdout); ``expected`` the library's own record."""
    code, stdout = out
    if code != 0:
        return [f"exit code {code}"]
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"unparseable output {stdout[-200:]!r}"]
    wrong = {k: (record.get(k), v) for k, v in expected.items() if record.get(k) != v}
    return [f"CLI differs from library: {wrong}"] if wrong else []


# -- cli-files inputs -----------------------------------------------------


def _dump(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _sphere_points(rng, n: int, d: int) -> np.ndarray:
    while True:
        pts = rng.standard_normal((n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) + np.eye(n)
        if gaps.min() >= MIN_VERTEX_GAP:
            return pts


def write_cli_inputs(directory: Path, seed: int) -> list[dict]:
    """Write the cli-files input files; return the pass as a list of CLI calls.

    The pass has five GPT calls at the vertex and dimension caps among
    eight, so its median and tail latency sit among the GPT calls.
    """
    rng = _rng(seed, "cli-files")
    directory = Path(directory)
    first = int(rng.integers(len(FUNCTIONAL_SPECS)))
    spec = itertools.cycle(FUNCTIONAL_SPECS[first:] + FUNCTIONAL_SPECS[:first])

    def entropy(kind, path, state=None):
        f = next(spec)
        extra = ["--state-file", state] if state else []
        argv = ["entropy", path, "--kind", kind, "--functional", f, *extra, "--format", "json"]
        return {"kind": kind, "argv": argv, "path": path, "functional": f, "state": state}

    n = int(rng.integers(16, 1025))
    vector = _dump(directory / "vector.json", rng.dirichlet(np.ones(n)).tolist())

    d = int(rng.integers(2, 17))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    density = _dump(directory / "density.json", {"dim": d, "re": rho.real.tolist(), "im": rho.imag.tolist()})

    models = []
    for i in range(3):
        vertices = _sphere_points(rng, CAP_VERTICES, CAP_DIM)
        state = rng.dirichlet(np.ones(CAP_VERTICES)) @ vertices
        models.append(
            (
                _dump(directory / f"model{i}.json", {"dim": CAP_DIM, "vertices": vertices.tolist()}),
                _dump(directory / f"state{i}.json", state.tolist()),
            )
        )

    m = int(rng.integers(16, 1025))
    p = rng.dirichlet(np.ones(m))
    t = float(rng.uniform(0.2, 0.8))
    q = t * p + (1.0 - t) * p[rng.permutation(m)]
    p_path = _dump(directory / "p.json", p.tolist())
    q_path = _dump(directory / "q.json", q.tolist())
    majorize = {"kind": "majorize", "argv": ["majorize", p_path, q_path, "--format", "json"], "p": p_path, "q": q_path}

    def gpt(i):
        model, state = models[i]
        return entropy("gpt", model, state)

    return [
        entropy("classical", vector),
        gpt(0),
        entropy("quantum", density),
        gpt(1),
        majorize,
        gpt(2),
        gpt(0),
        gpt(1),
    ]


def cli_expected(ek, call: dict) -> dict:
    """The record fields the CLI must print for ``call``, from the library."""
    fileio, classical = ek["fileio"], ek["classical"]
    if call["kind"] == "majorize":
        p, q = fileio.read_vector(call["p"]), fileio.read_vector(call["q"])
        return {
            "q_majorized_by_p": bool(classical.majorizes(p, q)),
            "p_majorized_by_q": bool(classical.majorizes(q, p)),
        }
    F = ek["functionals"].functional_from_spec(call["functional"])
    if call["kind"] == "classical":
        value = classical.entropy_finite(classical.ProbVector(fileio.read_vector(call["path"])), F).value
        return {"value": _rounded(value)}
    if call["kind"] == "quantum":
        return {"value": _rounded(ek["quantum"].quantum_entropy(fileio.read_density(call["path"]), F).value)}
    data = json.loads(Path(call["path"]).read_text(encoding="utf-8"))
    model = ek["gpt"].ConvexModel(data["vertices"], check_extreme=False)
    x = fileio.parse_state(Path(call["state"]).read_text(encoding="utf-8"))
    value, dec = ek["gpt"].gpt_entropy(model, x, F)
    decomposition = {"support": list(dec.support), "weights": [_rounded(float(w)) for w in dec.weights]}
    return {"value": _rounded(value), "decomposition": decomposition}


# -- set-up and the op list -------------------------------------------------


def load_entrokit() -> dict:
    from entrokit import audit, classical, cli, fileio, functionals, gpt, quantum

    return {
        "audit": audit,
        "classical": classical,
        "cli": cli,
        "fileio": fileio,
        "functionals": functionals,
        "gpt": gpt,
        "quantum": quantum,
    }


@dataclass
class State:
    """Everything a pass needs, built once per process before timing."""

    workload: str
    seed: int
    ek: dict
    functionals: list
    audit_seeds: list
    r: float = 0.0
    geometric: Any = None
    heavytail: Any = None
    calls: list = field(default_factory=list)


def setup(workload: str, seed: int, inputs: Path) -> State:
    """Import entrokit and build the workload's functionals and sources."""
    ek = load_entrokit()
    functionals = [ek["functionals"].functional_from_spec(s) for s in FUNCTIONAL_SPECS]
    state = State(workload, seed, ek, functionals, [])
    if workload in AUDIT_PASSES:
        state.audit_seeds = audit_seeds(seed, workload)
    if workload == "classical":
        source = ek["classical"].SequenceSource
        state.r = geometric_ratio(seed)
        state.geometric = source.geometric(state.r)
        state.heavytail = source.heavy_tail()
    if workload == "cli-files":
        state.calls = json.loads((Path(inputs) / "calls.json").read_text(encoding="utf-8"))
    return state


def _audit_op(audit, suite: str, seed: int, functionals) -> Op:
    return Op(
        "audit",
        f"{suite}@{seed}",
        lambda: audit.run_audit(suite, seed=seed, functional_specs=functionals),
        lambda rep: check_audit(rep, suite, functionals),
        lambda rep: (rep.summary_dict(), len(rep.cases)),
        trials=lambda rep: rep.trials,
    )


def _result_key(res):
    return (res.value, res.status.value, res.terms_used, res.increment_at_stop)


def build_ops(state: State, functionals, run_cli) -> list[Op]:
    """One pass of ``state.workload`` evaluated with ``functionals``.

    ``run_cli(argv)`` runs one CLI call and returns (exit code, stdout).
    """
    ek = state.ek
    if state.workload in AUDIT_PASSES:
        suites = AUDIT_PASSES[state.workload]
        audits = [_audit_op(ek["audit"], s, a, functionals) for s, a in zip(suites, state.audit_seeds)]
    if state.workload in ("audit-quantum", "audit-gpt"):
        return audits
    if state.workload == "classical":
        classical, shannon = ek["classical"], functionals[0]
        geometric = Op(
            "sequence",
            f"geometric:r={state.r!r}",
            lambda: [
                classical.entropy_sequence(state.geometric, F, max_terms=SEQUENCE_MAX_TERMS)
                for F in functionals
            ],
            lambda results: check_geometric(results, functionals, state.r),
            lambda results: [_result_key(r) for r in results],
            terms=lambda results: sum(r.terms_used for r in results),
        )
        heavytail = Op(
            "sequence",
            "heavytail",
            lambda: classical.entropy_sequence(state.heavytail, shannon, max_terms=SEQUENCE_MAX_TERMS),
            check_heavytail,
            _result_key,
            terms=lambda res: res.terms_used,
        )
        return [audits[0], geometric, audits[1], heavytail, audits[2]]
    expected = {}

    def cli_op(i, call):
        def check(out):
            if i not in expected:
                expected[i] = cli_expected(ek, call)
            return check_cli(out, expected[i])

        return Op("cli", " ".join(call["argv"][:3]), lambda: run_cli(call["argv"]), check, lambda out: out)

    return [cli_op(i, call) for i, call in enumerate(state.calls)]


# -- the probe --------------------------------------------------------------


def probe_inputs(ek) -> dict:
    """Fixed inputs at the sizes of the per-call baseline, built untraced."""
    rng = np.random.default_rng(PROBE_SEED)
    classical, quantum, gpt = ek["classical"], ek["quantum"], ek["gpt"]
    p8 = rng.dirichlet(np.ones(8))
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m6 = g @ g.conj().T
    m6 /= np.trace(m6).real
    cap = _sphere_points(rng, CAP_VERTICES, CAP_DIM)
    return {
        "p8": p8,
        "vec8": classical.ProbVector(p8),
        "m6": m6,
        "rho6": quantum.DensityOperator(m6),
        "cap_model": gpt.ConvexModel(cap, check_extreme=False),
        "cap_x": rng.dirichlet(np.ones(CAP_VERTICES)) @ cap,
        "square": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        "row": rng.dirichlet(np.ones(8)),
    }


def probe_items(ek, F, inputs: dict, vector_file: str, run_cli) -> list[tuple[str, Callable]]:
    """(name, thunk) pairs run traced after the pass.

    The repeated items give per-call costs on fixed inputs; ``coverage``
    calls once into each layer they miss, so every layer is measured on
    every workload.
    """
    classical, quantum, gpt, audit = ek["classical"], ek["quantum"], ek["gpt"], ek["audit"]
    p8, vec8, m6, rho6 = inputs["p8"], inputs["vec8"], inputs["m6"], inputs["rho6"]

    def repeat(fn, times=PROBE_REPS):
        def run():
            for _ in range(times):
                fn()

        return run

    def coverage():
        classical.jensen_step_oracle(inputs["row"], vec8, F)
        classical.entropy_sequence(classical.SequenceSource.geometric(0.5), F)
        quantum.pinch(rho6, np.eye(6))
        quantum.inf_ensemble_entropy(rho6, F, trials=2, rng_seed=PROBE_SEED)
        model = gpt.ConvexModel(inputs["square"])
        x = np.array([0.3, 0.6])
        gpt.gpt_entropy(model, x, F)
        gpt.gpt_majorant(model, x)
        audit.run_audit("isometry", trials=2, seed=PROBE_SEED, dims=(2, 3), functional_specs=[F])
        run_cli(["entropy", vector_file, "--kind", "classical", "--format", "json"])

    return [
        ("probe.phi", repeat(lambda: F.phi(p8))),
        ("probe.ProbVector", repeat(lambda: classical.ProbVector(p8))),
        ("probe.entropy_finite", repeat(lambda: classical.entropy_finite(vec8, F))),
        ("probe.DensityOperator", repeat(lambda: quantum.DensityOperator(m6))),
        ("probe.quantum_entropy", repeat(lambda: quantum.quantum_entropy(rho6, F))),
        ("probe.eigvalsh", repeat(lambda: np.linalg.eigvalsh(m6))),
        (
            "probe.enumerate_cap",
            repeat(
                lambda: gpt.enumerate_basic_decompositions(inputs["cap_model"], inputs["cap_x"]),
                PROBE_CAP_ENUMERATIONS,
            ),
        ),
        ("probe.coverage", coverage),
    ]
