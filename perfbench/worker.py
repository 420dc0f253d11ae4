"""One fresh benchmark process: set up a workload, then time or trace it.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode {setup,run,trace} --inputs DIR

``setup`` prints ``ready`` once set up and exits.  ``run`` repeats the
workload's pass untraced until T seconds are spent; before each op it prints
``gap`` and waits for a line on standard input, so the runner can take its
own samples between ops.  Its op times are scaled to the reference speed of
speed.py; the raw times come out beside them.  ``trace`` runs one pass
untraced, one traced, then the probe, and derives the per-layer numbers.
``run`` and ``trace`` print one JSON object as their last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

CLI_TIMEOUT_S = 120


def cli_subprocess(argv):
    """One ``python -m entrokit`` process; the closed loop's only client."""
    proc = subprocess.run(
        [sys.executable, "-m", "entrokit", *argv],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def cli_inprocess(cli):
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def gap() -> None:
    """Hand control to the parent between ops and wait until it says go."""
    print("gap", flush=True)
    sys.stdin.readline()


def attempt(op, run):
    """(output, None), or (None, error) when the op raises: a failed op, not a crash."""
    try:
        return run(), None
    except Exception as exc:
        return None, f"{op.label}: {type(exc).__name__}: {exc}"


def run_pass(ops, tracer=None, between=None, scaled=False, every_s=None):
    """Run each op once, timing only the op.

    Returns records (op, seconds, output, error) and the raw seconds of each
    op.  With ``scaled`` the records hold seconds scaled to the reference
    speed (speed.py), sampled also every ``every_s`` within an op; otherwise
    they hold the raw seconds.
    """
    records, raw = [], []
    for i, op in enumerate(ops):
        if between is not None:
            between()
        run = op.run
        if tracer is not None:
            tracer.current_op = i
            run = tracer.wrap(f"op.{op.kind}", op.run)
        if scaled:
            (out, err), elapsed, seconds = speed.timed(lambda: attempt(op, run), every_s=every_s)
        else:
            t0 = time.perf_counter()
            out, err = attempt(op, run)
            elapsed = seconds = time.perf_counter() - t0
        records.append((op, seconds, out, err))
        raw.append(elapsed)
    return records, raw


def judge(records):
    """Problems and fingerprint per record; outputs are dropped afterwards."""
    judged = []
    for op, _, out, err in records:
        if err is not None:
            judged.append(([err], None))
        else:
            judged.append(([f"{op.label}: {p}" for p in op.check(out)], op.fingerprint(out)))
    return judged


def work_rates(records):
    """(audit trials, seconds in audit ops, sequence terms, seconds in sequence ops)."""
    trials = terms = 0
    audit_s = sequence_s = 0.0
    for op, seconds, out, err in records:
        if err is not None:
            continue
        if op.kind == "audit":
            trials += op.trials(out)
            audit_s += seconds
        elif op.kind == "sequence":
            terms += op.terms(out)
            sequence_s += seconds
    return trials, audit_s, terms, sequence_s


def thread_count() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def mode_run(state, seconds: float) -> dict:
    runner = cli_subprocess if state.workload == "cli-files" else None
    # A CLI op runs in a child process; sampling the reference in this one
    # meanwhile would put two busy processes on the machine, so CLI ops are
    # sampled before and after only.
    every_s = None if runner else speed.OP_SAMPLE_EVERY_S
    ops = wl.build_ops(state, state.functionals, runner)
    latencies, raw_latencies, pass_walls, problems = [], [], [], []
    reference = None
    attempted = failed = 0
    trials = terms = 0
    audit_s = sequence_s = 0.0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        records, raw = run_pass(ops, between=gap, scaled=True, every_s=every_s)
        raw_latencies.extend(raw)
        judged = judge(records)
        prints = [fp for _, fp in judged]
        if reference is None:
            reference = prints
        for (op, latency, _, _), (op_problems, fp), ref in zip(records, judged, reference):
            if not op_problems and fp != ref:
                op_problems = [f"{op.label}: output differs from the first pass"]
            attempted += 1
            failed += bool(op_problems)
            problems.extend(op_problems)
            latencies.append(latency)
        pass_walls.append(sum(latency for _, latency, _, _ in records))
        t, a, n, s = work_rates(records)
        trials, audit_s, terms, sequence_s = trials + t, audit_s + a, terms + n, sequence_s + s
        del records, judged
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            break
    return {
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "pass_walls": pass_walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb(children=state.workload == "cli-files"),
        "trials": trials,
        "audit_s": audit_s,
        "terms": terms,
        "sequence_s": sequence_s,
        "threads": thread_count(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops, probe_names, pass_records, untraced_records) -> dict:
    """Per-layer metrics of the traced run, as name -> (value, unit)."""
    every = tracer.totals()
    in_pass = tracer.totals(ops=range(n_ops))
    names = tracer.names

    def total(table, *spans):
        calls = sum(table.get(s, (0, 0.0, 0.0))[0] for s in spans)
        self_s = sum(table.get(s, (0, 0.0, 0.0))[1] for s in spans)
        return calls, self_s

    def grouped(prefix):
        return [n for n in names if n.startswith(prefix)]

    m = {}
    layers = {
        "functionals.phi": ["functionals.phi"],
        "classical.entropy_finite": ["classical.entropy_finite"],
        "classical.ProbVector": ["classical.ProbVector"],
        "classical.jensen_step_oracle": ["classical.jensen_step_oracle"],
        "classical.entropy_sequence": ["classical.entropy_sequence"],
        "quantum.DensityOperator": ["quantum.DensityOperator"],
        "quantum.eigen_spectrum": ["quantum.eigen_spectrum"],
        "quantum.quantum_entropy": ["quantum.quantum_entropy"],
        "quantum.pinch": ["quantum.pinch"],
        "quantum.random_ensemble": ["quantum.random_ensemble"],
        "quantum.inf_ensemble_entropy": ["quantum.inf_ensemble_entropy"],
        "linalg.eigh": ["linalg.eigh"],
        "linalg.eigvalsh": ["linalg.eigvalsh"],
        "gpt.ConvexModel": ["gpt.ConvexModel"],
        "gpt.enumerate": ["gpt.enumerate", "gpt.enumerate_cap"],
        "gpt.gpt_entropy": ["gpt.gpt_entropy"],
        "gpt.gpt_majorant": ["gpt.gpt_majorant"],
        "rand": grouped("rand."),
        "audit": grouped("audit."),
        "reporting.build_report": ["reporting.build_report"],
        "fileio.read": ["fileio.read"],
        "cli.command": ["cli.command"],
    }
    for layer, spans in layers.items():
        calls, self_s = total(every, *spans)
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")

    counters = tracer.counters

    def counted(name, segments=("pass", "probe")):
        return sum(counters.get((seg, name), 0) for seg in segments)

    for name in ("classical.sequence.blocks", "classical.sequence.terms", "gpt.subsets_tried",
                 "gpt.decompositions_found"):
        m[name] = (counted(name), "count")
    m["linalg.rank_lstsq_calls"] = (counted("linalg.matrix_rank") + counted("linalg.lstsq"), "count")

    trials, audit_s, terms, sequence_s = work_rates(pass_records)
    entries = sum(len(out.cases) for op, _, out, err in pass_records if op.kind == "audit" and err is None)
    m["audit.trials"] = (trials, "count")
    m["audit.entries"] = (entries, "count")
    eigensolves = total(in_pass, "linalg.eigh", "linalg.eigvalsh")[0]
    m["linalg.eigensolves_per_state"] = (_ratio(eigensolves, total(in_pass, "quantum.DensityOperator")[0]), "ratio")
    enumerations = total(in_pass, "gpt.enumerate", "gpt.enumerate_cap")[0]
    m["gpt.enumerations_per_trial"] = (_ratio(enumerations, trials), "ratio")
    m["gpt.feasible_ratio"] = (
        _ratio(counted("gpt.decompositions_found", ("pass",)), counted("gpt.subsets_tried", ("pass",))),
        "ratio",
    )

    u_trials, u_audit_s, u_terms, u_sequence_s = work_rates(untraced_records)
    m["trials_per_s"] = (_ratio(u_trials, u_audit_s), "1/s")
    m["terms_per_s"] = (_ratio(u_terms, u_sequence_s), "1/s")

    def probe(item, span, inclusive=False):
        calls, self_s, incl_s = tracer.totals(ops=[n_ops + item]).get(span, (0, 0.0, 0.0))
        return _ratio(incl_s if inclusive else self_s, calls)

    at = probe_names.index
    m["percall.phi.self_us"] = (1e6 * probe(at("probe.phi"), "functionals.phi"), "us")
    m["percall.ProbVector.self_us"] = (1e6 * probe(at("probe.ProbVector"), "classical.ProbVector"), "us")
    m["percall.entropy_finite.self_us"] = (
        1e6 * probe(at("probe.entropy_finite"), "classical.entropy_finite"), "us")
    m["percall.DensityOperator.self_us"] = (
        1e6 * probe(at("probe.DensityOperator"), "quantum.DensityOperator"), "us")
    qe = 1e6 * probe(at("probe.quantum_entropy"), "quantum.quantum_entropy", inclusive=True)
    eig = 1e6 * probe(at("probe.eigvalsh"), "linalg.eigvalsh")
    m["percall.quantum_entropy.incl_us"] = (qe, "us")
    m["percall.eigvalsh.self_us"] = (eig, "us")
    m["percall.quantum_entropy_over_eigvalsh"] = (_ratio(qe, eig), "ratio")
    m["percall.enumerate_cap.self_ms"] = (1e3 * probe(at("probe.enumerate_cap"), "gpt.enumerate_cap"), "ms")
    return m


def mode_trace(state, inputs: Path) -> dict:
    ek = state.ek
    runner = cli_inprocess(ek["cli"]) if state.workload == "cli-files" else None
    ops = wl.build_ops(state, state.functionals, runner)
    untraced, _ = run_pass(ops)
    judged_u = judge(untraced)

    probe_inputs = wl.probe_inputs(ek)
    vector_file = str(inputs / "probe-vector.json")
    Path(vector_file).write_text(json.dumps(probe_inputs["p8"].tolist()), encoding="utf-8")
    before = tracing.snapshot_bindings()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        traced_functionals = [tracer.functional(F) for F in state.functionals]
        traced_ops = wl.build_ops(state, traced_functionals, runner)
        traced, _ = run_pass(traced_ops, tracer)
        tracer.segment = "probe"
        items = wl.probe_items(ek, traced_functionals[0], probe_inputs, vector_file, cli_inprocess(ek["cli"]))
        for j, (name, thunk) in enumerate(items):
            tracer.current_op = len(traced_ops) + j
            tracer.wrap(name, thunk)()
    finally:
        tracer.restore()
    judged_t = judge(traced)

    problems = []
    leftovers = tracing.leftover_wrappers()
    if leftovers or tracing.snapshot_bindings() != before:
        problems.append(f"tracing left names rebound: {leftovers}")
    failed = 0
    for (op, _, _, _), (p_u, fp_u), (p_t, fp_t) in zip(untraced, judged_u, judged_t):
        op_problems = p_u + p_t
        if not op_problems and fp_u != fp_t:
            op_problems = [f"{op.label}: traced output differs from untraced"]
        failed += bool(op_problems)
        problems.extend(op_problems)

    wall_u = sum(seconds for _, seconds, _, _ in untraced)
    wall_t = sum(seconds for _, seconds, _, _ in traced)
    metrics = layer_metrics(tracer, len(traced_ops), [name for name, _ in items], traced, untraced)
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["trace.overhead_ratio"] = (_ratio(wall_t - wall_u, wall_u), "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    tracer.save(inputs.parent / f"spans-{state.workload}.npz")
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": 2 * len(ops),
        "failed": failed,
        "problems": problems[:20],
        "untraced_pass_s": wall_u,
        "traced_pass_s": wall_t,
        "threads": thread_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--inputs", required=True, type=Path)
    args = parser.parse_args(argv)

    state = wl.setup(args.workload, args.seed, args.inputs)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    if args.mode == "run":
        result = mode_run(state, args.seconds)
    else:
        result = mode_trace(state, args.inputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
