"""entrokit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  Every workload process is fresh, gets the
seed as an argument and runs with BLAS pinned to one thread.  With --trace 0
the result carries the end-to-end metrics of an untraced run; with --trace 1
it carries the per-layer metrics of a traced run and the tracing overhead.
Metadata goes on the line before the result and, with the result, into
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

BLAS_PIN = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_SAMPLES = 5
COLD_START_SAMPLES = 15
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10


class BenchError(Exception):
    """A benchmark process failed; no result can be printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python(args, env, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def worker_args(args, mode: str, inputs: Path) -> list[str]:
    return [
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--inputs", str(inputs),
    ]


def spawn_until_ready(args, inputs: Path, env) -> float:
    """Seconds from spawning a fresh worker until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *worker_args(args, "setup", inputs)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up failed: {err[-2000:]}")
    return elapsed


def time_setup(args, inputs: Path, env):
    """Set-up seconds, (raw, scaled to the reference speed)."""
    elapsed, raw, scaled = speed.timed(lambda: spawn_until_ready(args, inputs, env), speed.COUNT_TASK)
    return elapsed, elapsed * scaled / raw


def time_cold_start(env):
    """Milliseconds for one ``python -m entrokit functional list`` process, (raw, scaled)."""
    argv = ["-m", "entrokit", "functional", "list", "--format", "json"]
    proc, raw, scaled = speed.timed(lambda: python(argv, env), speed.COUNT_TASK)
    families = [json.loads(line)["family"] for line in proc.stdout.splitlines()]
    if sorted(families) != ["kaniadakis", "renyi", "shannon", "tsallis"]:
        raise BenchError(f"functional list printed {families}")
    return 1e3 * raw, 1e3 * scaled


def import_seconds(module: str, env) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return float(python(["-c", code], env).stdout)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND + 1 samples no percentile above the median has that
    many samples beyond it, and the median is reported.  Returns (value,
    percentile).
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < len(ordered) // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "entrokit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pin": BLAS_PIN,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_with_side_samples(args, inputs: Path, env):
    """Run the untraced worker and spread the set-up and cold-start samples over it.

    The worker stops at a gap after every op until told to go on; the samples
    due by then are taken in the gap, so machine-speed drift during the run
    reaches them as it reaches the ops.  Samples still due run at the end.
    """
    slots = [("setup", (i + 0.5) / SETUP_SAMPLES) for i in range(SETUP_SAMPLES)]
    slots += [("cold", (i + 0.5) / COLD_START_SAMPLES) for i in range(COLD_START_SAMPLES)]
    plan = [kind for kind, _ in sorted(slots, key=lambda slot: slot[1])]
    taken = {"setup": [], "cold": []}

    def sample(kind):
        taken[kind].append(time_setup(args, inputs, env) if kind == "setup" else time_cold_start(env))

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with open(inputs / "worker.err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, *worker_args(args, "run", inputs)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                t0, done, result = time.perf_counter(), 0, ""
                while True:
                    if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                        raise BenchError("worker timed out")
                    line = proc.stdout.readline()
                    if not line:
                        break
                    if line.strip() != "gap":
                        result = line
                        continue
                    # A quarter of the samples at the start, the rest as the run proceeds.
                    due = len(plan) * min(1.0, 0.25 + (time.perf_counter() - t0) / args.seconds)
                    while done < due:
                        sample(plan[done])
                        done += 1
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
            if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
                raise BenchError(f"worker exited {proc.returncode}: {(inputs / 'worker.err').read_text()[-2000:]}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for kind in plan[done:]:
        sample(kind)
    return json.loads(result), taken["setup"], taken["cold"]


def pass_wall(latencies, ops_per_pass: int) -> float:
    """One pass at each op's median latency over the run's passes."""
    return sum(statistics.median(latencies[i::ops_per_pass]) for i in range(ops_per_pass))


def latency_metrics(latencies, ops_per_pass: int):
    """(wall_s, op_p50_ms, op_tail_ms, tail percentile) from per-op seconds in pass order."""
    latencies_ms = [1e3 * s for s in latencies]
    op_tail, percentile = tail(latencies_ms)
    return pass_wall(latencies, ops_per_pass), statistics.median(latencies_ms), op_tail, percentile


def end_to_end(args, inputs: Path, env):
    """End-to-end metrics; every time is scaled to the reference speed (speed.py)."""
    run, setup, cold = run_with_side_samples(args, inputs, env)
    n = len(run["latencies"]) // len(run["pass_walls"])
    wall, p50, op_tail, percentile = latency_metrics(run["latencies"], n)
    raw_wall, raw_p50, raw_tail, _ = latency_metrics(run["raw_latencies"], n)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (op_tail, "ms"),
        "cold_start_ms": (statistics.median(s for _, s in cold), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    samples = {
        "unscaled": {
            "setup_s": statistics.median(r for r, _ in setup),
            "wall_s": raw_wall,
            "op_p50_ms": raw_p50,
            "op_tail_ms": raw_tail,
            "cold_start_ms": statistics.median(r for r, _ in cold),
        },
        "setup": len(setup),
        "cold_start": len(cold),
        "passes": len(run["pass_walls"]),
        "ops": len(run["latencies"]),
        "op_tail_percentile": percentile,
        "fail_ratio": run["failed"] / run["attempted"],
        "trials_per_s": run["trials"] / run["audit_s"] if run["audit_s"] else None,
        "terms_per_s": run["terms"] / run["sequence_s"] if run["sequence_s"] else None,
        "worker_threads": run["threads"],
    }
    return run, metrics, samples


def traced(args, inputs: Path, env):
    run = json.loads(python(worker_args(args, "trace", inputs), env).stdout.splitlines()[-1])
    numpy_s = [import_seconds("numpy", env) for _ in range(IMPORT_SAMPLES)]
    entrokit_s = [import_seconds("entrokit", env) for _ in range(IMPORT_SAMPLES)]
    metrics = {k: (v["value"], v["unit"]) for k, v in run.pop("metrics").items()}
    metrics["cli.import_s"] = (statistics.median(entrokit_s) - statistics.median(numpy_s), "s")
    samples = {
        "import": IMPORT_SAMPLES,
        "untraced_pass_s": run["untraced_pass_s"],
        "traced_pass_s": run["traced_pass_s"],
        "fail_ratio": run["failed"] / run["attempted"],
        "worker_threads": run["threads"],
    }
    return run, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "entrokit" / "__init__.py").is_file():
        print(f"perfbench: no entrokit sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    env = child_env()
    try:
        if args.workload == "cli-files":
            calls = wl.write_cli_inputs(inputs, args.seed)
            (inputs / "calls.json").write_text(json.dumps(calls), encoding="utf-8")
        python(["-c", "import entrokit"], env)  # compile bytecode and warm the file cache
        measure = traced if args.trace else end_to_end
        run, metrics, samples = measure(args, inputs, env)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    result = {
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    meta = dict(metadata(args), samples=samples, problems=run["problems"])
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1), encoding="utf-8"
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
