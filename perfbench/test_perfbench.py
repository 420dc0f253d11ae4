"""Tests of the benchmark itself: tracing, output checks, result format.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from entrokit import audit, classical, cli, fileio, gpt  # noqa: E402
from entrokit.functionals import functional_from_spec  # noqa: E402

FUNCTIONALS = [functional_from_spec(s) for s in wl.FUNCTIONAL_SPECS]
SMALL_AUDITS = {"schur": 4, "pinching": 4, "isometry": 8, "ensemble": 40, "gpt-argmin": 2}


def tracing_free_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def files(tmp_path):
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(6))
    (tmp_path / "p.json").write_text(json.dumps(p.tolist()))
    (tmp_path / "q.json").write_text(json.dumps((0.5 * p + 0.5 * p[::-1]).tolist()))
    rho = np.diag([0.5, 0.3, 0.2])
    (tmp_path / "rho.json").write_text(json.dumps({"dim": 3, "re": rho.tolist()}))
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    (tmp_path / "model.json").write_text(json.dumps({"dim": 2, "vertices": square}))
    return tmp_path


def _library_calls(functionals, files):
    """Small calls through every traced layer; returns comparable results."""
    out = []
    for suite, trials in SMALL_AUDITS.items():
        report = audit.run_audit(suite, trials=trials, seed=3, functional_specs=functionals)
        out.append((report.summary_dict(), [e.to_dict() for e in report.cases]))
    geo = classical.SequenceSource.geometric(0.96)
    out.extend(
        dataclasses.astuple(classical.entropy_sequence(geo, F, max_terms=10_000)) for F in functionals
    )
    heavy = classical.entropy_sequence(classical.SequenceSource.heavy_tail(), functionals[0], max_terms=5_000)
    out.append(dataclasses.astuple(heavy))
    for argv in (
        ["entropy", str(files / "p.json"), "--kind", "classical", "--functional", "renyi:alpha=2"],
        ["entropy", str(files / "rho.json"), "--kind", "quantum"],
        ["entropy", str(files / "model.json"), "--kind", "gpt", "--state", "[0.3, 0.6]"],
        ["majorize", str(files / "p.json"), str(files / "q.json")],
    ):
        out.append(tracing_free_cli([*argv, "--format", "json"]))
    return out


def test_tracing_changes_no_result_and_restores_every_name(files):
    before = tracing.snapshot_bindings()
    plain = _library_calls(FUNCTIONALS, files)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        traced = _library_calls([tracer.functional(F) for F in FUNCTIONALS], files)
    finally:
        tracer.restore()
    assert traced == plain
    assert tracing.leftover_wrappers() == []
    assert tracing.snapshot_bindings() == before

    calls = {name: c for name, (c, _, _) in tracer.totals().items()}
    for name in (
        "functionals.phi", "classical.entropy_finite", "classical.ProbVector",
        "classical.jensen_step_oracle", "classical.entropy_sequence", "quantum.DensityOperator",
        "quantum.eigen_spectrum", "quantum.pinch", "quantum.random_ensemble",
        "quantum.inf_ensemble_entropy", "gpt.ConvexModel", "gpt.enumerate", "gpt.gpt_entropy",
        "gpt.gpt_majorant", "audit.run_audit", "audit.run_schur_audit", "reporting.build_report",
        "fileio.read", "cli.command", "linalg.eigh", "linalg.eigvalsh", "rand.random_unitary",
    ):
        assert calls.get(name, 0) > 0, name
    counters = {name: v for (_, name), v in tracer.counters.items()}
    for name in ("classical.sequence.blocks", "classical.sequence.terms", "gpt.subsets_tried",
                 "gpt.decompositions_found", "linalg.matrix_rank", "linalg.lstsq"):
        assert counters.get(name, 0) > 0, name


def test_restore_after_a_failing_call():
    before = tracing.snapshot_bindings()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        with pytest.raises(ValueError):
            classical.ProbVector([0.5, 0.6])
    finally:
        tracer.restore()
    assert tracing.snapshot_bindings() == before
    assert tracer.totals()["classical.ProbVector"][0] == 1


def test_self_time_is_duration_minus_direct_children():
    tracer = tracing.Tracer()
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    for name, parent, start, end in (("outer", -1, 0, 10), ("a", 0, 1, 4), ("b", 0, 5, 9), ("c", 2, 6, 7)):
        tracer.name_id.append(tracer._intern(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    assert tracer.self_times().tolist() == [3.0, 3.0, 3.0, 1.0]
    assert tracer.totals()["b"] == (1, 3.0, 4.0)


def test_subsets_tried_counts_supports_up_to_d_plus_one():
    assert tracing.subsets_tried(12, 4) == 12 + 66 + 220 + 495 + 792
    assert tracing.subsets_tried(3, 4) == 7


@pytest.mark.parametrize("suite", sorted(SMALL_AUDITS))
def test_entry_counts_follow_from_trials(suite):
    report = audit.run_audit(suite, trials=SMALL_AUDITS[suite], seed=11, functional_specs=FUNCTIONALS)
    assert wl.check_audit(report, suite, FUNCTIONALS) == []
    assert wl.check_audit(dataclasses.replace(report, violations=1), suite, FUNCTIONALS)
    assert wl.check_audit(dataclasses.replace(report, cases=report.cases[:-1]), suite, FUNCTIONALS)


def test_geometric_checks_status_and_closed_form():
    r = 0.96
    results = [
        classical.entropy_sequence(classical.SequenceSource.geometric(r), F, max_terms=wl.SEQUENCE_MAX_TERMS)
        for F in FUNCTIONALS
    ]
    assert wl.check_geometric(results, FUNCTIONALS, r) == []
    truncated = dataclasses.replace(results[0], status=classical.EntropyStatus.TRUNCATED_ESTIMATE)
    assert wl.check_geometric([truncated], FUNCTIONALS, r)
    off = dataclasses.replace(results[1], value=results[1].value + 1e-8)
    assert wl.check_geometric([results[0], off], FUNCTIONALS, r)


@pytest.mark.parametrize("spec", wl.FUNCTIONAL_SPECS)
def test_geometric_closed_form_matches_the_direct_sum(spec):
    F = functional_from_spec(spec)
    r = 0.5
    p = (1 - r) * r ** np.arange(2000.0)
    direct = float(F.h(float(np.sum(F.phi(p)))))
    assert wl.geometric_closed_form(F, r) == pytest.approx(direct, abs=1e-12)


def test_heavytail_check():
    ok = classical.EntropyResult(float("inf"), classical.EntropyStatus.DECLARED_DIVERGENT, wl.SEQUENCE_MAX_TERMS)
    assert wl.check_heavytail(ok) == []
    assert wl.check_heavytail(dataclasses.replace(ok, terms_used=wl.SEQUENCE_MAX_TERMS - 64))
    assert wl.check_heavytail(dataclasses.replace(ok, status=classical.EntropyStatus.TRUNCATED_ESTIMATE))


def test_cli_check_compares_with_the_library(tmp_path):
    calls = wl.write_cli_inputs(tmp_path, seed=4)
    ek = wl.load_entrokit()
    for call in calls[:5]:
        expected = wl.cli_expected(ek, call)
        out = tracing_free_cli(call["argv"])
        assert wl.check_cli(out, expected) == [], call["argv"]
        assert wl.check_cli((3, ""), expected)
        wrong = json.loads(out[1])
        key = next(iter(expected))
        wrong[key] = "something else"
        assert wl.check_cli((0, json.dumps(wrong)), expected)


def test_cli_pass_is_mostly_cap_sized_gpt_calls(tmp_path):
    calls = wl.write_cli_inputs(tmp_path, seed=1)
    kinds = [c["kind"] for c in calls]
    assert sorted(set(kinds)) == ["classical", "gpt", "majorize", "quantum"]
    assert kinds.count("gpt") > len(kinds) / 2
    for c in calls:
        if c["kind"] == "gpt":
            model = fileio.read_model(c["path"])
            assert (model.n_vertices, model.ambient_dim) == (gpt.VERTEX_CAP, gpt.DIM_CAP)


def test_inputs_depend_only_on_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = wl.write_cli_inputs(tmp_path / "a", 9)
    b = wl.write_cli_inputs(tmp_path / "b", 9)
    for x, y in zip(a, b):
        assert x["kind"] == y["kind"] and x.get("functional") == y.get("functional")
        if "path" in x:
            assert Path(x["path"]).read_text() == Path(y["path"]).read_text()
    assert wl.audit_seeds(9, "audit-gpt") == wl.audit_seeds(9, "audit-gpt") != wl.audit_seeds(10, "audit-gpt")
    assert wl.GEOMETRIC_R[0] <= wl.geometric_ratio(9) <= wl.GEOMETRIC_R[1]


def test_tail_has_ten_samples_beyond_it_or_falls_back_to_the_median():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_scaled_time_is_raw_time_at_the_reference_speed_without_inner_samples():
    calls = []
    fixed = speed.Reference(lambda: calls.append(1), 0.5)

    def op():
        signal.setitimer(signal.ITIMER_REAL, 0)  # fire the sampler once, at once
        os.kill(os.getpid(), signal.SIGALRM)
        return "out"

    before = signal.getsignal(signal.SIGALRM)
    out, raw, scaled = speed.timed(op, fixed, every_s=60.0)
    assert out == "out" and len(calls) == 2 * speed.LOOPS_EACH_SIDE + 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert raw >= 0.0 and scaled > raw  # the reference task takes far less than 0.5 s


def test_benchmark_file_and_predictions_name_known_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for entry in json.loads((HERE / "predictions.json").read_text()):
        named = entry["layer"] + entry["moves"] + entry.get("unchanged_metrics", [])
        assert set(named) <= metrics, set(named) - metrics
        assert set(entry["on"] + entry["unchanged_on"]) <= set(wl.WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_exactly_the_declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "classical", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "classical", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
