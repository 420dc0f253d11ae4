"""Exit codes, output formats, and determinism of the command line tool."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from entrokit import cli
from entrokit.audit import DEFAULT_FUNCTIONAL_SPECS
from entrokit.reporting import AuditEntry, build_report

LN2 = 0.6931471805599453


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------- entropy

def test_cli_commands_import_neither_numpy_ma_nor_numpy_random(tmp_path):
    # One fresh interpreter runs entropy on a vector, a density and a GPT model
    # and majorize, the benchmark's cli-files command kinds.  None of them
    # needs either module, so no CLI process pays for its import: np.unique,
    # for one, imports numpy.ma on first use.
    for name, data in {
        "p.json": [0.5, 0.25, 0.25],
        "q.json": [0.4, 0.3, 0.3],
        "rho.json": {"dim": 2, "re": [[0.75, 0.0], [0.0, 0.25]]},
        "model.json": {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
        "state.json": [0.25, 0.125],
    }.items():
        write(tmp_path, name, json.dumps(data))
    calls = [
        ["entropy", "p.json", "--kind", "classical", "--format", "json"],
        ["entropy", "rho.json", "--kind", "quantum", "--format", "json"],
        ["entropy", "model.json", "--kind", "gpt", "--state-file", "state.json", "--format", "json"],
        ["majorize", "p.json", "q.json", "--format", "json"],
    ]
    script = """
import contextlib, io, json, sys
from entrokit import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"exit code not 0: {argv}")
print(json.dumps([name for name in ("numpy.ma", "numpy.random") if name in sys.modules]))
"""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_classical_entropy_json(tmp_path, capsys):
    p = write(tmp_path, "p.json", "[0.5, 0.5]")
    code, out, _ = run(capsys, "entropy", p, "--kind", "classical", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "exact"
    assert abs(record["value"] - LN2) < 1e-10
    assert record["functional"] == "shannon"


def test_classical_entropy_csv_vector(tmp_path, capsys):
    p = write(tmp_path, "p.csv", "0.5\n0.25\n0.25\n")
    code, out, _ = run(capsys, "entropy", p, "--kind", "classical", "--functional", "renyi:alpha=2", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert "value" in header.split(",")
    values = dict(zip(header.split(","), row.split(",")))
    assert abs(float(values["value"]) - (-math.log(0.375))) < 1e-10


def test_json_output_is_byte_identical_across_runs(tmp_path, capsys):
    p = write(tmp_path, "p.json", "[0.2, 0.3, 0.5]")
    argv = ("entropy", p, "--kind", "classical", "--functional", "kaniadakis:kappa=0.5", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sequence_entropy_needs_no_input_file(capsys):
    code, out, _ = run(
        capsys, "entropy", "--kind", "classical", "--sequence", "geometric:r=0.5", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "exact"
    assert abs(record["value"] - 2 * LN2) < 1e-10
    assert record["terms_used"] == 64


def test_sequence_divergence_reported(capsys):
    code, out, _ = run(
        capsys, "entropy", "--kind", "classical", "--sequence", "heavytail",
        "--max-terms", "2000", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "declared_divergent"
    assert record["value"] == "inf"
    assert record["terms_used"] == 2000


def test_quantum_entropy_from_file(tmp_path, capsys):
    rho = write(tmp_path, "rho.json", json.dumps({"dim": 2, "re": [[0.5, 0.25], [0.25, 0.5]]}))
    code, out, _ = run(capsys, "entropy", rho, "--kind", "quantum", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert abs(record["value"] - 0.5623351446188083) < 1e-10
    assert record["dim"] == 2


def test_quantum_entropy_complex_density(tmp_path, capsys):
    rho = write(
        tmp_path,
        "rho.json",
        json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.25], [-0.25, 0.0]]}),
    )
    code, out, _ = run(capsys, "entropy", rho, "--kind", "quantum", "--format", "json")
    assert code == 0
    record = json.loads(out)
    # eigenvalues 3/4, 1/4 again
    assert abs(record["value"] - 0.5623351446188083) < 1e-10


def test_gpt_entropy_inline_state(tmp_path, capsys):
    model = write(
        tmp_path, "square.json",
        json.dumps({"dim": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}),
    )
    code, out, _ = run(
        capsys, "entropy", model, "--kind", "gpt", "--state", "[0.0, 0.0]", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert abs(record["value"] - LN2) < 1e-10
    assert record["decomposition"]["support"] == [0, 3]
    assert record["status"] == "exact"


def test_gpt_entropy_state_file_and_outside(tmp_path, capsys):
    model = write(
        tmp_path, "square.json",
        json.dumps({"dim": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}),
    )
    state = write(tmp_path, "x.json", "[3.0, 0.0]")
    code, out, _ = run(
        capsys, "entropy", model, "--kind", "gpt", "--state-file", state, "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "inf"
    assert record["status"] == "outside_hull"
    assert record["decomposition"] is None


SQUARE = '{"dim": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}'
RHO = '{"dim": 2, "re": [[0.5, 0.25], [0.25, 0.5]], "im": [[0.0, 0.1], [-0.1, 0.0]]}'


@pytest.mark.parametrize(
    "args,expected",
    [
        (
            ["p.json", "--kind", "classical", "--functional", "renyi:alpha=2"],
            '{"functional":"renyi:alpha=2","increment_at_stop":0.0,"input":"p.json","kind":"classical",'
            '"status":"exact","terms_used":3,"value":0.967584026262}\n',
        ),
        (
            ["--kind", "classical", "--sequence", "geometric:r=0.5", "--functional", "tsallis:q=2"],
            '{"functional":"tsallis:q=2","increment_at_stop":5.42101086243e-20,"input":"geometric:r=0.5",'
            '"kind":"classical","status":"exact","terms_used":64,"value":0.666666666667}\n',
        ),
        (
            ["--kind", "classical", "--sequence", "heavytail", "--max-terms", "2000"],
            '{"functional":"shannon","increment_at_stop":0.000817215836984,"input":"heavytail:offset=2",'
            '"kind":"classical","status":"declared_divergent","terms_used":2000,"value":"inf"}\n',
        ),
        (
            ["rho.json", "--kind", "quantum", "--functional", "kaniadakis:kappa=0.5"],
            '{"dim":2,"functional":"kaniadakis:kappa=0.5","increment_at_stop":0.0,"input":"rho.json",'
            '"kind":"quantum","status":"exact","terms_used":2,"value":0.571895233827}\n',
        ),
        (
            ["square.json", "--kind", "gpt", "--state", "[0.2, 0.1]"],
            '{"decomposition":{"support":[0,1,3],"weights":[0.55,0.05,0.4]},"functional":"shannon",'
            '"input":"square.json","kind":"gpt","state":[0.2,0.1],"status":"exact","value":0.845113256843}\n',
        ),
        (
            ["square.json", "--kind", "gpt", "--state", "[3.0, 0.0]"],
            '{"decomposition":null,"functional":"shannon","input":"square.json","kind":"gpt",'
            '"state":[3.0,0.0],"status":"outside_hull","value":"inf"}\n',
        ),
    ],
    ids=["classical-file", "sequence", "divergent-sequence", "quantum-file", "gpt-inside", "gpt-outside"],
)
def test_entropy_json_bytes_are_pinned(tmp_path, monkeypatch, capsys, args, expected):
    write(tmp_path, "p.json", "[0.2, 0.3, 0.5]")
    write(tmp_path, "rho.json", RHO)
    write(tmp_path, "square.json", SQUARE)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "entropy", *args, "--format", "json")
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize(
    "args,expected",
    [
        (
            ["p.json", "--kind", "classical", "--functional", "renyi:alpha=2"],
            "kind: classical\ninput: p.json\nfunctional: renyi:alpha=2\nvalue: 0.967584\n"
            "status: exact\nterms_used: 3\nincrement_at_stop: 0\n\n",
        ),
        (
            ["--kind", "classical", "--sequence", "geometric:r=0.5", "--functional", "tsallis:q=2"],
            "kind: classical\ninput: geometric:r=0.5\nfunctional: tsallis:q=2\nvalue: 0.666667\n"
            "status: exact\nterms_used: 64\nincrement_at_stop: 5.42101e-20\n\n",
        ),
        (
            ["--kind", "classical", "--sequence", "heavytail", "--max-terms", "2000"],
            "kind: classical\ninput: heavytail:offset=2\nfunctional: shannon\nvalue: inf\n"
            "status: declared_divergent\nterms_used: 2000\nincrement_at_stop: 0.000817216\n\n",
        ),
        (
            ["rho.json", "--kind", "quantum", "--functional", "kaniadakis:kappa=0.5"],
            "kind: quantum\ninput: rho.json\ndim: 2\nfunctional: kaniadakis:kappa=0.5\nvalue: 0.571895\n"
            "status: exact\nterms_used: 2\nincrement_at_stop: 0\n\n",
        ),
        (
            ["square.json", "--kind", "gpt", "--state", "[0.2, 0.1]"],
            "kind: gpt\ninput: square.json\nstate: [0.2,0.1]\nfunctional: shannon\nvalue: 0.845113\n"
            'status: exact\ndecomposition: {"support":[0,1,3],"weights":[0.55,0.05,0.4]}\n\n',
        ),
        (
            ["square.json", "--kind", "gpt", "--state", "[3.0, 0.0]"],
            "kind: gpt\ninput: square.json\nstate: [3.0,0.0]\nfunctional: shannon\nvalue: inf\n"
            "status: outside_hull\ndecomposition: null\n\n",
        ),
    ],
    ids=["classical-file", "sequence", "divergent-sequence", "quantum-file", "gpt-inside", "gpt-outside"],
)
def test_entropy_table_is_pinned(tmp_path, monkeypatch, capsys, args, expected):
    # The table keeps each record's key order, which the sorted JSON hides.
    write(tmp_path, "p.json", "[0.2, 0.3, 0.5]")
    write(tmp_path, "rho.json", RHO)
    write(tmp_path, "square.json", SQUARE)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "entropy", *args, "--format", "table")
    assert (code, err) == (0, "")
    assert out == expected


def test_table_format_is_default(tmp_path, capsys):
    p = write(tmp_path, "p.json", "[0.5, 0.5]")
    code, out, _ = run(capsys, "entropy", p, "--kind", "classical")
    assert code == 0
    assert "value: 0.693147" in out


def test_renormalize_flag(tmp_path, capsys):
    p = write(tmp_path, "p.json", "[0.9, 0.3]")
    code, _, _ = run(capsys, "entropy", p, "--kind", "classical")
    assert code == 3
    code, out, _ = run(capsys, "entropy", p, "--kind", "classical", "--renormalize", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.5623351446188083) < 1e-10


# ---------------------------------------------------------------- majorize

def test_majorize_verdicts(tmp_path, capsys):
    a = write(tmp_path, "a.json", "[0.5, 0.3, 0.2]")
    b = write(tmp_path, "b.json", "[0.6, 0.2, 0.2]")
    code, out, _ = run(capsys, "majorize", a, b, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "p ⪯ q"
    assert record["p_majorized_by_q"] is True
    assert record["q_majorized_by_p"] is False

    code, out, _ = run(capsys, "majorize", b, a, "--format", "json")
    assert json.loads(out)["verdict"] == "q ⪯ p"

    code, out, _ = run(capsys, "majorize", a, a, "--format", "json")
    assert json.loads(out)["verdict"] == "both"

    c = write(tmp_path, "c.json", "[0.6, 0.3, 0.1]")
    d = write(tmp_path, "d.json", "[0.55, 0.4, 0.05]")
    code, out, _ = run(capsys, "majorize", c, d, "--format", "json")
    assert json.loads(out)["verdict"] == "incomparable"


def test_majorize_pair_equal_up_to_drift_is_both(tmp_path, capsys):
    # The totals differ by 5e-10, which SUM_TOL accepts: neither vector is above the other.
    a = write(tmp_path, "a.json", "[0.5, 0.5]")
    b = write(tmp_path, "b.json", "[0.5, 0.5000000005]")
    for argv in ((a, b), (b, a)):
        code, out, _ = run(capsys, "majorize", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "both"


def test_majorize_total_mismatch_is_domain_error(tmp_path, capsys):
    a = write(tmp_path, "a.json", "[0.7, 0.2]")
    b = write(tmp_path, "b.json", "[0.5, 0.5]")
    code, _, err = run(capsys, "majorize", a, b)
    assert code == 3
    assert "domain error" in err


def test_majorize_nan_entry_is_domain_error(tmp_path, capsys):
    # json accepts the NaN literal, so the file parses and the comparison fails
    a = write(tmp_path, "a.json", "[NaN, 0.5]")
    b = write(tmp_path, "b.json", "[0.5, 0.5]")
    for argv in ((a, b), (b, a)):
        code, out, err = run(capsys, "majorize", *argv, "--format", "json")
        assert code == 3
        assert err.startswith("domain error:")
        assert out == ""


# ------------------------------------------------------------------- audit

def test_audit_json_lines(capsys):
    code, out, _ = run(capsys, "audit", "schur", "--trials", "4", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["record"] == "summary"
    assert records[-1]["violations"] == 0
    assert all(r["record"] == "case" for r in records[:-1])
    assert len(records) > 1


def test_audit_csv_summary_only(capsys):
    code, out, _ = run(capsys, "audit", "pinching", "--trials", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "violations" in lines[0].split(",")


def test_audit_dims_and_functional_flags(capsys):
    code, out, _ = run(
        capsys, "audit", "schur", "--trials", "3", "--dims", "3:4",
        "--functional", "shannon", "--functional", "renyi:alpha=2", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    dims = {r["dim"] for r in records if r["record"] == "case" and r["dim"]}
    assert dims <= {3, 4}
    functionals = {r["functional"] for r in records if r["record"] == "case" and r["functional"]}
    assert functionals <= {"shannon", "renyi:alpha=2"}


def test_audit_seed_determinism(capsys):
    argv = ("audit", "ensemble", "--trials", "6", "--seed", "5", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_audit_violations_exit_code(monkeypatch, capsys):
    bad = build_report(
        "schur", trials=1, seed=7, tolerance=1e-9,
        entries=[AuditEntry.check(case="fail", margin=-1.0, tolerance=1e-9)],
    )
    monkeypatch.setattr(cli.audit_suites, "run_audit", lambda *a, **k: bad)
    code, out, _ = run(capsys, "audit", "schur", "--format", "json")
    assert code == 4
    code, _, _ = run(capsys, "audit", "schur", "--no-fail", "--format", "json")
    assert code == 0


def test_audit_bad_dims_is_domain_error(capsys):
    code, _, err = run(capsys, "audit", "schur", "--trials", "2", "--dims", "x:y")
    assert code == 3


@pytest.mark.parametrize("suite,trials", [("schur", "0"), ("ensemble", "-3")])
def test_audit_trials_below_one_is_domain_error(capsys, suite, trials):
    code, out, err = run(capsys, "audit", suite, "--trials", trials)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:")


@pytest.mark.parametrize("suite", ["schur", "ensemble"])
def test_audit_negative_seed_is_domain_error(capsys, suite):
    code, out, err = run(capsys, "audit", suite, "--trials", "2", "--seed", "-1")
    assert code == 3
    assert out == ""
    assert err == "domain error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("dims", ["1", "7"])
def test_audit_gpt_dims_outside_the_cap_is_domain_error(capsys, dims):
    code, out, err = run(capsys, "audit", "gpt-argmin", "--trials", "2", "--dims", dims)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: gpt-argmin dims")


# -------------------------------------------------------------- functional

def test_functional_list(capsys):
    code, out, _ = run(capsys, "functional", "list", "--format", "json")
    assert code == 0
    families = [json.loads(line)["family"] for line in out.strip().splitlines()]
    assert families == ["kaniadakis", "renyi", "shannon", "tsallis"]


def test_functional_list_csv_quotes_commas(capsys):
    # the renyi constraint contains a comma, so the row must parse back
    # to the same number of fields as the header
    code, out, _ = run(capsys, "functional", "list", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert all(len(row) == len(header) for row in rows[1:])
    renyi = dict(zip(header, rows[2]))
    assert renyi["family"] == "renyi"
    assert "alpha != 1" in renyi["constraint"]


@pytest.mark.parametrize("spec", DEFAULT_FUNCTIONAL_SPECS)
def test_functional_validate_pass(capsys, spec):
    code, out, _ = run(capsys, "functional", "validate", spec, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True
    assert record["grid_size"] == 1001


def test_functional_validate_prints_a_zero_phi_at_zero_margin_unsigned(capsys):
    code, out, _ = run(capsys, "functional", "validate", "shannon", "--format", "json")
    assert code == 0
    assert '{"margin":0.0,"name":"phi_at_zero","passed":true}' in out


@pytest.mark.parametrize("grid_size", ["2", "200000"])
def test_functional_validate_grid_outside_its_bounds_is_domain_error(capsys, grid_size):
    code, out, err = run(capsys, "functional", "validate", "shannon", "--grid-size", grid_size)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: grid_size must lie in")


def test_functional_validate_rejects_alpha_one(capsys):
    code, _, err = run(capsys, "functional", "validate", "renyi:alpha=1")
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("functional", "validate", "renyi:alpha=nan"),
        ("functional", "validate", "tsallis:q=inf"),
        ("functional", "validate", "kaniadakis:kappa=nan"),
        ("entropy", "--kind", "classical", "--sequence", "heavytail:offset=inf"),
        ("entropy", "--kind", "classical", "--sequence", "heavytail:offset=2.9"),
        # an infinite tolerance once stopped this divergent stream after 64
        # terms and printed a finite truncated estimate with exit 0
        ("entropy", "--kind", "classical", "--sequence", "heavytail",
         "--increment-tol", "inf", "--format", "json"),
        ("entropy", "--kind", "classical", "--sequence", "heavytail", "--increment-tol", "nan"),
    ],
)
def test_non_finite_or_non_integer_spec_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("domain error:")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv,key",
    [
        (("entropy", "--kind", "classical", "--sequence", "geometric:r=0.5,r=0.9", "--format", "json"), "r"),
        (("functional", "validate", "renyi:alpha=2,alpha=0.5"), "alpha"),
    ],
)
def test_repeated_spec_parameter_is_domain_error(capsys, argv, key):
    # The last value once won: the geometric run reported "geometric:r=0.9" and exited 0.
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("domain error:") and f"repeated parameter {key!r}" in err
    assert out == ""


def test_non_finite_density_file_is_domain_error(tmp_path, capsys):
    # json accepts the NaN literal, so the file parses and the state is invalid
    bad = write(tmp_path, "rho.json", '{"dim": 2, "re": [[0.5, NaN], [NaN, 0.5]]}')
    code, _, err = run(capsys, "entropy", bad, "--kind", "quantum")
    assert code == 3
    assert err.startswith("domain error:")


@pytest.mark.parametrize("state", ["[0.0]", "[NaN, 0.0]"], ids=["dimension", "nan"])
def test_gpt_state_of_the_wrong_dimension_or_not_finite_is_domain_error(tmp_path, capsys, state):
    model = write(tmp_path, "square.json", SQUARE)
    code, out, err = run(capsys, "entropy", model, "--kind", "gpt", "--state", state)
    assert (code, out) == (3, "")
    assert err.startswith("domain error: state ")


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]', "invalid JSON"),
        ('{"dim": 2, "re": [[0.5, 0.0], [0.5]]}', "'re' rows must have equal lengths"),
        ('{"dim": 2, "re": [[1' + "0" * 399 + ', 0.0], [0.0, 0.5]]}', "'re' entry out of float range"),
    ],
    ids=["invalid-json", "ragged", "400-digit"],
)
def test_malformed_density_file_is_schema_error(tmp_path, capsys, text, message):
    # JSON reads 1e400 as inf, a domain error; only an integer literal overflows the float range.
    bad = write(tmp_path, "rho.json", text)
    code, out, err = run(capsys, "entropy", bad, "--kind", "quantum")
    assert (code, out) == (2, "")
    assert err.startswith("schema error: ") and message in err


def test_functional_validate_needs_spec(capsys):
    code, _, err = run(capsys, "functional", "validate")
    assert code == 2


# ------------------------------------------------------------- error paths

def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "entropy", "/nonexistent/p.json", "--kind", "classical")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("call", ["classical", "quantum", "gpt-state-file", "majorize"])
def test_a_file_that_is_not_utf8_is_unreadable(tmp_path, capsys, call):
    # Such bytes were once decoded past the reader and reported as a domain error (exit 3).
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[0.5, 0.5]")
    good, square = write(tmp_path, "p.json", "[0.5, 0.5]"), write(tmp_path, "square.json", SQUARE)
    argv = {
        "classical": ("entropy", str(bad), "--kind", "classical"),
        "quantum": ("entropy", str(bad), "--kind", "quantum"),
        "gpt-state-file": ("entropy", square, "--kind", "gpt", "--state-file", str(bad)),
        "majorize": ("majorize", good, str(bad)),
    }[call]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text\n"


def test_schema_error_is_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "rho.json", json.dumps({"dim": 2}))
    code, _, err = run(capsys, "entropy", bad, "--kind", "quantum")
    assert code == 2
    assert "schema error" in err


def test_vector_schema_error(tmp_path, capsys):
    bad = write(tmp_path, "p.csv", "0.5, 0.5\n")
    code, _, _ = run(capsys, "entropy", bad, "--kind", "classical")
    assert code == 2


@pytest.mark.parametrize(
    "name,text,kind",
    [
        ("p.json", "[true, false]", "classical"),
        ("p.json", '["0.5", "0.5"]', "classical"),
        ("rho.json", '{"dim": 1.9, "re": [[1.0]]}', "quantum"),
        ("rho.json", '{"dim": true, "re": [[1.0]]}', "quantum"),
        ("m.json", '{"dim": true, "vertices": [[0], [1]]}', "gpt"),
        # JSON true/false, numeric strings and null inside matrices and vertex lists
        ("rho.json", '{"dim": 1, "re": [[true]]}', "quantum"),
        ("rho.json", '{"dim": 1, "re": [["1"]]}', "quantum"),
        ("rho.json", '{"dim": 1, "re": [[null]]}', "quantum"),
        ("rho.json", '{"dim": 1, "re": [[1.0]], "im": [[false]]}', "quantum"),
        ("rho.json", '{"dim": 1, "re": [[1.0]], "im": [["0"]]}', "quantum"),
        ("rho.json", '{"dim": 1, "re": [[1.0]], "im": [[null]]}', "quantum"),
        ("m.json", '{"dim": 1, "vertices": [[true], [false]]}', "gpt"),
        ("m.json", '{"dim": 1, "vertices": [["0"], [1]]}', "gpt"),
        ("m.json", '{"dim": 1, "vertices": [[0], [null]]}', "gpt"),
    ],
)
def test_non_numeric_json_values_are_schema_errors(tmp_path, capsys, name, text, kind):
    path = write(tmp_path, name, text)
    state = ["--state", "[0.5]"] if kind == "gpt" else []
    code, out, err = run(capsys, "entropy", path, "--kind", kind, *state)
    assert code == 2
    assert err.startswith("schema error:")
    assert out == ""


def test_boolean_inline_state_is_schema_error(tmp_path, capsys):
    model = write(tmp_path, "m.json", json.dumps({"dim": 1, "vertices": [[0.0], [1.0]]}))
    code, _, err = run(capsys, "entropy", model, "--kind", "gpt", "--state", "[true, 0.5]")
    assert code == 2
    assert err.startswith("schema error: state:")


@pytest.mark.parametrize(
    "argv,message",
    [
        # --sequence only for --kind classical without an input file
        (["p.json", "--kind", "classical", "--sequence", "geometric:r=0.5"], "--sequence takes"),
        (["rho.json", "--kind", "quantum", "--sequence", "geometric:r=0.5"], "--sequence takes"),
        (["--kind", "quantum", "--sequence", "geometric:r=0.5"], "--sequence takes"),
        # --state / --state-file only for --kind gpt, and exactly one of them there
        (["p.json", "--kind", "classical", "--state", "[0.5]"], "--kind gpt takes exactly one of"),
        (["rho.json", "--kind", "quantum", "--state-file", "x.json"], "--kind gpt takes exactly one of"),
        (["square.json", "--kind", "gpt", "--state", "[0.0, 0.0]", "--state-file", "x.json"],
         "--kind gpt takes exactly one of"),
        (["square.json", "--kind", "gpt"], "--kind gpt takes exactly one of"),
        # --renormalize only with a classical input file
        (["rho.json", "--kind", "quantum", "--renormalize"], "--renormalize takes"),
        (["square.json", "--kind", "gpt", "--state", "[0.0, 0.0]", "--renormalize"], "--renormalize takes"),
        (["--kind", "classical", "--sequence", "geometric:r=0.5", "--renormalize"], "--renormalize takes"),
        # an input file for every kind (or --sequence for classical)
        (["--kind", "gpt", "--state", "[0.0, 0.0]"], "entropy needs an input file"),
        # --max-terms and --increment-tol only with --sequence, one case per kind
        (["p.json", "--kind", "classical", "--max-terms", "5", "--increment-tol", "0.1"],
         "--max-terms and --increment-tol take --sequence"),
        (["rho.json", "--kind", "quantum", "--max-terms", "5"], "--max-terms and --increment-tol take"),
        (["square.json", "--kind", "gpt", "--state", "[0.0, 0.0]", "--increment-tol", "0.1"],
         "--max-terms and --increment-tol take"),
    ],
)
def test_options_the_kind_would_ignore_are_schema_errors(tmp_path, monkeypatch, capsys, argv, message):
    write(tmp_path, "p.json", "[0.2, 0.3, 0.5]")
    write(tmp_path, "rho.json", RHO)
    write(tmp_path, "square.json", SQUARE)
    write(tmp_path, "x.json", "[0.0, 0.0]")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "entropy", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: {message}")


def test_sequence_options_default_to_the_library_values(capsys):
    argv = ("entropy", "--kind", "classical", "--sequence", "geometric:r=0.9", "--format", "json")
    _, implicit, _ = run(capsys, *argv)
    _, explicit, _ = run(capsys, *argv, "--max-terms", "10000", "--increment-tol", "1e-12")
    assert implicit == explicit
    assert json.loads(implicit)["status"] == "exact"


def test_table_and_csv_spell_none_and_booleans_as_json_does(tmp_path, capsys):
    a = write(tmp_path, "a.json", "[0.5, 0.3, 0.2]")
    b = write(tmp_path, "b.json", "[0.6, 0.2, 0.2]")
    _, out, _ = run(capsys, "majorize", a, b, "--format", "table")
    assert "q_majorized_by_p: false\n" in out and "p_majorized_by_q: true\n" in out
    _, out, _ = run(capsys, "majorize", a, b, "--format", "csv")
    row = next(csv.DictReader(io.StringIO(out)))
    assert (row["q_majorized_by_p"], row["p_majorized_by_q"]) == ("false", "true")
    square = write(tmp_path, "square.json", SQUARE)
    _, out, _ = run(capsys, "entropy", square, "--kind", "gpt", "--state", "[3.0, 0.0]", "--format", "csv")
    assert next(csv.DictReader(io.StringIO(out)))["decomposition"] == "null"
    _, out, _ = run(capsys, "functional", "validate", "shannon", "--format", "csv")
    assert {row["passed"] for row in csv.DictReader(io.StringIO(out))} == {"true"}


def test_usage_errors_exit_2(tmp_path, capsys):
    p = write(tmp_path, "p.json", "[1.0]")
    assert run(capsys, "entropy", p)[0] == 2              # --kind missing
    assert run(capsys, "audit", "nosuch")[0] == 2          # unknown suite choice
    assert run(capsys, "entropy", "--kind", "classical")[0] == 2  # no input at all


def test_rounding_to_twelve_significant_digits(tmp_path, capsys):
    p = write(tmp_path, "p.json", "[0.3333333333333333, 0.6666666666666667]")
    code, out, _ = run(capsys, "entropy", p, "--kind", "classical", "--format", "json")
    assert code == 0
    raw = out.split('"value":')[1].split("}")[0]
    digits = raw.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) <= 12
