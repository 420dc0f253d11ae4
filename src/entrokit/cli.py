"""Command line front-end; every computation delegates to the library.

Exit codes: 0 success, 1 unreadable input, 2 schema mismatch or usage error,
3 domain error, 4 audit violations (suppressed by --no-fail).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import audit as audit_suites
from .classical import (
    EntropyStatus,
    ProbVector,
    entropy_finite,
    entropy_sequence,
    majorizes,
    sequence_from_spec,
)
from .fileio import SchemaError, _read_text, parse_state, read_density, read_model, read_vector
from .functionals import BUILTIN_FAMILIES, GRID_DEFAULT, functional_from_spec, validate_functional
from .gpt import gpt_entropy
from .quantum import quantum_entropy

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_VIOLATIONS = 4

JSON_DIGITS = 12
TABLE_DIGITS = 6


def _round_floats(obj):
    """Round floats to 12 significant digits; non-finite values to strings."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(f"{obj:.{JSON_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _cell(value, digits):
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return f"{value:.{digits}g}"
    if value is None or isinstance(value, (bool, dict, list, tuple)):
        return json.dumps(_round_floats(value), sort_keys=True, separators=(",", ":"))
    return str(value)


def _emit(records, fmt):
    """Write records (a list of flat dicts) as JSON lines, CSV, or a table."""
    if fmt == "json":
        for record in records:
            line = json.dumps(
                _round_floats(record), sort_keys=True, separators=(",", ":"), ensure_ascii=False
            )
            sys.stdout.write(line + "\n")
    elif fmt == "csv":
        keys = sorted({k for record in records for k in record})
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        for record in records:
            writer.writerow(_cell(record.get(k, ""), JSON_DIGITS) for k in keys)
    else:
        for record in records:
            for key, value in record.items():
                sys.stdout.write(f"{key}: {_cell(value, TABLE_DIGITS)}\n")
            sys.stdout.write("\n")


def _parse_dims(text: str):
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            return int(lo), int(hi)
        return int(lo), int(lo)
    except ValueError:
        raise ValueError(f"dims must look like '6' or '3:6', got {text!r}") from None


def cmd_entropy(args) -> int:
    F = functional_from_spec(args.functional)
    kind = args.kind
    if args.sequence and (kind != "classical" or args.input):
        raise SchemaError("--sequence takes --kind classical and no input file")
    if sum(s is not None for s in (args.state, args.state_file)) != (kind == "gpt"):
        raise SchemaError(
            "--kind gpt takes exactly one of --state and --state-file; other kinds take neither"
        )
    if args.renormalize and (kind != "classical" or not args.input):
        raise SchemaError("--renormalize takes a classical input file")
    if not (args.input or args.sequence):
        raise SchemaError("entropy needs an input file, or --sequence with --kind classical")
    if not args.sequence and (args.max_terms, args.increment_tol) != (None, None):
        raise SchemaError("--max-terms and --increment-tol take --sequence")
    source = {"input": args.input}
    if kind == "gpt":
        model = read_model(args.input)
        x = parse_state(_read_text(args.state_file) if args.state is None else args.state)
        source["state"] = [float(v) for v in x]
        value, dec = gpt_entropy(model, x, F)
        status, trailing = EntropyStatus.OUTSIDE_HULL, {"decomposition": None}
        if dec is not None:
            status = EntropyStatus.EXACT
            trailing["decomposition"] = {
                "support": list(dec.support),
                "weights": [float(w) for w in dec.weights],
            }
    else:
        if args.sequence:
            src = sequence_from_spec(args.sequence)
            source["input"] = src.name
            given = {"max_terms": args.max_terms, "increment_tol": args.increment_tol}
            result = entropy_sequence(src, F, **{k: v for k, v in given.items() if v is not None})
        elif kind == "classical":
            result = entropy_finite(ProbVector(read_vector(args.input), renormalize=args.renormalize), F)
        else:
            rho = read_density(args.input)
            source["dim"] = rho.dim
            result = quantum_entropy(rho, F)
        value, status = result.value, result.status
        trailing = {"terms_used": result.terms_used, "increment_at_stop": result.increment_at_stop}
    record = {
        "kind": kind, **source, "functional": F.name, "value": value, "status": status.value, **trailing
    }
    _emit([record], args.format)
    return EXIT_OK


def cmd_majorize(args) -> int:
    p, q = read_vector(args.p_file), read_vector(args.q_file)
    q_under_p, p_under_q = majorizes(p, q), majorizes(q, p)
    if q_under_p and p_under_q:
        verdict = "both"
    elif q_under_p:
        verdict = "q ⪯ p"
    elif p_under_q:
        verdict = "p ⪯ q"
    else:
        verdict = "incomparable"
    _emit(
        [
            {
                "p": args.p_file,
                "q": args.q_file,
                "q_majorized_by_p": q_under_p,
                "p_majorized_by_q": p_under_q,
                "verdict": verdict,
            }
        ],
        args.format,
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    dims = _parse_dims(args.dims) if args.dims else None
    report = audit_suites.run_audit(
        args.suite,
        trials=args.trials,
        seed=args.seed,
        dims=dims,
        functional_specs=args.functional or None,
    )
    if args.format == "json":
        records = [dict(record="case", **c.to_dict()) for c in report.cases]
        records.append(dict(record="summary", **report.summary_dict()))
        _emit(records, "json")
    else:
        _emit([report.summary_dict()], args.format)
    if report.violations and not args.no_fail:
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_functional(args) -> int:
    if args.action == "list":
        records = []
        for name in sorted(BUILTIN_FAMILIES):
            entry = BUILTIN_FAMILIES[name]
            records.append(
                {
                    "family": name,
                    "params": ",".join(entry["params"]) or "none",
                    "constraint": entry["constraint"],
                    "case": entry["case"],
                }
            )
        _emit(records, args.format)
        return EXIT_OK
    if not args.spec:
        raise SchemaError("functional validate needs a spec, e.g. renyi:alpha=2")
    F = functional_from_spec(args.spec)
    report = validate_functional(F, grid_size=args.grid_size)
    if args.format == "csv":
        records = [
            {"functional": report.functional, "check": c.name, "passed": c.passed, "margin": c.margin}
            for c in report.checks
        ]
        _emit(records, "csv")
    else:
        _emit([report.to_dict()], args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrokit",
        description="Generalized entropies over classical, quantum, and convex models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("entropy", help="entropy of a distribution, density matrix, or model state")
    pe.add_argument("input", nargs="?", help="input file (optional with --sequence)")
    pe.add_argument("--kind", required=True, choices=["classical", "quantum", "gpt"])
    pe.add_argument("--functional", default="shannon", help="e.g. shannon or renyi:alpha=2")
    pe.add_argument("--sequence", help="sequence family spec, e.g. geometric:r=0.5")
    pe.add_argument("--max-terms", type=int, help="only with --sequence")
    pe.add_argument("--increment-tol", type=float, help="only with --sequence")
    pe.add_argument("--state", help="gpt state as an inline JSON array")
    pe.add_argument("--state-file", help="gpt state file containing a JSON array")
    pe.add_argument("--renormalize", action="store_true", help="rescale classical input to sum 1")
    pe.add_argument("--format", choices=["json", "csv", "table"], default="table")
    pe.set_defaults(func=cmd_entropy)

    pm = sub.add_parser("majorize", help="compare two vectors in the majorization order")
    pm.add_argument("p_file")
    pm.add_argument("q_file")
    pm.add_argument("--format", choices=["json", "csv", "table"], default="table")
    pm.set_defaults(func=cmd_majorize)

    pa = sub.add_parser("audit", help="run a randomized inequality audit suite")
    pa.add_argument("suite", choices=sorted(audit_suites.SUITES))
    pa.add_argument("--trials", type=int, default=None)
    pa.add_argument("--seed", type=int, default=7)
    pa.add_argument("--dims", help="dimension or range, e.g. 6 or 3:6")
    pa.add_argument(
        "--functional",
        action="append",
        help="functional spec; repeat for several (default: built-in set)",
    )
    pa.add_argument("--no-fail", action="store_true", help="exit 0 even with violations")
    pa.add_argument("--format", choices=["json", "csv", "table"], default="table")
    pa.set_defaults(func=cmd_audit)

    pf = sub.add_parser("functional", help="list built-in families or validate a pair")
    pf.add_argument("action", choices=["list", "validate"])
    pf.add_argument("spec", nargs="?", help="functional spec for validate")
    pf.add_argument("--grid-size", type=int, default=GRID_DEFAULT)
    pf.add_argument("--format", choices=["json", "csv", "table"], default="table")
    pf.set_defaults(func=cmd_functional)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
