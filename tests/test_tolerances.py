"""The tolerance ledger: one name per decision, each in the README table and each tested at its edge.

A shared threshold is tested just inside and just outside it, on every
check that reads it, so the checks that share one name also share one edge.
Inside is 0.999 times the tolerance and outside 1.001 times, far wider
than the rounding of the inputs below.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import entrokit
from entrokit import classical, quantum
from entrokit.classical import (
    COMPUTED_FLOOR,
    PRODUCT_TOL,
    SEQUENCE_TOL,
    STRUCTURE_TOL,
    SUM_TOL,
    ZERO_TOL,
    BistochasticMatrix,
    ProbVector,
    SequenceSource,
    bistochastic_from_unitary,
)
from entrokit.gpt import Decomposition
from entrokit.quantum import DensityOperator, Ensemble, eigen_spectrum

SRC = Path(entrokit.__file__).parent
TOLERANCE_NAME = re.compile(r"^[A-Z_]+_(TOL|FLOOR|COND|RESIDUAL)$")
INSIDE, OUTSIDE = 0.999, 1.001


def defined_tolerances() -> dict:
    """Every module-level tolerance assigned in src/entrokit, by name: {name: (module, value)}."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"entrokit.{path.stem}") if path.stem != "__main__" else None
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if TOLERANCE_NAME.match(name):
                    assert name not in found, f"{name} is defined twice"
                    found[name] = (path.stem, getattr(module, name))
    return found


def readme_table() -> dict:
    """The README tolerance table: {name: value}, a value written as a number or as `factor * NAME`."""
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([A-Z_]+)` \| [a-z ]+ \| `([^`]+)` \|", readme, flags=re.MULTILINE)
    cells = dict(rows)
    assert len(cells) == len(rows), "a README tolerance row is repeated"

    def value(cell):
        factor, _, base = cell.rpartition(" * ")
        return float(factor or 1.0) * (value(cells[base]) if base in cells else float(base))

    return {name: value(cell) for name, cell in cells.items()}


def test_readme_tolerance_table_is_every_tolerance_with_its_value():
    defined = {name: value for name, (_, value) in defined_tolerances().items()}
    assert readme_table() == defined


def test_at_most_twelve_independent_tolerance_values():
    # SCREEN_RESIDUAL is derived from RESIDUAL_TOL, and SEQUENCE_TOL names the sequence
    # reader's rounding slack; every other name is one independent value.
    independent = set(defined_tolerances()) - {"SCREEN_RESIDUAL", "SEQUENCE_TOL"}
    assert len(independent) <= 12, sorted(independent)


def test_merged_tolerance_names_are_gone():
    """Each role has one name: the names it went by before are defined nowhere."""
    merged = {
        "ENTRY_TOL": "ZERO_TOL",
        "PARTIAL_SUM_TOL": "ZERO_TOL",
        "RANK_CUTOFF": "ZERO_TOL",
        "WEIGHT_FLOOR": "ZERO_TOL",
        "TRACE_TOL": "SUM_TOL",
        "EIGENVALUE_FLOOR": "COMPUTED_FLOOR",
        "HERMITIAN_TOL": "STRUCTURE_TOL",
        "ROW_SUM_TOL": "STRUCTURE_TOL",
        "STATE_NORM_TOL": "STRUCTURE_TOL",
        "ORTHONORMAL_TOL": "PRODUCT_TOL",
        "RECONSTRUCTION_TOL": "PRODUCT_TOL",
    }
    paths = [p for p in SRC.glob("*.py") if p.stem != "__main__"]
    modules = [entrokit] + [importlib.import_module(f"entrokit.{p.stem}") for p in paths]
    assert [(m.__name__, old) for m in modules for old in merged if hasattr(m, old)] == []
    assert [old for old in merged if any(old in p.read_text(encoding="utf-8") for p in SRC.glob("*.py"))] == []
    assert set(merged.values()) <= set(defined_tolerances())


def test_probability_rules_are_named_not_numbered():
    """Every caller of _probability_rows names its rule; no call passes a threshold."""
    calls = []
    for node in ast.walk(ast.parse((SRC / "classical.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_probability_rows":
            calls.append(ast.unparse(node.args[1]))
    assert len(calls) == 4
    assert all(set(re.findall(r"'(\w+)'", call)) <= set(classical._RULES) and "TOL" not in call for call in calls)


def error_of(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def test_sum_tol_is_the_edge_of_a_total_and_of_a_trace():
    inside, outside = INSIDE * SUM_TOL, OUTSIDE * SUM_TOL
    ProbVector([0.5, 0.5 + inside])
    DensityOperator(np.diag([0.5, 0.5 + inside]))
    total = 0.5 + (0.5 + outside)
    assert error_of(lambda: ProbVector([0.5, 0.5 + outside])) == f"entries sum to {total!r}, outside 1 +/- 1e-09"
    assert error_of(lambda: DensityOperator(np.diag([0.5, 0.5 + outside]))) == (
        f"trace is {total!r}, outside 1 +/- 1e-09"
    )


def test_computed_floor_is_the_edge_of_a_computed_entry_and_of_a_least_eigenvalue():
    inside, outside = INSIDE * COMPUTED_FLOOR, OUTSIDE * COMPUTED_FLOOR
    assert ProbVector.from_computation([1.0 + inside, -inside]).entries[1] == 0.0
    DensityOperator(np.diag([1.0 + inside, -inside]))
    assert error_of(lambda: ProbVector.from_computation([1.0 + outside, -outside])) == (
        f"computed entry {-outside} below floor -1e-09"
    )
    assert error_of(lambda: DensityOperator(np.diag([1.0 + outside, -outside]))) == (
        f"eigenvalue {-outside} below the positivity floor -1e-09"
    )


def test_structure_tol_is_the_edge_of_hermitian_input_stochastic_rows_and_state_norms():
    inside, outside = INSIDE * STRUCTURE_TOL, OUTSIDE * STRUCTURE_TOL
    DensityOperator(np.array([[0.5, inside], [0.0, 0.5]]))
    BistochasticMatrix([[0.5, 0.5 + inside], [0.5, 0.5]])
    Ensemble([1.0], [[1.0 + inside, 0.0]])
    assert error_of(lambda: DensityOperator(np.array([[0.5, outside], [0.0, 0.5]]))) == (
        "matrix is not Hermitian within 1e-10 (deviation 1.001e-10)"
    )
    assert error_of(lambda: BistochasticMatrix([[0.5, 0.5 + outside], [0.5, 0.5]])) == (
        "bistochastic matrix row sums deviate from 1 by 1.001e-10 (> 1e-10)"
    )
    assert error_of(lambda: Ensemble([1.0], [[1.0 + outside, 0.0]])) == (
        "ensemble states must be finite unit vectors within 1e-10"
    )


def test_product_tol_is_the_edge_of_a_unitary_and_of_an_ensemble_reconstruction():
    # [[1, e], [0, 1]] has |U*U - I|_max = e, and |U_ij|^2 rows and columns off 1 by e^2 only.
    inside, outside = INSIDE * PRODUCT_TOL, OUTSIDE * PRODUCT_TOL
    bistochastic_from_unitary([[1.0, inside], [0.0, 1.0]])
    ensemble = Ensemble([0.5, 0.5], np.eye(2))
    assert ensemble.check_reconstructs(DensityOperator(np.diag([0.5 + inside, 0.5 - inside]))) <= PRODUCT_TOL
    assert error_of(lambda: bistochastic_from_unitary([[1.0, outside], [0.0, 1.0]])) == (
        "unitary is not orthonormal within 1e-08 (deviation 1.001e-08)"
    )
    assert error_of(lambda: ensemble.check_reconstructs(DensityOperator(np.diag([0.5 + outside, 0.5 - outside])))) == (
        "ensemble reconstructs rho only to 1.001e-08 (> 1e-08)"
    )


def test_zero_tol_is_the_edge_of_the_eigenvalue_cutoff_the_weight_floor_and_an_input_entry():
    inside, outside = INSIDE * ZERO_TOL, OUTSIDE * ZERO_TOL
    # Inside: an eigenvalue this small is zero, a weight this small is no weight,
    # a negative input entry this small is clipped to zero.
    assert eigen_spectrum(DensityOperator(np.diag([1.0 - inside, inside])))[0].entries[1] == 0.0
    assert quantum._rank(eigen_spectrum(DensityOperator(np.diag([1.0 - inside, inside])))[0]) == 1
    assert error_of(lambda: Decomposition((0, 1, 2), [0.5, 0.5 - inside, inside])) == "weights must exceed 1e-12"
    assert ProbVector([1.0 + inside, -inside]).entries[1] == 0.0
    # Outside: each is kept, or rejected as input.
    assert eigen_spectrum(DensityOperator(np.diag([1.0 - outside, outside])))[0].entries[1] == outside
    assert quantum._rank(eigen_spectrum(DensityOperator(np.diag([1.0 - outside, outside])))[0]) == 2
    assert Decomposition((0, 1, 2), [0.5, 0.5 - outside, outside]).weights[2] == outside
    assert error_of(lambda: ProbVector([1.0 + outside, -outside])) == (
        f"entry {-outside} is below the negativity tolerance -1e-12"
    )


def test_sequence_tol_is_the_edge_of_a_sequence_value_and_of_a_rise():
    inside, outside = INSIDE * SEQUENCE_TOL, OUTSIDE * SEQUENCE_TOL
    assert SequenceSource(lambda idx: np.full(idx.shape, -inside)).values(0, 3).tolist() == [0.0] * 3
    rising = SequenceSource(lambda idx: inside * idx, declared_monotone=True)
    assert rising.values(0, 3).tolist() == [0.0, inside, 2 * inside]
    assert error_of(lambda: SequenceSource(lambda idx: np.full(idx.shape, -outside)).values(0, 3)) == (
        "sequence 'custom' produced a value outside [0, 1]"
    )
    assert error_of(lambda: SequenceSource(lambda idx: outside * idx, declared_monotone=True).values(0, 3)) == (
        "sequence 'custom' is declared monotone but increased"
    )
    # from_vector's monotone probe: a rise of 2^-50 (8.9e-16) is rounding, one of 2^-49 is not.
    assert SequenceSource.from_vector([0.375, 0.375 + 2.0**-50, 0.25 - 2.0**-50]).declared_monotone
    assert not SequenceSource.from_vector([0.375, 0.375 + 2.0**-49, 0.25 - 2.0**-49]).declared_monotone
