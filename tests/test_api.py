"""The package namespace: every exported name exists and is listed once."""

import ast
from collections import Counter
from pathlib import Path

import entrokit


def test_all_names_resolve():
    missing = [name for name in entrokit.__all__ if not hasattr(entrokit, name)]
    assert missing == []


def test_all_names_listed_once():
    repeated = [name for name, count in Counter(entrokit.__all__).items() if count > 1]
    assert repeated == []


def test_one_probability_vector_type():
    assert not hasattr(entrokit, "Spectrum")
    assert "entropy_rows" not in entrokit.__all__
    assert "majorization_margin" in entrokit.__all__


def test_no_import_inside_a_function():
    """Every import sits at module level, so no lazy import cycle can hide."""
    nested = []
    for path in sorted(Path(entrokit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []
