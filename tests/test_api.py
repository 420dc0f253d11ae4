"""The package namespace: every exported name exists and is listed once."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import entrokit
from entrokit import audit, classical


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


def test_uncalled_helpers_are_gone():
    """Helpers no library code called; each rule they restated is written once, beside it."""
    removed = [
        (entrokit.ConvexModel, "is_simplex"),
        (entrokit.Decomposition, "barycenter"),
        (entrokit.ProbVector, "sorted_desc"),
        (entrokit.Ensemble, "reconstruct"),
        (audit, "default_functionals"),
        (audit, "_complex_stack"),
        (entrokit.Ensemble, "size"),
        (classical, "_computed_rows"),
        (classical, "_join"),
    ]
    assert [name for owner, name in removed if hasattr(owner, name)] == []
    assert "default_functionals" not in entrokit.__all__


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


def test_readme_quick_start_runs_as_written(capsys):
    """The README's Python block, run as written; a RuntimeWarning is an error there, as in every test."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_names_no_private_function():
    """The README states the user's contract; internals (_name, module._name) live in docstrings.

    A name counts where it starts a word, a code span, a call or an attribute;
    a subscript such as the _max of |A - A*|_max does not.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"(?:^|(?<=[\s`(\[.@]))_[A-Za-z]\w*", readme, flags=re.MULTILINE) == []


def test_readme_layout_names_the_public_surface():
    """The README's Layout block names every __all__ name, and every public name it shows exists.

    A word with an underscore or a capital letter is a name.  It resolves in
    entrokit, or in a module named on its line, or on the line it continues,
    as SUITES does in entrokit.audit.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```\n", 2)[1]
    assert sorted(set(entrokit.__all__) - set(re.findall(r"\w+", block))) == []
    unresolved, modules = [], []
    for line in block.splitlines():
        modules = [importlib.import_module(f"entrokit.{m}") for m in re.findall(r"(\w+)\.py", line)] or modules
        names = [w for w in re.findall(r"\b[A-Za-z]\w*", line) if "_" in w or not w.islower()]
        unresolved += [w for w in names if not any(hasattr(owner, w) for owner in (entrokit, *modules))]
    assert unresolved == []
