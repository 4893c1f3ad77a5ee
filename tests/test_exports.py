import ast
import importlib
from pathlib import Path

import pytest

import hml

MODULES = ["hml.grids", "hml.symbols", "hml.synthesis", "hml.estimator", "hml.verifier", "hml.transport"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_Q_MATRICES_named_only_in_symbols():
    # the curl generators reach every other module through A_MATRICES or the assembled matrices
    users = []
    for path in sorted(Path(hml.__file__).parent.glob("*.py")):
        if path.name == "symbols.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names += [getattr(node, "id", None), getattr(node, "attr", None)]
            if "Q_MATRICES" in names:
                users.append(f"{path.name}:{node.lineno}")
    assert users == []


def test_coefficient_callables_called_only_in_symbols():
    # the coefficients are called, or taken from the model to be called, only inside its two checked
    # reads, so every other read goes through their domain and bound checks
    callables = {"eps", "eta", "sigma", "grad_eps", "grad_eta"}
    readers = set()

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            called = isinstance(child, ast.Call) and getattr(child.func, "attr", None) in callables
            taken = (path.name == "symbols.py" and isinstance(child, ast.Attribute) and child.attr in callables
                     and getattr(child.value, "id", None) == "self")
            if called or taken:
                readers.add(f"{path.name}:{owner}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner, path)

    for path in sorted(Path(hml.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    assert readers == {"symbols.py:sample_fields", "symbols.py:sample_gradients"}


def test_no_private_names_imported_across_modules():
    private = []
    for path in sorted(Path(hml.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
