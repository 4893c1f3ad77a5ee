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
    # other modules read the model through its checked methods (sample_fields, speed) or the *_at reads
    callables = {"eps", "eta", "sigma", "grad_eps", "grad_eta"}
    callers = []
    for path in sorted(Path(hml.__file__).parent.glob("*.py")):
        if path.name == "symbols.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in callables:
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_no_private_names_imported_across_modules():
    private = []
    for path in sorted(Path(hml.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
