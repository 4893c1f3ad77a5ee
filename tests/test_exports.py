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


def test_no_private_names_imported_across_modules():
    private = []
    for path in sorted(Path(hml.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
