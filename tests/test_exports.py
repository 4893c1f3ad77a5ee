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


def test_verifier_builds_no_polarization_basis():
    # the sigma blocks and the modal fit read the eigenmodes through mode_vectors, so the
    # polarization basis has one implementation, in symbols
    path = Path(hml.__file__).parent / "verifier.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        names.update((getattr(node, "id", None), getattr(node, "attr", None)))
    assert "propagation_basis" not in names
    assert "mode_vectors" in names


def test_estimator_reads_entries_only_through_V_rank_and_separated():
    # only synthesis knows how an entry's rows are held or made; ``phi.factors`` is the window's, not an entry's
    path = Path(hml.__file__).parent / "estimator.py"
    read = {(getattr(node.value, "id", None), node.attr)
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
    assert {attr for owner, attr in read if owner != "phi"} & {"s", "R", "rows", "factors"} == set()
    assert {("u", "V"), ("u", "rank"), ("u", "separated")} <= read


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


def test_test_references_live_in_tests():
    # the measure's defining multiplier and cutoff and the sphere's cell adjacency are references that
    # only tests call, so they live in tests/reference.py and not in the package
    from hml import estimator

    assert not {"fourier_multiplier", "cutoff_multiply"} & set(dir(estimator))
    assert not hasattr(estimator.SphereGrid, "neighborhood")


def test_test_only_wrappers_are_gone():
    # evolved_family is the one exact evolution, and the tests build a ray's end state and the ladder themselves
    from hml import synthesis, transport

    assert not {"exact_constant_evolution", "ladder_epsilons"} & (set(dir(synthesis)) | set(synthesis.__all__))
    assert not hasattr(transport.RayPath, "final")


def test_unread_names_are_gone():
    # rays start from arrays, and no field or argument is kept that no caller reads
    import dataclasses
    import inspect

    from hml import estimator, transport

    assert not hasattr(transport, "RayState") and "RayState" not in transport.__all__
    assert [f.name for f in dataclasses.fields(transport.RayPath)] == ["times", "xs", "zetaPs", "hamiltonian", "status"]
    assert "grid" not in {f.name for f in dataclasses.fields(estimator.HMeasureEstimate)}
    assert "kind" not in inspect.signature(estimator._cross_spectral_measure).parameters
