import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hml
from hml.synthesis import FactoredField

MODULES = ["hml.grids", "hml.symbols", "hml.synthesis", "hml.estimator", "hml.verifier", "hml.transport"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_runs_without_scipy():
    # NumPy is the one runtime dependency: with SciPy blocked, every module imports and a tiny pass through
    # every layer runs, importing no SciPy module on the way
    script = Path(__file__).with_name("numpy_only_pass.py")
    code = f"import runpy, sys; sys.modules['scipy'] = None; runpy.run_path({str(script)!r}, run_name='__main__')"
    src = str(Path(hml.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


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
    # only synthesis knows how an entry's scalars are held or made: the estimator asks whether an entry is
    # produced, reads a produced one through ``separated`` (C and T) and ``spatial_fields`` and any other through
    # ``slabs`` or ``spatial_spectrum``, never the held arrays; ``phi.factors`` is the window's, not an entry's.
    # ``separated`` gives the same two items for axis factors and for spatial fields, so no reader can tell the
    # layouts apart
    path = Path(hml.__file__).parent / "estimator.py"
    read = {(getattr(node.value, "id", None), node.attr)
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
    held = {"s", "R", "rows", "factors", "C", "terms", "spectrum"}
    assert {attr for owner, attr in read if owner != "phi"} & held == set()
    assert {("u", "V"), ("u", "rank"), ("u", "produced"), ("u", "separated"), ("u", "spatial_fields"), ("u", "slabs"),
            ("u", "spatial_spectrum")} <= read
    t, x1, x2, x3 = (np.ones((1, n), dtype=complex) for n in (8, 8, 8, 16))
    for terms in ((t, x1, x2, x3), (t, np.ones((1, 8, 8, 16), dtype=complex))):
        u = FactoredField(np.eye(1), C=np.ones((1, 1)), terms=terms)
        assert len(u.separated(0, 8)) == 2 and u.spatial_fields().shape == (1, 8, 8, 16)


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
