import importlib

import pytest

MODULES = ["hml.grids", "hml.symbols", "hml.synthesis", "hml.estimator", "hml.verifier", "hml.transport"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
