import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def haar_conjugated():
    """`conjugated(model, seed)` from tools/compare_decomposition.py: every
    term conjugated by one seeded Haar unitary per vertex."""
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_decomposition.py"
    spec = importlib.util.spec_from_file_location("compare_decomposition", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.conjugated
