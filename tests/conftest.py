import importlib.util
from pathlib import Path

import numpy as np
import pytest


def _load(relpath: str):
    """A script of the repository, loaded as a module named after its file."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compare_decomposition():
    """tools/compare_decomposition.py, loaded as a module."""
    return _load("tools/compare_decomposition.py")


@pytest.fixture(scope="session")
def tracing():
    """perfbench/tracing.py, loaded as a module."""
    return _load("perfbench/tracing.py")


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py, loaded as a module."""
    return _load("perfbench/workloads.py")


@pytest.fixture(scope="session")
def haar_conjugated(compare_decomposition):
    """`conjugated(model, seed)`: every term conjugated by one seeded Haar
    unitary per vertex."""
    return compare_decomposition.conjugated


@pytest.fixture(scope="session")
def perturbed(compare_decomposition):
    """`perturbed(model, eps, seed)`: eps times a seeded random Hermitian
    matrix added to every term."""
    return compare_decomposition.perturbed


@pytest.fixture(scope="session")
def rescaled():
    """`rescaled(model, scale, shift=0)`: every term h replaced by
    shift * I + scale * h."""
    from commham import CommutingModel

    def rescale(m, scale, shift=0.0):
        return CommutingModel(m.spec, {p: shift * np.eye(16) + scale * h for p, h in m.terms.items()})

    return rescale
