import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenform_lab import DirichletForm, FractalTriple, builtin, find_eigenform


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): marks a test as one acceptance criterion"
    )


_ACCEPTANCE_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        _ACCEPTANCE_RESULTS[marker.args[0]] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if _ACCEPTANCE_RESULTS[label] else "FAIL"
        terminalreporter.write_line(f"criterion {label}: {status}")


@pytest.fixture(scope="session")
def gasket():
    return builtin("gasket")


@pytest.fixture(scope="session")
def tree_gasket():
    return builtin("tree_gasket")


@pytest.fixture(scope="session")
def vicsek():
    return builtin("vicsek")


@pytest.fixture(scope="session")
def twisted_tree_gasket():
    """The tree gasket with its two outer cells attached crosswise: cell 1
    hangs off cell 0's copy of vertex 2 and cell 2 off its copy of vertex 1.
    The image map at vertex 0 swaps the two branches, so both components
    there have period 2."""
    return FractalTriple(
        name="twisted_tree_gasket",
        N=3,
        k=3,
        num_vertices=7,
        cells=((0, 3, 4), (4, 1, 5), (3, 6, 2)),
    )


@pytest.fixture(scope="session")
def five_vertex_triple():
    """A drawn triple whose stable graph is neither the contact graph
    {03, 04, 12, 14, 24} nor complete: one more propagation pass adds 01 and
    02.  At vertex 3 only vertex 0 survives, so 1, 2 and 4 vanish."""
    return FractalTriple(
        name="five_vertex",
        N=5,
        k=6,
        num_vertices=22,
        cells=(
            (0, 8, 5, 19, 15),
            (6, 1, 9, 11, 17),
            (11, 21, 2, 6, 18),
            (10, 19, 20, 3, 13),
            (5, 15, 16, 17, 4),
            (14, 21, 17, 7, 12),
        ),
    )


@pytest.fixture(scope="session")
def gasket_eigenform():
    return DirichletForm.ones(3)


@pytest.fixture(scope="session")
def tree_eigenform():
    return DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0})


@pytest.fixture(scope="session")
def fz1_doc():
    """Fractal file of a four-cell triple on which the Newton search stops at
    rho = 9.2e-4, far from the eigenform that plain steps reach."""
    return {
        "name": "fz1",
        "N": 4,
        "k": 4,
        "vertices": 12,
        "cells": [[0, 8, 7, 9], [4, 1, 7, 8], [11, 5, 2, 10], [10, 6, 9, 3]],
        "weights": [0.118419, 1.94107, 0.727458, 2.47098],
    }


@pytest.fixture(scope="session")
def fz1_plain_limit_doc():
    """Form file of the limit of plain steps ``R(f) / sum R(f)`` from
    all-ones on ``fz1``: an eigenform with rho = 0.11832864782596758."""
    return {
        "N": 4,
        "coefficients": [
            [0, 1, 0.0095292355021968367],
            [0, 3, 0.0036344395473519768],
            [1, 3, 0.7587281218540648],
            [2, 3, 0.22810820309638632],
        ],
    }


@pytest.fixture(scope="session")
def vicsek_eigenform(vicsek):
    result = find_eigenform(vicsek, np.ones(5))
    assert result.converged
    return result.form


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name):
    """Module ``perfbench/<name>.py``, registered as ``perfbench_<name>``."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        path = PERFBENCH / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name while the module executes
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.fixture(scope="session")
def gen():
    """The benchmark's triple generators (``perfbench/gen.py``)."""
    return _load_perfbench("gen")


@pytest.fixture(scope="session")
def tracer():
    """The benchmark's span recorder (``perfbench/tracer.py``)."""
    return _load_perfbench("tracer")


@pytest.fixture(scope="session")
def pipeline():
    """The benchmark's pipeline and gate (``perfbench/pipeline.py``)."""
    return _load_perfbench("pipeline")


@pytest.fixture(scope="session")
def harness():
    """The benchmark's workloads (``perfbench/harness.py``).  It imports its
    sibling modules by bare name, as a script run from ``perfbench/`` does."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load_perfbench("harness")
    finally:
        sys.path.remove(str(PERFBENCH))
