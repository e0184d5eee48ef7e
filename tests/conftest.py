import importlib.util
from pathlib import Path

import numpy as np
import pytest

from eigenform_lab import DirichletForm, builtin, find_eigenform


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
def gasket_eigenform():
    return DirichletForm.ones(3)


@pytest.fixture(scope="session")
def tree_eigenform():
    return DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0})


@pytest.fixture(scope="session")
def vicsek_eigenform(vicsek):
    result = find_eigenform(vicsek, np.ones(5))
    assert result.converged
    return result.form


@pytest.fixture(scope="session")
def gen():
    """The benchmark's triple generators (``perfbench/gen.py``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
