"""The public API carries no tolerance or iteration option beyond the ones
the CLI sets: every other threshold is a module constant, read when the
function runs, so two analyses of one input can never use different values.
The package also keeps the RSS rules that ROADMAP's Settled list records."""

import importlib
import inspect
import re
from pathlib import Path

import eigenform_lab

MODULES = ("forms", "fractal", "graphs", "renorm", "solver", "spectral", "uniqueness")
OPTION = re.compile(r"tol|eps|max_iter|max_retries")
# set by the CLI's --tol and --max-iter
ALLOWED = {"find_eigenform.tol", "find_eigenform.max_iter", "verify_eigenform.tol"}


def _public_callables(module):
    """Every callable in ``__all__``, and the public methods of its classes."""
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_no_tolerance_options_beyond_the_cli_settings():
    found = set()
    for mod in MODULES:
        for name, obj in _public_callables(importlib.import_module(f"eigenform_lab.{mod}")):
            found |= {f"{name}.{p}" for p in inspect.signature(obj).parameters if OPTION.search(p)}
    assert sorted(found - ALLOWED) == []
    assert ALLOWED <= found


def test_only_forms_and_renorm_bind_the_zero_threshold():
    # every other module tests coefficients against zero through forms
    bound = [m for m in MODULES if hasattr(importlib.import_module(f"eigenform_lab.{m}"), "COEFF_EPS")]
    assert bound == ["forms", "renorm"]


def test_the_product_calls_no_np_unique():
    # a first np.unique call adds 0.5-0.8 MB of RSS to a process
    calls = re.compile(r"\b(np|numpy)\.unique\b")
    found = [
        f"{path.name}:{n}"
        for path in sorted(Path(eigenform_lab.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if calls.search(line)
    ]
    assert found == []
