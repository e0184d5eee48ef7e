"""``report`` on generated inputs, byte for byte.

Each input is a generated triple (``perfbench/gen.py``) with its weights,
written to a fractal file as it stands and once more after a relabelling
drawn from ``random.Random(7)``.  The case runs ``report`` in process and
compares its exit code, stdout and stderr with
``golden/report_generated.json``.  The inputs reach past the built-ins:
boundaries of 4 to 9 vertices, unequal weights and three-level composites.

A deliberate output change regenerates the golden file with
``PYTHONPATH=src python tests/test_report_generated.py``.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from eigenform_lab import builtin, cli
from eigenform_lab.jsonio import dumps, triple_to_dict

GOLDEN = Path(__file__).resolve().parent / "golden" / "report_generated.json"
LABELS = [
    "tree_gasket_522",
    "g4",
    "g8",
    "vicsek6",
    "vicsek9",
    "gasket^3",
    "tree_gasket^4",
    "vicsek^3",
]
CASES = sorted(label + suffix for label in LABELS for suffix in ("", "/relabelled"))


def _inputs(gen) -> dict:
    """Triple and weights of every case."""
    tree = builtin("tree_gasket")
    plain = {
        "tree_gasket_522": (tree, [5.0, 2.0, 2.0]),
        "gasket^3": gen.iterate(builtin("gasket"), 3),
        "tree_gasket^4": gen.iterate(tree, 4),
        "vicsek^3": gen.iterate(builtin("vicsek"), 3),
    }
    for triple in (gen.simplex_gasket(4), gen.simplex_gasket(8), gen.vicsek(6), gen.vicsek(9)):
        plain[triple.name] = (triple, [1.0] * triple.k)
    cases = dict(plain)
    for label, (triple, weights) in plain.items():
        cases[f"{label}/relabelled"] = gen.relabel(triple, weights, random.Random(7))
    return cases


def _run(triple, weights, directory: Path) -> dict:
    path = directory / "fractal.json"
    path.write_text(dumps(triple_to_dict(triple, weights)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["report", str(path)])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(gen):
    return _inputs(gen)


def test_golden_lists_every_case(golden, inputs):
    assert sorted(golden) == sorted(inputs) == CASES


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, inputs, golden, tmp_path):
    assert _run(*inputs[case], tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile

    from conftest import _load_perfbench

    cases = _inputs(_load_perfbench("gen"))
    with tempfile.TemporaryDirectory() as tmp:
        doc = {case: _run(*cases[case], Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
