"""The CLI exit matrix, byte for byte.

Each case runs one command line and compares its exit code, stdout and
stderr with ``golden/cli_exits.json``.  The cases cover every subcommand on a
disconnected triple, malformed JSON, a missing path, weights that are not a
list, a triple without an eigenform and a text rendering; ``verify``,
``check-uniqueness`` and ``solve --init`` on verified, support-violating,
reducible and malformed forms, including coefficients that are not a list of
rows; and the ``--tol``, ``--max-iter`` and ``--quiet`` options.

A deliberate output change regenerates the golden file with
``PYTHONPATH=src python tests/test_cli_exits.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from eigenform_lab import builtin
from eigenform_lab import cli
from eigenform_lab.errors import (
    InternalConsistencyError,
    NonConvergenceError,
    SingularInteriorError,
)
from eigenform_lab.jsonio import dumps, triple_to_dict

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_exits.json"
MISSING = "no-such-dir/fractal.json"

_FILES = {
    "disconnected.json": json.dumps(
        {"name": "split", "N": 2, "k": 2, "vertices": 4, "cells": [[0, 2], [3, 1]]}
    ),
    "malformed.json": "{not json",
    "dict_weights.json": json.dumps(
        {
            "name": "g",
            "N": 3,
            "k": 3,
            "vertices": 6,
            "cells": [[0, 3, 4], [3, 1, 5], [4, 5, 2]],
            "weights": {"a": 1},
        }
    ),
    "tree123.json": dumps(triple_to_dict(builtin("tree_gasket"), weights=[1.0, 2.0, 3.0])),
    "tree.json": dumps(triple_to_dict(builtin("tree_gasket"))),
    "gasket_form.json": json.dumps({"N": 3, "coefficients": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]}),
    "verified_form.json": json.dumps({"N": 3, "coefficients": [[0, 1, 1.0], [0, 2, 1.0]]}),
    "support_form.json": json.dumps(
        {"N": 3, "coefficients": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 0.1]]}
    ),
    "reducible_form.json": json.dumps({"N": 3, "coefficients": [[0, 1, 1.0]]}),
    "malformed_form.json": json.dumps({"N": 3, "coefficients": [[0, 1]]}),
    "scalar_form.json": json.dumps({"N": 3, "coefficients": 5}),
    "flat_form.json": json.dumps({"N": 3, "coefficients": [5]}),
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for label, fractal in (
        ("disconnected", "{dir}/disconnected.json"),
        ("malformed", "{dir}/malformed.json"),
        ("dict-weights", "{dir}/dict_weights.json"),
        ("missing", MISSING),
        ("tree123", "{dir}/tree123.json"),
    ):
        cases[f"validate-{label}"] = ["validate", fractal]
        cases[f"graphs-{label}"] = ["graphs", fractal]
        cases[f"solve-{label}"] = ["solve", fractal]
        cases[f"verify-{label}"] = ["verify", fractal, "{dir}/verified_form.json"]
        cases[f"check-uniqueness-{label}"] = ["check-uniqueness", fractal]
        cases[f"report-{label}"] = ["report", fractal]
    text = ["--format", "text"]
    cases["validate-text"] = ["validate", "gasket", *text]
    cases["graphs-text"] = ["graphs", "gasket", *text]
    cases["solve-text"] = ["solve", "gasket", *text]
    cases["verify-text"] = ["verify", "gasket", "{dir}/gasket_form.json", *text]
    cases["check-uniqueness-text"] = ["check-uniqueness", "gasket", *text]
    cases["report-text"] = ["report", "gasket", *text]
    cases["corpus-text"] = ["corpus", *text]
    cases["corpus"] = ["corpus"]
    for form in ("verified", "support", "reducible", "malformed", "scalar", "flat"):
        path = f"{{dir}}/{form}_form.json"
        cases[f"verify-{form}-form"] = ["verify", "{dir}/tree.json", path]
        cases[f"check-uniqueness-{form}-form"] = ["check-uniqueness", "{dir}/tree.json", path]
        cases[f"solve-init-{form}-form"] = ["solve", "{dir}/tree.json", "--init", path]
    cases["verify-missing-form"] = ["verify", "{dir}/tree.json", MISSING]
    for command in ("validate", "solve", "report"):
        cases[f"{command}-tol-0"] = [command, "gasket", "--tol", "0"]
    for command in ("solve", "check-uniqueness", "report"):
        cases[f"{command}-max-iter-0"] = [command, "gasket", "--max-iter", "0"]
    cases["report-quiet"] = ["report", "vicsek", "--quiet"]
    cases["check-uniqueness-quiet"] = ["check-uniqueness", "{dir}/tree.json", "--quiet"]
    return cases


CASES = _cases()


def _write_files(directory: Path) -> None:
    for name, text in _FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def _run(argv: list[str], directory: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([a.format(dir=directory) for a in argv])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_lists_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_exit_matrix(case, golden, tmp_path):
    _write_files(tmp_path)
    assert _run(CASES[case], tmp_path) == golden[case]


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (
            SingularInteriorError(7),
            cli.EXIT_NUMERICAL,
            "numerical failure: interior vertex 7 has no conductance path to the boundary\n",
        ),
        (NonConvergenceError("injected"), cli.EXIT_NUMERICAL, "numerical failure: injected\n"),
        (
            InternalConsistencyError("injected"),
            cli.EXIT_INCONSISTENT,
            "internal consistency failure: injected\n",
        ),
    ],
)
def test_exception_exit_codes(exc, code, err, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "decide_uniqueness", boom)
    assert cli.run(["check-uniqueness", "gasket"]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command", ["check-uniqueness", "report"])
def test_warnings_precede_a_consistency_failure(command, monkeypatch, capsys):
    real = cli.stability_digraph

    def warned(*args, **kwargs):
        dg = real(*args, **kwargs)
        dg.warnings.append("injected borderline")
        return dg

    def boom(*args, **kwargs):
        raise InternalConsistencyError("injected")

    monkeypatch.setattr(cli, "stability_digraph", warned)
    monkeypatch.setattr(cli, "decide_uniqueness", boom)
    assert cli.run([command, "gasket"]) == cli.EXIT_INCONSISTENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "warning: injected borderline\ninternal consistency failure: injected\n"
    )
    assert cli.run([command, "gasket", "--quiet"]) == cli.EXIT_INCONSISTENT
    assert capsys.readouterr().err == "internal consistency failure: injected\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        doc = {case: _run(argv, Path(tmp)) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
