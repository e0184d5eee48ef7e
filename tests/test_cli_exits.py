"""The CLI exit matrix, byte for byte.

Each case runs one command line and compares its exit code, stdout and
stderr with ``golden/cli_exits.json``.  The cases cover every subcommand on a
disconnected triple, malformed JSON, a missing path, weights that are not a
list, a triple without an eigenform and a text rendering; ``verify``,
``check-uniqueness`` and ``solve --init`` on verified, support-violating,
reducible and malformed forms, including coefficients that are not a list of
rows; and the ``--tol``, ``--max-iter`` and ``--quiet`` options.  Usage errors
are checked apart from the golden file, since argparse words them.

A deliberate output change regenerates the golden file with
``PYTHONPATH=src python tests/test_cli_exits.py``.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

from eigenform_lab import builtin
from eigenform_lab import cli
from eigenform_lab.errors import InternalConsistencyError, SingularInteriorError
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
    for tol in ("nan", "inf"):
        cases[f"solve-tol-{tol}"] = ["solve", "gasket", "--tol", tol]
        cases[f"verify-tol-{tol}"] = ["verify", "gasket", "{dir}/gasket_form.json", "--tol", tol]
        cases[f"report-tol-{tol}"] = ["report", "gasket", "--tol", tol]
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
    "argv",
    [
        ["report"],
        ["report", "gasket", "--format", "xml"],
        ["no-such-command", "gasket"],
        ["report", "gasket", "--max-iter", "abc"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 means numerical failure, so argparse's own exit code is not kept
    assert cli.run(argv) == cli.EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: eigenform-lab")
    assert ": error: " in captured.err.splitlines()[-1]


def test_help_exits_0(capsys):
    assert cli.run(["report", "--help"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: eigenform-lab report")


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (
            SingularInteriorError(7),
            cli.EXIT_NUMERICAL,
            "numerical failure: interior vertex 7 has no conductance path to the boundary\n",
        ),
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


_GASKET_DOC = {"name": "g", "N": 3, "k": 3, "vertices": 6, "cells": [[0, 3, 4], [3, 1, 5], [4, 5, 2]]}
# 10^400 is past the largest float; the declared sizes ask for more memory
# than any address space maps (8e17, 1e18 and 8e18 bytes), so a build before
# the check fails at once instead of being granted
_OVERSIZED = {
    "huge_weight.json": json.dumps(dict(_GASKET_DOC, weights=[1, 10**400, 1])),
    "huge_coefficient.json": json.dumps({"N": 3, "coefficients": [[0, 1, 10**400], [0, 2, 1]]}),
    "huge_k.json": json.dumps(dict(_GASKET_DOC, k=10**17)),
    "huge_vertices.json": json.dumps(dict(_GASKET_DOC, vertices=10**18)),
    "huge_n_form.json": json.dumps({"N": 10**9, "coefficients": [[0, 1, 1.0], [0, 2, 1.0]]}),
}
_TOO_BIG = "holds an integer too large for a float\n"


def _violations(message: str) -> str:
    return dumps({"valid": False, "violations": [message]}) + "\n"


@pytest.mark.parametrize(
    "argv, stdout, stderr",
    [
        (["validate", "huge_weight.json"], "", "error: key 'weights' " + _TOO_BIG),
        (["report", "huge_weight.json"], "", "error: key 'weights' " + _TOO_BIG),
        (["verify", "gasket", "huge_coefficient.json"], "", "error: key 'coefficients' " + _TOO_BIG),
        (
            ["check-uniqueness", "gasket", "huge_coefficient.json"],
            "",
            "error: key 'coefficients' " + _TOO_BIG,
        ),
        (
            ["solve", "gasket", "--init", "huge_coefficient.json"],
            "",
            "error: key 'coefficients' " + _TOO_BIG,
        ),
        (["graphs", "huge_k.json"], _violations(f"expected {10**17} cell maps, found 3"), ""),
        (
            ["graphs", "huge_vertices.json"],
            _violations(f"vertex count must be at most the number of cell entries ({10**18} > 9)"),
            "",
        ),
        (["verify", "gasket", "huge_n_form.json"], "", f"error: form has N={10**9}, triple has N=3\n"),
        (
            ["check-uniqueness", "gasket", "huge_n_form.json"],
            "",
            f"error: form has N={10**9}, triple has N=3\n",
        ),
        (
            ["solve", "gasket", "--init", "huge_n_form.json"],
            "",
            f"error: init form has N={10**9}, triple has N=3\n",
        ),
    ],
)
def test_oversized_inputs_exit_1_at_once(argv, stdout, stderr, tmp_path):
    # a number or a declared size no float or array can hold is an input
    # error, reported before anything is allocated for it
    for name, text in _OVERSIZED.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in _OVERSIZED else a for a in argv]
    start = time.perf_counter()
    got = _run(argv, tmp_path)
    assert time.perf_counter() - start < 1.0
    assert got == {"exit": cli.EXIT_INVALID_INPUT, "stdout": stdout, "stderr": stderr}



# past the decoder's recursion limit, as a whole document and inside "cells"
_DEEP = {
    "deep.json": "[" * 100000 + "]" * 100000,
    "deep_cells.json": '{"N": 3, "k": 3, "vertices": 6, "cells": ' + "[" * 5000 + "]" * 5000 + "}",
}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["validate", "deep.json"], "deep.json"),
        (["report", "deep_cells.json"], "deep_cells.json"),
        (["verify", "gasket", "deep.json"], "deep.json"),
        (["solve", "gasket", "--init", "deep.json"], "deep.json"),
    ],
)
def test_deeply_nested_files_exit_1(argv, name, tmp_path):
    # fractal and form files alike: an input error naming the file, not a traceback
    for file, text in _DEEP.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in _DEEP else a for a in argv]
    assert _run(argv, tmp_path) == {
        "exit": cli.EXIT_INVALID_INPUT,
        "stdout": "",
        "stderr": f"error: {tmp_path / name}: JSON values nested too deeply to read\n",
    }

if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        doc = {case: _run(argv, Path(tmp)) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
