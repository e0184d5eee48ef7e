import json
from pathlib import Path

import pytest

from eigenform_lab import builtin
from eigenform_lab.cli import run
from eigenform_lab.jsonio import dumps, triple_to_dict


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name in ("gasket", "tree_gasket", "vicsek"):
        p = tmp_path / f"{name}.json"
        p.write_text(dumps(triple_to_dict(builtin(name))))
        paths[name] = str(p)
    form = tmp_path / "tree_form.json"
    form.write_text(json.dumps({"N": 3, "coefficients": [[0, 1, 1.0], [0, 2, 1.0]]}))
    paths["tree_form"] = str(form)
    bad_form = tmp_path / "bad_form.json"
    bad_form.write_text(
        json.dumps({"N": 3, "coefficients": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 0.1]]})
    )
    paths["bad_form"] = str(bad_form)
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps({"name": "split", "N": 2, "k": 2, "vertices": 4, "cells": [[0, 2], [3, 1]]})
    )
    paths["broken"] = str(broken)
    paths["tmp"] = tmp_path
    return paths


def test_validate_ok(files, capsys):
    assert run(["validate", files["gasket"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["violations"] == []


def test_validate_broken_exits_1(files, capsys):
    assert run(["validate", files["broken"]]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    assert any("disconnected" in v for v in doc["violations"])


def test_graphs_output(files, capsys):
    assert run(["graphs", files["tree_gasket"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hat_graph"] == [[0, 1], [0, 2]]
    rows = {row["j"]: row for row in doc["components"]}
    assert rows[0]["components"] == [[1], [2]]
    assert rows[1]["c_prime"] == [[0]]
    assert rows[1]["c_second"] == [[2]]


def test_solve_gasket(files, capsys):
    assert run(["solve", files["gasket"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert abs(doc["rho"] - 0.6) < 1e-9


def test_solve_nonconvergent_exits_2(files, capsys, tmp_path):
    weighted = tmp_path / "tree_weighted.json"
    data = triple_to_dict(builtin("tree_gasket"), weights=[1.0, 2.0, 3.0])
    weighted.write_text(dumps(data))
    assert run(["solve", str(weighted)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is False


def test_solve_with_init(files, capsys, tmp_path):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"N": 3, "coefficients": [[0, 1, 2.0], [0, 2, 1.0]]}))
    assert run(["solve", files["tree_gasket"], "--init", str(init)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert doc["iterations"] == 1
    assert abs(doc["rho"] - 0.5) < 1e-12


def test_verify_reports_support_violation(files, capsys):
    # bad candidate: exit stays 0, the verdict itself is the payload
    assert run(["verify", files["tree_gasket"], files["bad_form"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is False
    assert doc["checks"]["support_matches_hat_graph"] is False


def test_check_uniqueness_gasket(files, capsys):
    assert run(["check-uniqueness", files["gasket"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unique"] is True
    assert abs(doc["rho"] - 0.6) < 1e-9
    assert doc["digraph"]["nodes"] == [[0, 0], [1, 0], [2, 0]]


def test_check_uniqueness_with_form(files, capsys):
    assert run(["check-uniqueness", files["tree_gasket"], files["tree_form"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unique"] is False
    witnesses = [set(map(tuple, w)) for w in doc["witnesses"]]
    assert {frozenset(w) for w in witnesses} == {
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 1), (2, 0)}),
    }


def test_check_uniqueness_bad_form_exits_1(files, capsys):
    assert run(["check-uniqueness", files["tree_gasket"], files["bad_form"]]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc


def test_report_pipeline(files, capsys):
    assert run(["report", files["vicsek"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validation"]["valid"] is True
    assert doc["solve"]["converged"] is True
    assert doc["uniqueness"]["unique"] is False
    assert len(doc["perron"]) == 4
    assert doc["perron"][0]["period"] == 1


def test_corpus_lists_builtins(capsys):
    assert run(["corpus"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in doc["builtins"]]
    assert names == ["gasket", "tree_gasket", "vicsek"]


def test_builtin_name_resolution(capsys):
    # a bare builtin name works when no such file exists
    assert run(["check-uniqueness", "gasket"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unique"] is True


def test_output_deterministic(files, capsys):
    run(["report", files["tree_gasket"]])
    first = capsys.readouterr().out
    run(["report", files["tree_gasket"]])
    second = capsys.readouterr().out
    assert first == second


def test_text_format(files, capsys):
    assert run(["solve", files["gasket"], "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "converged: True" in out


def test_missing_file_exits_1(capsys):
    assert run(["validate", "/nonexistent/nowhere.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == 1


def test_float_serialization_roundtrip(files, capsys):
    run(["solve", files["gasket"]])
    out = capsys.readouterr().out
    doc = json.loads(out)
    # 17 significant digits round-trip doubles exactly
    assert doc["rho"] == json.loads(json.dumps(doc["rho"]))


@pytest.mark.parametrize("name", ["gasket", "tree_gasket", "vicsek"])
def test_report_matches_golden(name, capsys):
    # byte for byte; a deliberate output change regenerates these files
    assert run(["report", name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"report_{name}.json").read_text(encoding="utf-8")
