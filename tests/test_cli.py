import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenform_lab import builtin, cli, graphs
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


def test_fz1_plain_limit_is_unique(tmp_path, capsys, fz1_doc, fz1_plain_limit_doc):
    fractal, form = tmp_path / "fz1.json", tmp_path / "fz1_form.json"
    fractal.write_text(json.dumps(fz1_doc))
    form.write_text(json.dumps(fz1_plain_limit_doc))
    assert run(["check-uniqueness", str(fractal), str(form)]) == 0
    doc = json.loads(capsys.readouterr().out)
    nodes = [[0, 0], [1, 0], [2, 0], [3, 0], [3, 1]]
    assert doc["unique"] is True
    assert doc["digraph"]["nodes"] == nodes
    assert doc["sink_sccs"] == [nodes]


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


def test_report_stable_graph_beyond_the_contact_graph(five_vertex_triple, tmp_path, capsys):
    path = tmp_path / "five.json"
    path.write_text(dumps(triple_to_dict(five_vertex_triple)))
    assert run(["report", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solve"]["converged"] is True
    assert doc["uniqueness"]["unique"] is True


def test_solve_from_a_start_whose_sum_overflows(files, capsys, tmp_path):
    init = tmp_path / "big.json"
    big = [[0, 1, 8e307], [0, 2, 8e307], [1, 2, 8e307]]
    init.write_text(json.dumps({"N": 3, "coefficients": big}))
    assert run(["solve", files["gasket"], "--init", str(init)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert abs(doc["rho"] - 0.6) < 1e-12


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
    for name in ("gasket", "tree_gasket", "vicsek"):
        assert run(["report", files[name], "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "u_bar:" in out and "np." not in out


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


def test_report_matches_golden_twisted(twisted_tree_gasket, tmp_path, capsys):
    # the one golden input with a component period above 1
    path = tmp_path / "twisted.json"
    path.write_text(dumps(triple_to_dict(twisted_tree_gasket)))
    assert run(["report", str(path)]) == 0
    want = (GOLDEN / "report_twisted_tree_gasket.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", ["gasket", "vicsek"])
def test_report_builds_component_data_once(name, capsys):
    # the graphs block and the stability digraph share one build per vertex
    graphs._component_data.cache_clear()
    assert run(["report", name]) == 0
    capsys.readouterr()
    assert graphs._component_data.cache_info().misses == builtin(name).N


@pytest.mark.parametrize("name", ["gasket", "vicsek"])
def test_a_report_of_an_equal_triple_adds_no_cache_misses(name, files, capsys):
    # the file's triple is built apart from the built-in, equal by value, so
    # its hash finds every per-triple entry the first report made
    graphs.hat_graph.cache_clear()
    graphs._component_data.cache_clear()
    assert run(["report", name]) == 0
    misses = [graphs.hat_graph.cache_info().misses, graphs._component_data.cache_info().misses]
    assert misses == [1, builtin(name).N]
    assert run(["report", files[name]]) == 0
    capsys.readouterr()
    assert [
        graphs.hat_graph.cache_info().misses,
        graphs._component_data.cache_info().misses,
    ] == misses


@pytest.mark.parametrize("name", ["gasket", "vicsek"])
def test_report_labels_the_contact_graph_once(name, monkeypatch, capsys):
    # the stable graph starts from the contact graph, and the graphs block
    # prints it: one lift and labelling serves both
    triple = builtin(name)
    contact = graphs.lift_edges(
        triple, graphs.complete_graph(triple.N).edges, range(triple.N, triple.k)
    )
    labelled = []
    real = graphs.labels

    def spy(nv, p, q):
        labelled.append(frozenset(zip(np.minimum(p, q).tolist(), np.maximum(p, q).tolist())))
        return real(nv, p, q)

    monkeypatch.setattr(graphs, "labels", spy)
    graphs.tilde_graph.cache_clear()
    graphs.hat_graph.cache_clear()
    assert run(["report", name]) == 0
    capsys.readouterr()
    assert labelled.count(contact) == 1


def test_a_reused_parser_leaks_nothing_between_runs(monkeypatch, capsys):
    # the parser is built once per process; an option given to one run, or a
    # usage error, must not reach the next run
    built = []
    real = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.build_parser.cache_clear()
    usage = ["report", "gasket", "--format", "xml"]
    assert run(usage) == cli.EXIT_INVALID_INPUT
    first_error = capsys.readouterr().err
    assert built
    count = len(built)
    assert run(["solve", "gasket", "--tol", "1e-6"]) == 0
    assert len(built) == count
    assert run(usage) == cli.EXIT_INVALID_INPUT
    assert capsys.readouterr().err == first_error
    assert run(["report", "gasket"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "report_gasket.json").read_text(encoding="utf-8")
    assert len(built) == count


def test_report_leaves_scipy_unimported():
    # the package declares numpy as its only dependency; a fresh report
    # must not pull scipy in, even where it is installed
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-X", "importtime", "-m", "eigenform_lab.cli", "report", "gasket"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "numpy" in imported
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize("name", ["g8", "vicsek9"])
def test_graphs_matches_golden(name, gen, tmp_path, capsys):
    # the built-ins stop at N = 4; these cover wide-boundary component data
    triple = gen.simplex_gasket(8) if name == "g8" else gen.vicsek(9)
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(triple_to_dict(triple)))
    assert run(["graphs", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"graphs_{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_console_entry_pins_one_blas_thread_before_numpy(preset, want):
    # OpenBLAS reads its thread count when numpy loads; a value the user set
    # is kept.  A fresh interpreter, since this one has numpy loaded already.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, sys, eigenform_lab_main; "
        "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS']); "
        "sys.argv = ['eigenform-lab', 'validate', 'gasket']; eigenform_lab_main.main()"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.splitlines()[0].split() == ["False", want]
