"""The benchmark tracer still finds and restores every function it wraps."""

import importlib
import pkgutil
import sys

import numpy as np

import eigenform_lab
from eigenform_lab import spectral
from eigenform_lab.renorm import OperatorCache


def _bindings():
    """Every callable bound in the package's modules, by (module, name), and
    the ``OperatorCache`` constructor; every submodule is imported first."""
    for info in pkgutil.iter_modules(eigenform_lab.__path__):
        importlib.import_module(f"eigenform_lab.{info.name}")
    out = {("renorm.OperatorCache", "__init__"): OperatorCache.__init__}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "eigenform_lab" or mod_name.startswith("eigenform_lab."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(mod_name, attr)] = value
    return out


def _perron_passes(monkeypatch):
    """Per ``spectral._perron_blocks`` call, the names of its blocks."""
    passes = []
    real = spectral._perron_blocks

    def counting(mats, cuts, where):
        passes.append([where(i) for i in range(len(cuts))])
        return real(mats, cuts, where)

    monkeypatch.setattr(spectral, "_perron_blocks", counting)
    return passes


def test_tracer_wraps_pipeline_and_restores(tracer, pipeline, tree_gasket, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    passes = _perron_passes(monkeypatch)
    before = _bindings()
    recorder = tracer.Tracer()
    with recorder.installed():
        wrapped = _bindings()
        # tree_gasket is non-unique, so the pipeline reaches explore_nonuniqueness
        outcome = pipeline.run_pipeline(tree_gasket, np.ones(3))
    assert outcome.unique is False
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert any(wrapped[key] is not before[key] for key in before)

    table = tracer.summarize(recorder.spans)
    assert table["uniqueness.orbit_span"]["calls"] > 0
    assert table["uniqueness.orbit_span"]["count"] > 0
    assert table["uniqueness.penalty_form"]["calls"] > 0
    # one Perron pass per digraph, inside stability_digraph's span: neither
    # public Perron function runs
    assert table["uniqueness.stability_digraph"]["calls"] == 1
    assert len(passes) == 1
    assert "spectral.perron_component" not in table
    assert table["renorm.OperatorCache"]["calls"] > 0
    assert list(tmp_path.iterdir()) == []


def test_tracer_sees_the_positive_form_cross_check(tracer, pipeline, gasket, monkeypatch):
    # the gasket's eigenform is positive, so the digraph's one Perron pass
    # covers the single-vertex cross-check's vertices after its nodes, and
    # the pass runs in the digraph's span, not through perron_positive
    passes = _perron_passes(monkeypatch)
    recorder = tracer.Tracer()
    with recorder.installed():
        outcome = pipeline.run_pipeline(gasket, np.ones(3))
    assert outcome.unique is True
    table = tracer.summarize(recorder.spans)
    assert table["uniqueness.stability_digraph"]["calls"] == 1
    assert "spectral.perron_component" not in table
    assert "spectral.perron_positive" not in table
    assert passes == [
        [f"component-restricted operator at (j={j}, s=0)" for j in range(3)]
        + [f"restricted cell operator at j={j}" for j in range(3)]
    ]
