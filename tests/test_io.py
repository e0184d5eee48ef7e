import json

import numpy as np
import pytest

from eigenform_lab import DirichletForm, builtin
from eigenform_lab.jsonio import (
    dumps,
    form_to_dict,
    parse_form,
    parse_fractal,
    triple_to_dict,
)
from eigenform_lab.parallel import parallel_map


def test_fractal_roundtrip():
    triple = builtin("vicsek")
    doc = json.loads(dumps(triple_to_dict(triple, weights=[1, 2, 3, 4, 5])))
    again, weights = parse_fractal(doc)
    assert again.cells == triple.cells
    assert again.N == triple.N
    assert np.allclose(weights, [1, 2, 3, 4, 5])


def test_fractal_default_weights():
    _, weights = parse_fractal(json.loads(dumps(triple_to_dict(builtin("gasket")))))
    assert np.allclose(weights, 1.0)


def test_fractal_missing_key():
    with pytest.raises(ValueError, match="missing required key"):
        parse_fractal({"N": 3, "k": 3, "cells": []})


def test_form_roundtrip():
    form = DirichletForm(3, {(0, 1): 0.1, (1, 2): 2.5})
    again = parse_form(json.loads(dumps(form_to_dict(form))))
    assert np.allclose(again.vector(), form.vector())


def test_form_requires_ordered_pairs():
    with pytest.raises(ValueError, match="j1 < j2"):
        parse_form({"N": 3, "coefficients": [[1, 0, 1.0]]})


def test_form_rejects_negative():
    with pytest.raises(ValueError):
        parse_form({"N": 3, "coefficients": [[0, 1, -1.0]]})


def test_dumps_17_digit_floats():
    text = dumps({"x": 0.6})
    assert json.loads(text)["x"] == 0.6
    # sixth-tenths is not a dyadic rational, so all 17 digits show up
    assert "0.59999999999999998" in text


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"x": float("inf")})


def test_dumps_numpy_values():
    doc = dumps({"a": np.float64(1.5), "b": np.int64(3), "c": np.arange(3), "d": np.bool_(True)})
    assert json.loads(doc) == {"a": 1.5, "b": 3, "c": [0, 1, 2], "d": True}


def test_parallel_map_matches_serial():
    assert parallel_map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
    assert parallel_map(lambda x: x + 1, range(5)) == list(range(1, 6))
