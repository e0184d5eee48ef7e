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


_GASKET_FILE = {
    "name": "g",
    "N": 3,
    "k": 3,
    "vertices": 6,
    "cells": [[0, 3, 4], [3, 1, 5], [4, 5, 2]],
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("vertices", 6.9),
        ("N", True),
        ("k", "3"),
        ("cells", [[0, 3.7, 4], [3, 1, 5], [4, 5, 2]]),
        ("weights", [1.0, True, 1.0]),
        ("weights", [1.0, "1.0", 1.0]),
        ("weights", {"a": 1}),
        ("weights", 5),
    ],
)
def test_fractal_refuses_coerced_values(key, value):
    data = dict(_GASKET_FILE, **{key: value})
    with pytest.raises(ValueError, match=f"key '{key}'"):
        parse_fractal(data)


def test_fractal_accepts_integral_numbers():
    triple, _ = parse_fractal(dict(_GASKET_FILE, vertices=6.0))
    assert triple.num_vertices == 6 and isinstance(triple.num_vertices, int)


@pytest.mark.parametrize(
    "row, key",
    [
        ([0, 1.9, 1.0], "coefficients"),
        (["0", 1, 1.0], "coefficients"),
        ([0, 1, True], "coefficients"),
        ([0, 1, "1.0"], "coefficients"),
    ],
)
def test_form_refuses_coerced_values(row, key):
    with pytest.raises(ValueError, match=f"key '{key}'"):
        parse_form({"N": 3, "coefficients": [row]})


@pytest.mark.parametrize(
    "coefficients, match",
    [
        (5, "key 'coefficients'"),
        ({"0": [0, 1, 1.0]}, "key 'coefficients'"),
        ([5], "coefficient rows"),
        ([[0, 1, 1.0], "abc"], "coefficient rows"),
    ],
)
def test_form_refuses_malformed_structure(coefficients, match):
    with pytest.raises(ValueError, match=match):
        parse_form({"N": 3, "coefficients": coefficients})


def test_form_refuses_boolean_size():
    with pytest.raises(ValueError, match="key 'N'"):
        parse_form({"N": True, "coefficients": []})


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
    assert dumps({"e": {}, "f": None}) == '{\n  "e": {},\n  "f": null\n}'


def test_parallel_map_matches_serial():
    assert parallel_map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
    assert parallel_map(lambda x: x + 1, range(5)) == list(range(1, 6))
