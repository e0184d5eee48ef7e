import json
import random

import numpy as np
import pytest

from eigenform_lab import DirichletForm, builtin, validate
from eigenform_lab import jsonio
from eigenform_lab.jsonio import (
    dumps,
    form_to_dict,
    parse_form,
    parse_fractal,
    triple_to_dict,
)
from eigenform_lab.parallel import parallel_map
from oracles import dumps_recursive


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


@pytest.mark.parametrize(
    "parse, data, message",
    [
        (parse_fractal, [3, 3, 6], "fractal file must contain a JSON object"),
        (parse_form, [[0, 1, 1.0]], "form file must contain a JSON object"),
        (parse_form, {"N": 3}, "form file is missing required key 'coefficients'"),
    ],
)
def test_documents_of_the_wrong_shape_are_refused(parse, data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse(data)


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


@pytest.mark.parametrize("kind", ["fractal", "form"])
def test_an_integer_past_the_largest_float_is_refused(kind):
    # 10^308 is a float; 10^400 is not, and is an input error, not a crash
    def parse(big):
        if kind == "fractal":
            return parse_fractal(dict(_GASKET_FILE, weights=[1, big, 1]))
        return parse_form({"N": 3, "coefficients": [[0, 1, big], [0, 2, 1]]})

    assert 1e308 in (parse(10**308)[1] if kind == "fractal" else parse(10**308).vector())
    key = "weights" if kind == "fractal" else "coefficients"
    with pytest.raises(ValueError, match=f"^key '{key}' holds an integer too large for a float$"):
        parse(10**400)


def test_default_weights_follow_the_listed_cells():
    # a cell count the cell list does not match is validate's to report, and
    # the default weights allocate one entry per listed cell, not per declared one
    triple, weights = parse_fractal(dict(_GASKET_FILE, k=10**17))
    assert triple.k == 10**17 and weights.tolist() == [1.0, 1.0, 1.0]
    assert validate(triple) == [f"expected {10**17} cell maps, found 3"]


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


_CHARS = 'a"\\/\b\f\n\r\t\x00\x1f\x7fé☃\U0001f600\ud800'
_UNSERIALIZABLE = (float("nan"), float("-inf"), {1: 0.5}, {"a": {(0, 1): 2}}, {1, 2}, b"x", 1j)


def _random_scalar(rng: random.Random):
    kind = rng.randrange(9)
    if kind == 0:
        return rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 300)
    if kind == 1:
        return rng.choice((0.0, -0.0, 0.6, 1e-300, 1e300, 5e-324))
    if kind == 2:
        return rng.randint(-(2**70), 2**70)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return rng.choice((np.float64, np.float32))(rng.uniform(-1e6, 1e6))
    if kind == 5:
        return rng.choice((np.int64, np.int8, np.uint32))(rng.randrange(100))
    if kind == 6:
        return np.bool_(rng.random() < 0.5)
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_array(rng: random.Random):
    shape = (rng.randrange(5),) if rng.random() < 0.5 else (rng.randrange(4), rng.randrange(4))
    values = np.array([rng.uniform(-1e3, 1e3) for _ in range(int(np.prod(shape)))])
    return rng.choice((values, values.astype(np.int64), values > 0)).reshape(shape)


def _random_document(rng: random.Random, depth: int = 0):
    """A seeded JSON-like value; about one leaf in 150 cannot be serialized."""
    if rng.random() < 1 / 150:
        return rng.choice(_UNSERIALIZABLE)
    # a container at the top, only scalars from depth 4 on
    kind = rng.randrange(0 if depth else 3, 8) if depth < 4 else 0
    size = rng.randrange(5)
    if kind <= 2:
        return _random_scalar(rng)
    if kind == 3:
        return {f"k{i}{rng.choice(_CHARS)}": _random_document(rng, depth + 1) for i in range(size)}
    if kind == 4:
        return [_random_document(rng, depth + 1) for _ in range(size)]
    if kind == 5:
        return tuple(_random_document(rng, depth + 1) for _ in range(size))
    if kind == 6:
        return [_random_scalar(rng) for _ in range(size)]
    return _random_array(rng)


def _emitted(dump, doc):
    try:
        return dump(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_dumps_matches_the_recursive_emitter():
    # the same text, or the same error type and message, on seeded documents
    rng = random.Random(2024)
    errors = set()
    for _ in range(3000):
        doc = _random_document(rng)
        want = _emitted(dumps_recursive, doc)
        assert _emitted(dumps, doc) == want
        if isinstance(want, tuple):
            errors.add((want[0], " ".join(want[1].split()[:3])))
    # a non-finite float, a non-string key and an unsupported type
    assert errors >= {
        (ValueError, "cannot serialize non-finite"),
        (TypeError, "JSON keys must"),
        (TypeError, "cannot serialize set"),
    }


def test_parallel_map_matches_serial():
    assert parallel_map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
    assert parallel_map(lambda x: x + 1, range(5)) == list(range(1, 6))


def test_dumps_quotes_keys_through_a_bounded_memo():
    # more distinct keys, some needing escapes, than the memo holds
    doc = {f"k{i}é\"\\": [i, 0.5] for i in range(3000)}
    assert dumps(doc) == dumps_recursive(doc)
    info = jsonio._quoted.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
