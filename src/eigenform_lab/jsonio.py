"""Deterministic JSON emission and the on-disk file formats.

Floats are serialized with 17 significant digits so every double round-trips
exactly; keys keep insertion order and the pipeline is RNG-free, so identical
inputs yield byte-identical output.

Fractal file: ``{"name": str, "N": int, "k": int, "vertices": int,
"cells": [[int, ...], ...], "weights": [float, ...]?}`` with weights optional
(default all 1.0).  Form file: ``{"N": int, "coefficients": [[j1, j2, c], ...]}``
with ``j1 < j2`` and ``c >= 0``.  Ids and counts must be JSON integers, weights
and coefficients JSON numbers; bools, strings and fractional ids are refused.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .forms import DirichletForm
from .fractal import FractalTriple, check_weights

__all__ = [
    "dumps",
    "form_to_dict",
    "load_form",
    "load_fractal",
    "parse_form",
    "parse_fractal",
    "triple_to_dict",
]


_SEQUENCES = (list, tuple, np.ndarray)
_CONTAINERS = (dict, *_SEQUENCES)


def _scalar(value) -> str:
    """Exact floats and ints, most of any document, skip the isinstance chain."""
    if type(value) is int:
        return str(value)
    if type(value) is not float:
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if value is None:
            return "null"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, str):
            return json.dumps(value)
        if not isinstance(value, (float, np.floating)):
            raise TypeError(f"cannot serialize {type(value).__name__}")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value}")
    return format(value, ".17g")


def _flat(seq: list):
    """``seq`` on one line, or None when it holds a container."""
    for item in seq:
        if isinstance(item, _CONTAINERS):
            return None
    return "[" + ", ".join(map(_scalar, seq)) + "]"


def _emit(value, parts, level):
    pad = "  " * level
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        sep = "{\n"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            parts.append(f"{sep}{inner}{json.dumps(key)}: ")
            _emit(item, parts, level + 1)
            sep = ",\n"
        parts.append(f"\n{pad}}}")
    elif isinstance(value, _SEQUENCES):
        seq = list(value)
        line = _flat(seq)
        if line is not None:
            parts.append(line)
            return
        sep = "[\n"
        for item in seq:
            parts.append(sep + inner)
            _emit(item, parts, level + 1)
            sep = ",\n"
        parts.append(f"\n{pad}]")
    else:
        parts.append(_scalar(value))


def dumps(value) -> str:
    """``value`` as JSON text, indented by two spaces per level."""
    parts: list[str] = []
    _emit(value, parts, 0)
    return "".join(parts)


def triple_to_dict(triple: FractalTriple, weights=None) -> dict:
    out = {
        "name": triple.name,
        "N": triple.N,
        "k": triple.k,
        "vertices": triple.num_vertices,
        "cells": [list(cell) for cell in triple.cells],
    }
    if weights is not None:
        out["weights"] = [float(w) for w in weights]
    return out


def _integer(value, key: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"key {key!r} needs an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"key {key!r} needs a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"key {key!r} holds an integer too large for a float") from None


def parse_fractal(data: dict) -> tuple[FractalTriple, np.ndarray]:
    """Build a triple and its weight vector from a decoded fractal file."""
    if not isinstance(data, dict):
        raise ValueError("fractal file must contain a JSON object")
    for key in ("N", "k", "vertices", "cells"):
        if key not in data:
            raise ValueError(f"fractal file is missing required key {key!r}")
    try:
        triple = FractalTriple(
            name=str(data.get("name", "unnamed")),
            N=_integer(data["N"], "N"),
            k=_integer(data["k"], "k"),
            num_vertices=_integer(data["vertices"], "vertices"),
            cells=tuple(tuple(_integer(x, "cells") for x in cell) for cell in data["cells"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed fractal file: {exc}") from exc
    raw = data.get("weights")
    if raw is None:
        # one weight per listed cell: a declared cell count the list does not
        # match allocates nothing, and ``validate`` reports it
        return triple, np.ones(len(triple.cells))
    if not isinstance(raw, list):
        raise ValueError(f"key 'weights' needs a list of numbers, got {raw!r}")
    return triple, check_weights(triple, np.array([_number(w, "weights") for w in raw]))


def _read(path):
    """The decoded JSON document in the file at ``path``.  A document nested
    past the decoder's recursion limit is refused as input, naming the file;
    recursion anywhere else keeps its traceback."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON values nested too deeply to read") from None


def load_fractal(path) -> tuple[FractalTriple, np.ndarray]:
    return parse_fractal(_read(path))


def form_to_dict(form: DirichletForm) -> dict:
    return {
        "N": form.N,
        "coefficients": [[a, b, c] for a, b, c in form.coefficient_items()],
    }


def parse_form(data: dict) -> DirichletForm:
    if not isinstance(data, dict):
        raise ValueError("form file must contain a JSON object")
    for key in ("N", "coefficients"):
        if key not in data:
            raise ValueError(f"form file is missing required key {key!r}")
    rows = data["coefficients"]
    if not isinstance(rows, list):
        raise ValueError(f"key 'coefficients' needs a list of [j1, j2, c] rows, got {rows!r}")
    entries = []
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"coefficient rows must be [j1, j2, c], got {row}")
        a, b = _integer(row[0], "coefficients"), _integer(row[1], "coefficients")
        c = _number(row[2], "coefficients")
        if not a < b:
            raise ValueError(f"coefficient rows need j1 < j2, got {row}")
        entries.append((a, b, c))
    try:
        return DirichletForm(_integer(data["N"], "N"), entries)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed form file: {exc}") from exc


def load_form(path) -> DirichletForm:
    return parse_form(_read(path))
