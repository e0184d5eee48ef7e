"""Deterministic JSON emission and the on-disk file formats.

Floats are serialized with 17 significant digits so every double round-trips
exactly; keys keep insertion order and the pipeline is RNG-free, so identical
inputs yield byte-identical output.  Lists, tuples and numpy arrays all print
as JSON arrays.  The emitter scans a sequence once, formatting exact ints and
finite exact floats, dict values too, as it meets them: a sequence of scalars
prints on one line, and one holding a container an item per line.

Fractal file: ``{"name": str, "N": int, "k": int, "vertices": int,
"cells": [[int, ...], ...], "weights": [float, ...]?}`` with weights optional
(default all 1.0).  Form file: ``{"N": int, "coefficients": [[j1, j2, c], ...]}``
with ``j1 < j2`` and ``c >= 0``.  Ids and counts must be JSON integers, weights
and coefficients JSON numbers; bools, strings and fractional ids are refused.
"""

from __future__ import annotations

import functools
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
    """Any scalar but an exact ``int`` or finite exact ``float``, which
    ``_emit`` formats as it meets them; those come out the same here."""
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


@functools.lru_cache(maxsize=1024)
def _quoted(key: str) -> str:
    """``key`` as a JSON string; a report repeats a few dozen keys."""
    return json.dumps(key)


def _emit(value, parts, level):
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        pad = "  " * level
        inner = pad + "  "
        sep = "{\n"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            kind = type(item)
            if kind is int:
                parts.append(f"{sep}{inner}{_quoted(key)}: {item}")
            elif kind is float and math.isfinite(item):
                parts.append(f"{sep}{inner}{_quoted(key)}: {item:.17g}")
            else:
                parts.append(f"{sep}{inner}{_quoted(key)}: ")
                _emit(item, parts, level + 1)
            sep = ",\n"
        parts.append(f"\n{pad}}}")
    elif isinstance(value, _SEQUENCES):
        # one scan formats the scalars; a sequence holding a container prints
        # an item per line, the scalars before it as formatted
        items = []
        rest = iter(value)
        for item in rest:
            kind = type(item)
            if kind is int:
                items.append(str(item))
            elif kind is float and math.isfinite(item):
                items.append(format(item, ".17g"))
            elif isinstance(item, _CONTAINERS):
                break
            else:
                items.append(_scalar(item))
        else:
            parts.append("[" + ", ".join(items) + "]")
            return
        pad = "  " * level
        inner = pad + "  "
        sep = "[\n"
        for text in items:
            parts.append(f"{sep}{inner}{text}")
            sep = ",\n"
        parts.append(sep + inner)
        _emit(item, parts, level + 1)
        for item in rest:
            parts.append(",\n" + inner)
            _emit(item, parts, level + 1)
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
