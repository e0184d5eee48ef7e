"""Combinatorial encoding of finitely ramified self-similar boundary structures.

A :class:`FractalTriple` records the boundary vertices, the first-level vertex
set and the cell maps as plain integer tables; everything downstream (energies,
the renormalization map, uniqueness certificates) is built on this data alone,
so no geometric embedding is ever constructed.  Vertex ids ``0..N-1`` are the
boundary vertices, in order, and ``cells[i][p]`` is the id of the image of
boundary vertex ``p`` under cell map ``i``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

import numpy as np

from ._graphutil import labels, pair_index

__all__ = [
    "FractalTriple",
    "builtin",
    "builtin_names",
    "check_weights",
    "uniform_weights",
    "validate",
]


@dataclass(frozen=True)
class FractalTriple:
    """First-level data of a finitely ramified self-similar structure.

    The first ``N`` cells are the boundary cells: cell ``j`` fixes boundary
    vertex ``j`` and no other cell contains it.  ``num_vertices`` counts the
    whole first-level vertex set, boundary included.  Cell entries are kept
    as Python ints: integers and integral floats are accepted, anything else
    (a fractional float, a bool) raises ``ValueError``.  Equality is by
    value; the hash is computed once, when the triple is built, since every
    per-triple cache lookup asks for it.
    """

    name: str
    N: int
    k: int
    num_vertices: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "cells",
            tuple(tuple(_vertex_id(i, v) for v in cell) for i, cell in enumerate(self.cells)),
        )
        key = (self.name, self.N, self.k, self.num_vertices, self.cells)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt on unpickling: a string's hash differs between processes
        return FractalTriple, (self.name, self.N, self.k, self.num_vertices, self.cells)

    @functools.cached_property
    def cell_array(self) -> np.ndarray:
        """The cells as one read-only ``(k, N)`` intp array, row ``i`` being
        cell ``i``.  Only for a triple whose cells all hold ``N`` ids."""
        out = np.array(list(chain.from_iterable(self.cells)), dtype=np.intp)
        out = out.reshape(len(self.cells), self.N)
        out.flags.writeable = False
        return out


def _vertex_id(cell: int, v) -> int:
    """Vertex id ``v`` of cell ``cell`` as a Python int."""
    if type(v) is int:
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"cell {cell} holds {v!r}, which is not an integer vertex id")


def validate(triple: FractalTriple) -> list[str]:
    """Check every structural invariant of a triple.

    Returns the list of violated invariants, each with the offending indices;
    an empty list means the triple is valid.  Violations are data, not
    failures, so nothing is raised.
    """
    v: list[str] = []
    n, k, nv = triple.N, triple.k, triple.num_vertices
    if n < 2:
        v.append(f"boundary count must be at least 2 (N={n})")
    if k < n:
        v.append(f"cell count must be at least the boundary count (k={k}, N={n})")
    if nv < n:
        v.append(f"vertex count must be at least the boundary count ({nv} < {n})")
    if not v and nv > k * n:
        # then some ids occur in no cell, and listing each would take
        # memory and output in proportion to the vertex count
        v.append(f"vertex count must be at most the number of cell entries ({nv} > {k * n})")
    if len(triple.cells) != k:
        v.append(f"expected {k} cell maps, found {len(triple.cells)}")
        return v

    shape_ok = not v
    for i, cell in enumerate(triple.cells):
        if len(cell) != n:
            v.append(f"cell {i} has {len(cell)} entries, expected {n}")
            shape_ok = False
            continue
        for x in cell:
            if not 0 <= x < nv:
                v.append(f"cell {i} contains out-of-range vertex id {x}")
                shape_ok = False
    if not shape_ok:
        return v

    cells = triple.cell_array
    # two slots of one cell holding the same id
    a, b = pair_index(n)
    for i in np.flatnonzero((cells[:, a] == cells[:, b]).any(axis=1)).tolist():
        v.append(f"cell {i} is not injective: {list(triple.cells[i])}")
    # the cells other than its own that hold each boundary id
    stray = [set() for _ in range(n)]
    rows, slots = np.nonzero(cells < n)
    for i, j in zip(rows.tolist(), cells[rows, slots].tolist()):
        if i != j:
            stray[j].add(i)
    for j, fixed in enumerate(cells.diagonal().tolist()):
        if fixed != j:
            v.append(f"fixed-point condition at j={j}: cells[{j}][{j}] == {fixed}")
        v.extend(
            f"boundary vertex {j} appears in cell {i}; it may only appear in cell {j}"
            for i in sorted(stray[j])
        )
    covered = np.zeros(nv, dtype=bool)
    covered[cells] = True
    v.extend(f"vertex id {x} does not occur in any cell" for x in np.flatnonzero(~covered).tolist())

    # every cell's ids joined to its first one: the cells form one connected
    # cell graph exactly when their first ids share a root
    root = labels(nv, np.repeat(cells[:, 0], n - 1), cells[:, 1:].ravel())
    if np.count_nonzero(root[cells[:, 0]] != root[cells[0, 0]]):
        v.append("cell graph disconnected")
    return v


def uniform_weights(triple: FractalTriple) -> np.ndarray:
    return np.ones(triple.k)


def check_weights(triple: FractalTriple, weights) -> np.ndarray:
    """Validate a weight vector: one strictly positive finite entry per cell."""
    r = np.asarray(weights, dtype=float)
    if r.shape != (triple.k,):
        raise ValueError(f"expected {triple.k} weights, got shape {r.shape}")
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ValueError("weights must be strictly positive finite reals")
    return r


# Canonical built-in structures.  The identification pattern of each table is
# what matters; ids are assigned boundary-first, then cell by cell.
_BUILTINS: Mapping[str, dict] = {
    "gasket": dict(
        N=3,
        k=3,
        num_vertices=6,
        cells=((0, 3, 4), (3, 1, 5), (4, 5, 2)),
    ),
    # gasket with the midpoint between cells 1 and 2 split in two, so those
    # cells no longer touch
    "tree_gasket": dict(
        N=3,
        k=3,
        num_vertices=7,
        cells=((0, 3, 4), (3, 1, 5), (4, 6, 2)),
    ),
    # four corner cells around one central cell; each corner cell meets the
    # center in a single vertex and corner cells are pairwise disjoint
    "vicsek": dict(
        N=4,
        k=5,
        num_vertices=16,
        cells=(
            (0, 4, 5, 6),
            (7, 1, 8, 9),
            (10, 11, 2, 12),
            (13, 14, 15, 3),
            (5, 9, 10, 14),
        ),
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(name: str) -> FractalTriple:
    """Return one of the canonical built-in triples by name."""
    try:
        entry = _BUILTINS[name]
    except KeyError:
        known = ", ".join(_BUILTINS)
        raise ValueError(f"unknown builtin fractal {name!r}; available: {known}") from None
    return FractalTriple(name=name, **entry)
