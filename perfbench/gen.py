"""Input generators for the benchmark.

Families: level-m composites of a triple with product weights, the d-simplex
gaskets (Kigami, *Analysis on Fractals*, 2001) and the N-arm Vicsek sets
(Lindstrøm, *Brownian motion on nested fractals*, 1990).  The seeded helpers
relabel interior vertex ids and non-boundary cells, and draw random positive
initial forms; the same ``random.Random`` state always gives the same inputs.
"""

from __future__ import annotations

import random

from eigenform_lab import DirichletForm, FractalTriple, pair_list


def compose(outer: FractalTriple, inner: FractalTriple, outer_w, inner_w, name: str):
    """Place a copy of ``inner`` in every cell of ``outer``.

    Boundary vertex ``p`` of the copy in outer cell ``i`` is glued to
    ``outer.cells[i][p]``; the copy's other vertices are fresh.  Composite
    cell ``(i, c)`` carries weight ``outer_w[i] * inner_w[c]``.  The cells
    ``(j, j)`` come first, so composite cell ``j`` fixes boundary vertex ``j``.
    """
    n = outer.N
    if inner.N != n:
        raise ValueError(f"boundary sizes differ: {outer.N} and {inner.N}")
    base = outer.num_vertices
    fresh = inner.num_vertices - n

    def place(i: int, w: int) -> int:
        return outer.cells[i][w] if w < n else base + i * fresh + (w - n)

    order = [(j, j) for j in range(n)] + [
        (i, c) for i in range(outer.k) for c in range(inner.k) if not (i == c < n)
    ]
    triple = FractalTriple(
        name=name,
        N=n,
        k=len(order),
        num_vertices=base + outer.k * fresh,
        cells=tuple(tuple(place(i, w) for w in inner.cells[c]) for i, c in order),
    )
    return triple, [float(outer_w[i]) * float(inner_w[c]) for i, c in order]


def iterate(triple: FractalTriple, m: int, weights=None):
    """Level-``m`` composite of ``triple`` with product weights."""
    if m < 1:
        raise ValueError("level must be at least 1")
    weights = [1.0] * triple.k if weights is None else [float(w) for w in weights]
    level, level_w = triple, weights
    for depth in range(2, m + 1):
        level, level_w = compose(triple, level, weights, level_w, f"{triple.name}^{depth}")
    return level, level_w


def simplex_gasket(d: int) -> FractalTriple:
    """The d-simplex gasket: cell ``i`` maps vertex ``p`` to the midpoint of
    edge ``{i, p}``; midpoints take ids ``d..`` in canonical pair order."""
    mid = {pair: d + idx for idx, pair in enumerate(pair_list(d))}
    cells = tuple(
        tuple(i if p == i else mid[(min(i, p), max(i, p))] for p in range(d))
        for i in range(d)
    )
    return FractalTriple(name=f"g{d}", N=d, k=d, num_vertices=d + len(mid), cells=cells)


def vicsek(n: int) -> FractalTriple:
    """N-arm Vicsek set: ``n`` corner cells around one centre cell.

    Corner ``j`` holds boundary vertex ``j`` in slot ``j`` and fresh vertices
    elsewhere; centre slot ``j`` is glued to slot ``(j + n // 2) % n`` of
    corner ``j``.  ``vicsek(4)`` is the built-in ``vicsek``.
    """
    corners = []
    next_id = n
    for j in range(n):
        cell = []
        for p in range(n):
            if p == j:
                cell.append(j)
            else:
                cell.append(next_id)
                next_id += 1
        corners.append(tuple(cell))
    centre = tuple(corners[j][(j + n // 2) % n] for j in range(n))
    return FractalTriple(
        name=f"vicsek{n}", N=n, k=n + 1, num_vertices=next_id, cells=(*corners, centre)
    )


def relabel(triple: FractalTriple, weights, rng: random.Random):
    """Random relabelling of interior vertex ids and of the non-boundary
    cell order; boundary ids and the first ``N`` cells stay put."""
    n, nv = triple.N, triple.num_vertices
    interior = list(range(n, nv))
    rng.shuffle(interior)
    new_id = list(range(n)) + interior
    rest = list(range(n, triple.k))
    rng.shuffle(rest)
    order = list(range(n)) + rest
    cells = tuple(tuple(new_id[v] for v in triple.cells[i]) for i in order)
    out = FractalTriple(
        name=triple.name, N=n, k=triple.k, num_vertices=nv, cells=cells
    )
    return out, [float(weights[i]) for i in order]


def random_form(n: int, rng: random.Random) -> DirichletForm:
    """Positive form with every pair coefficient drawn from [0.5, 2]."""
    return DirichletForm(n, {pair: rng.uniform(0.5, 2.0) for pair in pair_list(n)})
