"""Purely combinatorial machinery on boundary graphs.

A boundary graph lives on the ids ``0..N-1``.  Lifting its edges through every
cell map produces a graph on the first-level vertices; propagating boundary
adjacency through interior-only paths of that lift defines a monotone operator
on boundary graphs whose least fixed point above the contact graph is the
common support of every eigenform.  The same lift also drives the per-vertex
component bookkeeping (component permutation, periods, and the split of each
component into a positive part and a vanishing part) that the uniqueness
certificate consumes.

Every operator here reads one labelling of a lifted graph.  The lift is one
array of edge ends, ``cells[:, pairs]``; one array labelling
(``_graphutil.labels``) gives the connected components of its interior
edges, and each boundary id touches the components of its lifted
neighbours.  The labelling is cached per (triple, graph), and the contact
graph, the stable graph and its component data per triple, since they depend
on nothing else.  The operators assume a triple that passes
:func:`~eigenform_lab.fractal.validate` (the CLI validates first); in
particular boundary id ``j`` lies in cell ``j`` only, so no lifted edge joins
two boundary ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._graphutil import adjacency, labels, split_components, sorted_edge
from .errors import InternalConsistencyError
from .fractal import FractalTriple

__all__ = [
    "BoundaryGraph",
    "ComponentData",
    "complete_graph",
    "components",
    "hat_graph",
    "lambda_graph",
    "tilde_graph",
]


@dataclass(frozen=True)
class BoundaryGraph:
    """Loop-free undirected graph on the boundary ids ``0..N-1``.

    Its neighbour tuples are built on first use and kept on the instance,
    out of ``__eq__``, ``__hash__`` and ``repr``, so the per-vertex component
    data of one graph share one build.
    """

    N: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "BoundaryGraph":
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop edge ({a},{b}) not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for N={n}")
            norm.add(sorted_edge(a, b))
        return cls(n, frozenset(norm))

    def has_edge(self, a: int, b: int) -> bool:
        return sorted_edge(a, b) in self.edges

    @functools.cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        # tuples hold a graph's neighbours in under a fifth of a frozenset's bytes,
        # and the caches keep several graphs per triple alive
        return tuple(tuple(sorted(adj)) for adj in adjacency(self.N, self.edges))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of every id in increasing order, read-only and built
        once per graph."""
        return self._adjacency

    def is_connected(self) -> bool:
        return len(split_components(range(self.N), self.adjacency())) <= 1

    def components_excluding(self, j: int) -> tuple[tuple[int, ...], ...]:
        """Components of the subgraph induced on all boundary ids except ``j``."""
        verts = [x for x in range(self.N) if x != j]
        return tuple(split_components(verts, self.adjacency()))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def complete_graph(n: int) -> BoundaryGraph:
    return BoundaryGraph.from_edges(
        n, [(a, b) for a in range(n) for b in range(a + 1, n)]
    )


def _lift(
    triple: FractalTriple,
    boundary_edges: Iterable[tuple[int, int]],
    cell_indices: Iterable[int] | None = None,
) -> np.ndarray:
    """Ends of every copy of each boundary edge in the chosen cells (all
    cells by default), one row ``[p, q]`` per (cell, edge), cell by cell."""
    pairs = np.array(list(boundary_edges), dtype=np.intp).reshape(-1, 2)
    cells = triple.cell_array
    if cell_indices is not None:
        cells = cells[np.array(list(cell_indices), dtype=np.intp)]
    return cells[:, pairs].reshape(-1, 2)


def _touching(n: int, touch) -> BoundaryGraph:
    """Graph joining the boundary ids whose label sets ``touch`` meet."""
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if touch[a] & touch[b]]
    return BoundaryGraph(n, frozenset(edges))


def _boundary_cell_labels(triple: FractalTriple, ends: np.ndarray) -> list[list[int]]:
    """Component label of every id of each boundary cell, over the graph of
    the lifted edges ``ends``: row ``j`` for cell ``j``."""
    root = labels(triple.num_vertices, ends[:, 0], ends[:, 1])
    return root[triple.cell_array[: triple.N]].tolist()


@functools.lru_cache(maxsize=8)
def _contacts(
    triple: FractalTriple, g: BoundaryGraph
) -> tuple[tuple[tuple[int, ...], ...], tuple[frozenset[int], ...]]:
    """Labels of the interior components of the lift of ``g`` through every
    cell, read at each boundary cell's ids (row ``j`` for cell ``j``), and per
    boundary id the frozenset of labels it touches.

    Boundary id ``j`` lies in cell ``j`` only, so its lifted neighbours are
    the ids ``cells[j][b]`` of its neighbours ``b`` in ``g``, and no lifted
    edge joins two boundary ids: two of them are joined by a path through
    interior vertices exactly when they touch a common label.  Cached per
    (triple, graph); the values are immutable.
    """
    ends = _lift(triple, g.edges)
    near = _boundary_cell_labels(triple, ends[(ends >= triple.N).all(axis=1)])
    touch = tuple(frozenset(near[j][b] for b in adj) for j, adj in enumerate(g.adjacency()))
    return tuple(map(tuple, near)), touch


def lambda_graph(triple: FractalTriple, g: BoundaryGraph) -> BoundaryGraph:
    """Propagate boundary adjacency one level down.

    Two boundary ids become adjacent when the lift of ``g`` joins them by a
    path running through interior vertices only.  The operator is monotone in
    the edge set and preserves connectedness.
    """
    return _touching(triple.N, _contacts(triple, g)[1])


@functools.lru_cache(maxsize=8)
def tilde_graph(triple: FractalTriple) -> BoundaryGraph:
    """Contact graph of the boundary cells.

    Boundary ids ``j1`` and ``j2`` are adjacent when their cells hold vertices
    joined inside the lift of the complete boundary graph through the
    non-boundary cells alone; a shared vertex counts as a zero-length path.
    Cached per triple, like ``hat_graph``, which starts from it.
    """
    n = triple.N
    near = _boundary_cell_labels(triple, _lift(triple, complete_graph(n).edges, range(n, triple.k)))
    return _touching(n, [{lab for h, lab in enumerate(row) if h != j} for j, row in enumerate(near)])


@functools.lru_cache(maxsize=8)
def hat_graph(triple: FractalTriple) -> BoundaryGraph:
    """Least fixed point of the propagation operator above the contact graph.

    Each pass either raises on a lost edge, returns at a fixed point, or adds
    an edge, so the loop ends within ``N(N-1)/2 + 1`` passes.  Cached per
    triple.
    """
    g = tilde_graph(triple)
    while True:
        nxt = lambda_graph(triple, g)
        if not nxt.edges >= g.edges:
            raise InternalConsistencyError(
                "edge propagation lost edges; the triple is not valid"
            )
        if nxt.edges == g.edges:
            return nxt
        g = nxt


@functools.lru_cache(maxsize=8)
def _hat_index(triple: FractalTriple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions in ``pair_list`` order and ends ``a < b`` of the stable-graph edges."""
    rows, cols = np.triu_indices(triple.N, 1)
    hat = hat_graph(triple)
    pos = np.flatnonzero([hat.has_edge(a, b) for a, b in zip(rows.tolist(), cols.tolist())])
    rows, cols = rows[pos], cols[pos]
    for a in (pos, rows, cols):
        a.flags.writeable = False
    return pos, rows, cols


@dataclass(frozen=True)
class ComponentData:
    """Per-vertex component bookkeeping for the stable boundary graph.

    ``components`` partitions the boundary minus vertex ``j``; ``beta`` is the
    permutation induced on them by the image map, ``periods`` its cycle
    lengths.  ``c_prime[s]`` holds the members whose iterated image fills the
    whole component, ``c_second[s]`` those whose iterated image vanishes.
    ``graphs`` and ``report`` print the fields in declaration order, so
    reordering them changes the output that the goldens pin.
    """

    j: int
    components: tuple[tuple[int, ...], ...]
    beta: tuple[int, ...]
    periods: tuple[int, ...]
    c_prime: tuple[tuple[int, ...], ...]
    c_second: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.components)


def _single_images(triple: FractalTriple, j: int, g: BoundaryGraph) -> dict[int, frozenset[int]]:
    """Cell-``j`` image of every boundary id ``j'`` other than ``j``: the ids
    ``h != j`` whose copy ``cells[j][h]`` the lift of ``g`` joins to ``j'``
    through interior vertices."""
    near, touch = _contacts(triple, g)
    cell_labels = [(h, lab) for h, lab in enumerate(near[j]) if h != j]
    return {
        jp: frozenset(h for h, lab in cell_labels if lab in touch[jp])
        for jp in range(triple.N)
        if jp != j
    }


def components(
    triple: FractalTriple, j: int, hat: BoundaryGraph | None = None
) -> ComponentData:
    """Component data at boundary vertex ``j`` of the stable graph ``hat``
    (``hat_graph(triple)`` when omitted).

    Cached per (triple, j, graph), so both call shapes share one immutable
    entry.  Raises :class:`InternalConsistencyError` when the image map fails
    to permute the components, which indicates a bug or an invalid triple.
    """
    if not 0 <= j < triple.N:
        raise ValueError(f"j={j} is not a boundary id")
    return _component_data(triple, j, hat or hat_graph(triple))


# room for every vertex of two 12-vertex boundaries
@functools.lru_cache(maxsize=32)
def _component_data(triple: FractalTriple, j: int, hat: BoundaryGraph) -> ComponentData:
    comps = hat.components_excluding(j)
    singles = _single_images(triple, j, hat)
    for jp, img in singles.items():
        if img and set(img) not in map(set, comps):
            raise InternalConsistencyError(
                f"image of vertex {jp} at j={j} is neither empty nor a full component: {sorted(img)}"
            )

    beta = []
    for s, comp in enumerate(comps):
        img = set()
        for jp in comp:
            img |= singles[jp]
        matches = [t for t, c in enumerate(comps) if set(c) == img]
        if len(matches) != 1:
            raise InternalConsistencyError(
                f"component image at j={j}, s={s} is not a single component: {sorted(img)}"
            )
        beta.append(matches[0])
    if sorted(beta) != list(range(len(comps))):
        raise InternalConsistencyError(f"component map at j={j} is not a bijection: {beta}")

    periods = []
    for s in range(len(comps)):
        t, n = beta[s], 1
        while t != s:
            t = beta[t]
            n += 1
        periods.append(n)

    c_prime, c_second = [], []
    for comp in comps:
        # by both checks above, a member survives exactly when its one-step image is nonempty
        prime, second = [], []
        for jp in comp:
            (prime if singles[jp] else second).append(jp)
        c_prime.append(tuple(prime))
        c_second.append(tuple(second))

    return ComponentData(
        j=j,
        components=comps,
        beta=tuple(beta),
        periods=tuple(periods),
        c_prime=tuple(c_prime),
        c_second=tuple(c_second),
    )
