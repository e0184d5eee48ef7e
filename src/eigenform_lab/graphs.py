"""Purely combinatorial machinery on boundary graphs.

A boundary graph lives on the ids ``0..N-1``.  Lifting its edges through every
cell map produces a graph on the first-level vertices; propagating boundary
adjacency through interior-only paths of that lift defines a monotone operator
on boundary graphs whose least fixed point above the contact graph is the
common support of every eigenform.  The same lift also drives the per-vertex
component bookkeeping (component permutation, periods, and the split of each
component into a positive part and a vanishing part) that the uniqueness
certificate consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from ._graphutil import adjacency, split_components, sorted_edge
from .errors import InternalConsistencyError
from .fractal import FractalTriple

__all__ = [
    "BoundaryGraph",
    "ComponentData",
    "complete_graph",
    "components",
    "hat_graph",
    "l_j_image",
    "lambda_graph",
    "lift_edges",
    "tilde_graph",
]


@dataclass(frozen=True)
class BoundaryGraph:
    """Loop-free undirected graph on the boundary ids ``0..N-1``."""

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

    def adjacency(self) -> list[set[int]]:
        return adjacency(self.N, self.edges)

    def is_connected(self) -> bool:
        from ._graphutil import connected_within

        return connected_within(range(self.N), self.adjacency())

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


def lift_edges(
    triple: FractalTriple,
    boundary_edges: Iterable[tuple[int, int]],
    cell_indices: Iterable[int] | None = None,
) -> frozenset[tuple[int, int]]:
    """Copy each boundary edge into the chosen cells (all cells by default)."""
    cells = range(triple.k) if cell_indices is None else cell_indices
    pairs = list(boundary_edges)
    lifted = set()
    for i in cells:
        cell = triple.cells[i]
        for a, b in pairs:
            lifted.add(sorted_edge(cell[a], cell[b]))
    return frozenset(lifted)


def _interior_reach(triple: FractalTriple, adj: list[set[int]], start: int) -> set[int]:
    """All vertices reachable from ``start`` by paths whose intermediate
    vertices are interior.  Boundary vertices are recorded when hit but never
    walked through; the start itself is expanded."""
    n = triple.N
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y >= n:
                queue.append(y)
    seen.discard(start)
    return seen


def lambda_graph(triple: FractalTriple, g: BoundaryGraph) -> BoundaryGraph:
    """Propagate boundary adjacency one level down.

    Two boundary ids become adjacent when the lift of ``g`` joins them by a
    path running through interior vertices only.  The operator is monotone in
    the edge set and preserves connectedness.
    """
    lifted = lift_edges(triple, g.edges)
    adj = adjacency(triple.num_vertices, lifted)
    out = set()
    for j in range(triple.N):
        for t in _interior_reach(triple, adj, j):
            if t < triple.N and t != j:
                out.add(sorted_edge(j, t))
    return BoundaryGraph(triple.N, frozenset(out))


def tilde_graph(triple: FractalTriple) -> BoundaryGraph:
    """Contact graph of the boundary cells.

    Boundary ids ``j1`` and ``j2`` are adjacent when their cells hold vertices
    joined inside the lift of the complete boundary graph through the
    non-boundary cells alone; a shared vertex counts as a zero-length path.
    """
    n = triple.N
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    lifted = lift_edges(triple, all_pairs, range(n, triple.k))
    adj = adjacency(triple.num_vertices, lifted)
    comps = split_components(range(triple.num_vertices), adj)
    comp_id = {}
    for ci, comp in enumerate(comps):
        for x in comp:
            comp_id[x] = ci
    reach = [{comp_id[x] for x in triple.cells[j]} for j in range(n)]
    edges = {
        (j1, j2)
        for j1 in range(n)
        for j2 in range(j1 + 1, n)
        if reach[j1] & reach[j2]
    }
    return BoundaryGraph(n, frozenset(edges))


def hat_graph(triple: FractalTriple) -> BoundaryGraph:
    """Least fixed point of the propagation operator above the contact graph.

    The edge set grows monotonically inside a finite lattice, so the loop must
    close within ``N(N-1)/2`` rounds; exceeding the cap is a hard failure.
    """
    g = tilde_graph(triple)
    cap = triple.N * (triple.N - 1) // 2 + 1
    for _ in range(cap):
        nxt = lambda_graph(triple, g)
        if not nxt.edges >= g.edges:
            raise InternalConsistencyError(
                "edge propagation lost edges; the triple is not valid"
            )
        if nxt.edges == g.edges:
            return nxt
        g = nxt
    raise InternalConsistencyError("edge propagation failed to reach a fixed point")


@dataclass(frozen=True)
class ComponentData:
    """Per-vertex component bookkeeping for the stable boundary graph.

    ``components`` partitions the boundary minus vertex ``j``; ``beta`` is the
    permutation induced on them by the image map, ``periods`` its cycle
    lengths.  ``c_prime[s]`` holds the members whose iterated image fills the
    whole component, ``c_second[s]`` those whose iterated image vanishes.
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

    def index_of(self, vertex: int) -> int:
        for s, comp in enumerate(self.components):
            if vertex in comp:
                return s
        raise ValueError(f"vertex {vertex} is not in any component for j={self.j}")


def _l_single(
    triple: FractalTriple, adj: list[set[int]], j: int, j_prime: int
) -> frozenset[int]:
    """Boundary ids whose image inside cell ``j`` is reachable from ``j_prime``
    through interior vertices of the lifted stable graph."""
    reach = _interior_reach(triple, adj, j_prime)
    cell = triple.cells[j]
    return frozenset(
        h for h in range(triple.N) if h != j and cell[h] in reach
    )


def _single_images(
    triple: FractalTriple, j: int, hat: BoundaryGraph
) -> dict[int, frozenset[int]]:
    """``_l_single`` image of every boundary id other than ``j``, over the
    lift of the stable graph through every cell."""
    adj = adjacency(triple.num_vertices, lift_edges(triple, hat.edges))
    return {jp: _l_single(triple, adj, j, jp) for jp in range(triple.N) if jp != j}


def components(
    triple: FractalTriple, j: int, hat: BoundaryGraph | None = None
) -> ComponentData:
    """Component data at boundary vertex ``j``.

    Raises :class:`InternalConsistencyError` when the image map fails to
    permute the components or some component has no surviving member; either
    indicates a bug or an invalid triple.
    """
    if not 0 <= j < triple.N:
        raise ValueError(f"j={j} is not a boundary id")
    hat = hat or hat_graph(triple)
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
    for s, comp in enumerate(comps):
        prime, second = [], []
        for jp in comp:
            img = frozenset({jp})
            for _ in range(periods[s]):
                img = frozenset(x for p in img for x in singles[p])
            if not img:
                second.append(jp)
            elif img == frozenset(comp):
                prime.append(jp)
            else:
                raise InternalConsistencyError(
                    f"iterated image of vertex {jp} at j={j} is partial: {sorted(img)}"
                )
        if not prime:
            raise InternalConsistencyError(
                f"component {comp} at j={j} has no surviving member"
            )
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


def l_j_image(
    triple: FractalTriple,
    j: int,
    vertices: Iterable[int],
    n: int = 1,
    hat: BoundaryGraph | None = None,
) -> frozenset[int]:
    """n-fold image of a boundary vertex set under the cell-``j`` image map."""
    if not 0 <= j < triple.N:
        raise ValueError(f"j={j} is not a boundary id")
    if n < 0:
        raise ValueError("n must be nonnegative")
    current = frozenset(int(x) for x in vertices)
    for x in current:
        if not 0 <= x < triple.N or x == j:
            raise ValueError(f"vertex {x} is not a boundary id distinct from j={j}")
    if n == 0 or not current:
        return current
    singles = _single_images(triple, j, hat or hat_graph(triple))
    for _ in range(n):
        current = frozenset(x for p in current for x in singles[p])
    return current
