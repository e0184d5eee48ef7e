"""Brute-force reference computations used only as test oracles.

Each routine here recomputes a quantity by the most direct method available
(entry-by-entry Laplacian assembly, one reachability search per interior
solve, single global Schur reduction, one intersection per cell pair, one
breadth-first search per boundary vertex, one depth-first search per removed
boundary cell, round-based orbit closure, exhaustive word enumeration,
exhaustive subset enumeration) without going through the production code
paths it checks.
"""

import itertools
from collections import deque

import numpy as np

from eigenform_lab import (
    BoundaryGraph,
    DirichletForm,
    harmonicity_functional,
    lift_edges,
    pair_list,
)
from eigenform_lab._graphutil import adjacency
from eigenform_lab.errors import SingularInteriorError
from eigenform_lab.renorm import OperatorCache


def conductance_laplacian_loop(triple, form, weights):
    """First-level network Laplacian built entry by entry, cell by cell and
    pair by pair, skipping pairs without conductance."""
    nv = triple.num_vertices
    lap = np.zeros((nv, nv))
    m = form.matrix()
    for i, cell in enumerate(triple.cells):
        for a, b in pair_list(triple.N):
            c = m[a, b]
            if c <= 0.0:
                continue
            w = weights[i] * c
            p, q = cell[a], cell[b]
            lap[p, p] += w
            lap[q, q] += w
            lap[p, q] -= w
            lap[q, p] -= w
    return lap


def check_reachable_bfs(triple, lap, free, fixed):
    """Raise ``SingularInteriorError`` at the first vertex of ``free`` that no
    depth-first search from the ``fixed`` vertices reaches, walking every pair
    image ``cell[a], cell[b]`` whose Laplacian entry is nonzero; rebuilt from
    scratch on every call."""
    adj = adjacency(
        triple.num_vertices,
        [
            (cell[a], cell[b])
            for cell in triple.cells
            for a, b in pair_list(triple.N)
            if lap[cell[a], cell[b]] != 0.0
        ],
    )
    seen = set(fixed)
    stack = list(fixed)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    for v in free:
        if v not in seen:
            raise SingularInteriorError(v)


def cell_graph_pairwise(triple):
    """Edges ``{i1, i2}`` between cells that share a vertex id, by
    intersecting every pair of cells."""
    sets = [set(cell) for cell in triple.cells]
    edges = set()
    for i1 in range(len(sets)):
        for i2 in range(i1 + 1, len(sets)):
            if sets[i1] & sets[i2]:
                edges.add((i1, i2))
    return frozenset(edges)


def connected_within(vertices, adj):
    """True when every two members of ``vertices`` are joined by a path
    staying inside ``vertices``, by one breadth-first search from an
    arbitrary member.  Sets of size 0 or 1 count as connected."""
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    start = next(iter(vs))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in vs and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == vs


def connectivity_flags_dfs(triple):
    """``(a_connected, o_connected)`` with one depth-first search over the
    cell graph per removed boundary cell, started at the first surviving
    boundary cell and kept off the removed one."""
    n, k = triple.N, triple.k
    adj = adjacency(k, cell_graph_pairwise(triple))
    a_conn = True
    for j in range(n):
        allowed = set(range(k)) - {j}
        targets = [i for i in range(n) if i != j]
        if len(targets) > 1:
            seen = {targets[0]}
            stack = [targets[0]]
            while stack:
                for y in adj[stack.pop()]:
                    if y in allowed and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if not all(t in seen for t in targets[1:]):
                a_conn = False
                break
    sets = [set(cell) for cell in triple.cells]
    disjoint = all(not (sets[a] & sets[b]) for a in range(n) for b in range(a + 1, n))
    inner = set(range(n, k))
    return a_conn, disjoint and bool(inner) and connected_within(inner, adj)


def two_level_form(triple, form, weights):
    """Reduce the full two-level network onto the boundary in one shot.

    The two-level vertex set is a tree of cell copies: one copy of the
    first-level vertex set per cell, with copy boundaries glued onto the
    first-level vertices of the host cell.  Edge weights multiply along the
    two levels.
    """
    n, k, nv = triple.N, triple.k, triple.num_vertices
    fresh = {}

    def node(i1, w):
        if w < n:
            return triple.cells[i1][w]
        key = (i1, w)
        if key not in fresh:
            fresh[key] = nv + len(fresh)
        return fresh[key]

    m = form.matrix()
    edges = {}
    for i1 in range(k):
        for i2 in range(k):
            for a, b in pair_list(n):
                c = m[a, b]
                if c <= 0.0:
                    continue
                p, q = node(i1, triple.cells[i2][a]), node(i1, triple.cells[i2][b])
                key = (min(p, q), max(p, q))
                edges[key] = edges.get(key, 0.0) + weights[i1] * weights[i2] * c
    total = nv + len(fresh)
    lap = np.zeros((total, total))
    for (p, q), w in edges.items():
        lap[p, p] += w
        lap[q, q] += w
        lap[p, q] -= w
        lap[q, p] -= w
    bnd = list(range(n))
    inner = list(range(n, total))
    schur = lap[np.ix_(bnd, bnd)] - lap[np.ix_(bnd, inner)] @ np.linalg.solve(
        lap[np.ix_(inner, inner)], lap[np.ix_(inner, bnd)]
    )
    return DirichletForm(n, {(a, b): max(-schur[a, b], 0.0) for a, b in pair_list(n)})


def _interior_reach(triple, adj, start):
    """All vertices reachable from ``start`` by paths whose intermediate
    vertices are interior.  Boundary vertices are recorded when hit but never
    walked through; the start itself is expanded."""
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y >= triple.N:
                queue.append(y)
    seen.discard(start)
    return seen


def lambda_graph_bfs(triple, g):
    """Propagation operator by one interior-path search per boundary id over
    the lift of ``g`` through every cell."""
    adj = adjacency(triple.num_vertices, lift_edges(triple, g.edges))
    edges = set()
    for j in range(triple.N):
        for t in _interior_reach(triple, adj, j):
            if t < triple.N and t != j:
                edges.add((min(j, t), max(j, t)))
    return BoundaryGraph(triple.N, frozenset(edges))


def single_images_bfs(triple, j, hat):
    """Cell-``j`` image of every boundary id ``j' != j``: the ids ``h != j``
    whose copy ``cells[j][h]`` an interior-path search from ``j'`` over the
    lift of ``hat`` reaches."""
    adj = adjacency(triple.num_vertices, lift_edges(triple, hat.edges))
    cell = triple.cells[j]
    out = {}
    for jp in range(triple.N):
        if jp != j:
            reach = _interior_reach(triple, adj, jp)
            out[jp] = frozenset(h for h in range(triple.N) if h != j and cell[h] in reach)
    return out


def orbit_span_rounds(triple, cache, seed, rank_tol=1e-10):
    """Orbit span closed in rounds: each round pushes every basis vector
    through every cell operator, one operator and one vector at a time, and
    Gram-Schmidt adjoins any image with a residual above the rank threshold;
    rounds repeat until one adjoins nothing."""
    seed = np.asarray(seed, dtype=float)
    norm = np.linalg.norm(seed)
    basis = [seed / norm]
    scale = max(1.0, norm)
    changed = True
    while changed and len(basis) < triple.N:
        changed = False
        for b in list(basis):
            for i in range(triple.k):
                w = cache.cell(i) @ b
                resid = w - sum((w @ e) * e for e in basis)
                if np.linalg.norm(resid) > rank_tol * max(scale, np.linalg.norm(w)):
                    basis.append(resid / np.linalg.norm(resid))
                    changed = True
                    if len(basis) == triple.N:
                        break
            if len(basis) == triple.N:
                break
    return np.array(basis)


def all_words(k, max_len):
    """Every cell-index word of length 0..max_len."""
    for length in range(max_len + 1):
        yield from itertools.product(range(k), repeat=length)


def digraph_by_word_enumeration(triple, form, weights, comp_by_j, payload, phi_tol=1e-8):
    """Stability edges found by checking every word up to length N-1."""
    cache = OperatorCache(triple, form, weights)
    nodes = sorted(payload)
    max_coeff = form.max_coefficient()
    edges = set()
    for src in nodes:
        seed = payload[src].u_tilde
        vectors = [cache.word(word) @ seed for word in all_words(triple.k, triple.N - 1)]
        for dst in nodes:
            jd, sd = dst
            for vec in vectors:
                sup = float(np.max(np.abs(vec)))
                if sup == 0.0:
                    continue
                value = abs(harmonicity_functional(form, comp_by_j[jd], sd, vec))
                if value / (max_coeff * sup) > phi_tol:
                    edges.add((src, dst))
                    break
    return edges


def closed_subsets(nodes, edges):
    """All nonempty node sets with no outgoing edge, by exhaustion."""
    nodes = list(nodes)
    out = []
    for bits in range(1, 2 ** len(nodes)):
        subset = frozenset(n for i, n in enumerate(nodes) if bits >> i & 1)
        if all(dst in subset for (src, dst) in edges if src in subset):
            out.append(subset)
    return out


def has_two_disjoint_closed_subsets(nodes, edges):
    subsets = closed_subsets(nodes, edges)
    return any(
        not (a & b) for a, b in itertools.combinations(subsets, 2)
    )
