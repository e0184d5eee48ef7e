"""Brute-force reference computations used only as test oracles.

Each routine here recomputes a quantity by the most direct method available
(entry-by-entry Laplacian assembly, single global Schur reduction, round-based
orbit closure, exhaustive word enumeration, exhaustive subset enumeration)
without going through the production code paths it checks.
"""

import itertools

import numpy as np

from eigenform_lab import DirichletForm, harmonicity_functional, pair_list
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
