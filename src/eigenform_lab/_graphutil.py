"""Small undirected-graph helpers shared by the combinatorial modules."""

import functools
from collections import deque

import numpy as np


def sorted_edge(a, b):
    return (a, b) if a < b else (b, a)


@functools.lru_cache(maxsize=None)
def pair_index(n):
    """Both ends of every vertex pair ``a < b`` below ``n``, row by row
    (``pair_list`` order), as two read-only arrays."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def adjacency(n, edges):
    """Adjacency sets for an edge list over vertices ``0..n-1``."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def split_components(vertices, adj):
    """Connected components of the subgraph induced on ``vertices``,
    each a sorted tuple, listed by smallest member."""
    vs = set(vertices)
    out = []
    while vs:
        start = min(vs)
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y in vs and y not in seen:
                    seen.add(y)
                    queue.append(y)
        out.append(tuple(sorted(seen)))
        vs -= seen
    out.sort(key=lambda c: c[0])
    return out


def labels(nv, p, q):
    """Root of every vertex ``0..nv-1`` of the graph with the edges
    ``p[e]``--``q[e]`` (integer arrays): the least id in its component.

    Each pass hooks every root onto the least smaller root that an edge
    reaches from its tree, then pointer-jumps until every vertex points at a
    root.  A root only ever moves to a smaller id of its component, so the
    passes end, and once no edge joins two roots each component has one
    root, its least member."""
    # the arrays are small, so comparing their bytes is cheaper than an
    # elementwise test
    root = np.arange(nv)
    while True:
        rp, rq = root[p], root[q]
        if rp.tobytes() == rq.tobytes():
            return root
        np.minimum.at(root, np.maximum(rp, rq), np.minimum(rp, rq))
        while (up := root[root]).tobytes() != root.tobytes():
            root = up
