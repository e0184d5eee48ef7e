"""Small undirected-graph helpers shared by the combinatorial modules."""

from collections import deque


def sorted_edge(a, b):
    return (a, b) if a < b else (b, a)


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
